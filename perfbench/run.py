"""fairrec benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lp_sweep --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
instance once traced and once untraced and reports the per-layer metrics.
fairrec is imported from ``src/`` of the checkout and from nowhere else.
The last line of standard output is the result; the line before it holds
the details (per-op times, failure reasons, machine).  See README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, so that timings do not depend on how many cores are free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import install, layer_self_share, per_layer  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# No op starts after START_BY_S; an op still running at STOP_AT_S is stopped
# and counted as failed, so that a run ends well within three minutes.
START_BY_S = 110.0
STOP_AT_S = 160.0


class OpTimeout(Exception):
    pass


def _elapsed() -> float:
    return time.perf_counter() - T_START


def _import_fairrec():
    if not (SRC / "fairrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fairrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401

    fairrec = importlib.import_module("fairrec")
    importlib.import_module("fairrec.cli")  # the CLI imports every other module
    if SRC.resolve() not in Path(fairrec.__file__).resolve().parents:
        sys.exit(f"perfbench: imported fairrec from {fairrec.__file__}, not from {SRC}")
    return fairrec


_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import scipy.optimize, fairrec.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Wall seconds a fresh interpreter spends importing fairrec, as every CLI run does."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def _machine() -> dict:
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _pof_check(fairrec) -> bool:
    """`fairrec pof --values 3,2,1 --alpha 0.5 --users 10` must print pof = 1/7."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fairrec.cli.main(["pof", "--values", "3,2,1", "--alpha", "0.5", "--users", "10"])
    pof = [ln.split("=", 1)[1] for ln in out.getvalue().splitlines() if ln.startswith("pof =")]
    return code == 0 and len(pof) == 1 and abs(float(pof[0]) - 1.0 / 7.0) <= 1e-8


def _on_alarm(signum, frame):
    raise OpTimeout(f"op still running {STOP_AT_S:g} s after the benchmark started")


class Runner:
    def __init__(self, fairrec, workload, pool, tracer):
        self.fr = fairrec
        self.wl = workload
        self.pool = pool
        self.tracer = tracer
        self.ops: list[dict] = []
        self._reported: set[str] = set()

    def run_op(self, index: int, traced: bool) -> None:
        """Time one op on pool[index], then check its outputs untimed."""
        self.fr.optimizer.clear_caches()
        record = {"index": index, "traced": traced, "exception": None}
        if self.tracer is not None and traced:
            self.tracer.op = len(self.ops)
        signal.setitimer(signal.ITIMER_REAL, max(STOP_AT_S - _elapsed(), 0.001))
        t0 = time.perf_counter()
        try:
            out = self.wl.op(self.pool[index])
        except Exception as exc:  # any op failure is counted, never fatal
            out = None
            record["exception"] = type(exc).__name__
        finally:
            record["seconds"] = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.op = None
        if record["exception"] is not None:
            self._note_traceback(record["exception"])
            tally = Tally(self.wl.points_per_op)
            tally.errors.append(record["exception"])
        else:
            try:
                tally = self.wl.check(index, self.pool[index], out)
            except Exception as exc:
                self._note_traceback(type(exc).__name__)
                tally = Tally(self.wl.points_per_op)
                tally.check_failures.append(f"check raised {type(exc).__name__}: {exc}")
        record["tally"] = tally
        self.ops.append(record)

    def _note_traceback(self, name: str) -> None:
        """Print the first traceback of each exception class to stderr."""
        if name not in self._reported:
            self._reported.add(name)
            traceback.print_exc(limit=4, file=sys.stderr)

    def loop(self, order: list[int], seconds: float, paired: bool) -> None:
        """Visit the pool in ``order`` pass after pass, and stop at the pass
        boundary nearest to ``seconds``, so every instance runs equally often."""
        deadline = time.perf_counter() + seconds
        while _elapsed() < START_BY_S:
            t0 = time.perf_counter()
            for index in order:
                if paired:
                    traced_first = len(self.ops) // 2 % 2 == 0
                    self.run_op(index, traced=traced_first)
                    self.run_op(index, traced=not traced_first)
                else:
                    self.run_op(index, traced=False)
                if _elapsed() >= START_BY_S:
                    return
            now = time.perf_counter()
            if deadline - now < (now - t0) / 2:
                return


def _end_to_end(runner: Runner, setup_s: float) -> dict:
    times = [op["seconds"] for op in runner.ops]
    ok = sum(op["tally"].ok for op in runner.ops)
    attempted = sum(op["tally"].attempted for op in runner.ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "points_per_s": {"value": ok / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        "ok_frac": {"value": ok / attempted, "unit": "ratio"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fairrec = _import_fairrec()
    import_s = _elapsed()
    workdir = ROOT / "perfbench" / "work"
    workdir.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # One set-up: import fairrec in a fresh interpreter, build the pool,
        # run the warm-up op.
        rep_s = []
        for _ in range(SETUP_REPEATS):
            child_import_s = _import_seconds()
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](fairrec, args.seed, str(workdir))
            pool = workload.make_pool()
            fairrec.optimizer.clear_caches()
            workload.warmup()
            rep_s.append(child_import_s + time.perf_counter() - t0)
        setup_s = statistics.median(rep_s)
        pof_ok = _pof_check(fairrec)

        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer, fairrec)
        runner = Runner(fairrec, workload, pool, tracer)
        order = [int(i) for i in np.random.default_rng(args.seed).permutation(len(pool))]
        try:
            runner.loop(order, args.seconds, paired=bool(args.trace))
        finally:
            if tracer is not None:
                tracer.unwrap_all()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    ops = runner.ops
    failed_ops = [op for op in ops if op["exception"] or op["tally"].check_failures]
    check_failures = [f for op in ops for f in op["tally"].check_failures]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pool_order": order,
        "ops": len(ops),
        "op_s": [round(op["seconds"], 4) for op in ops],
        "setup_rep_s": [round(s, 4) for s in rep_s],
        "import_s": round(import_s, 4),
        "points_attempted": sum(op["tally"].attempted for op in ops),
        "points_ok": sum(op["tally"].ok for op in ops),
        "point_errors": dict(Counter(e for op in ops for e in op["tally"].errors)),
        "exceptions": dict(Counter(op["exception"] for op in ops if op["exception"])),
        "check_failures": check_failures[:10],
        "pof_check": pof_ok,
        "machine": _machine(),
    }
    if args.trace:
        traced = [i for i, op in enumerate(ops) if op["traced"]]
        # ops run in (traced, untraced) or (untraced, traced) pairs: 2k and 2k + 1
        pairs = [ops[i]["seconds"] / ops[i ^ 1]["seconds"] for i in traced]
        metrics, absent = per_layer(tracer, traced, statistics.median(pairs))
        traced_s = sum(ops[i]["seconds"] for i in traced)
        detail["traced_op_s_mean"] = traced_s / len(traced)
        detail["layer_self_share"] = layer_self_share(tracer, traced, traced_s)
        detail["absent"] = absent
        detail["missing_names"] = [name for name, _ in tracer.missing]
        if absent:
            print(f"perfbench: absent metrics {absent}: wrapped names gone: "
                  f"{detail['missing_names']}", file=sys.stderr)
    else:
        metrics = _end_to_end(runner, setup_s)
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": pof_ok and not check_failures,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
