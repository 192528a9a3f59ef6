"""Alternating parent/change pairs of the benchmark, summarised in one JSON file.

Usage, from the root of a source checkout (the change side, as it stands):

    python3 scripts/bench_pairs.py --parent e27edae --pairs 10 --out BENCH_39.json

The parent side is ``git archive`` of the named commit, extracted to a
temporary directory that is removed afterwards.  (An archive rather than a
``git worktree``: a worktree registers itself in the repository's ``.git``
and stays registered if the run is interrupted.)  Pair i runs each side on
seed ``--seed + i``, the parent first in even pairs and the change first in
odd ones.  A run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in that side's root, for every workload W of BENCHMARK.json, with T its
``run_seconds``, and its last output line is kept whole under ``runs``.
For each workload and end-to-end metric of BENCHMARK.json the file
gives each side's median, quartiles, min and max, the pairs the change won
(better in the metric's direction; ties count for neither), and whether
the gain rule holds: the change wins at least nine tenths of the pairs, and
the medians lie further apart than the parent's interquartile range.
Nothing under ``perfbench/`` and not BENCHMARK.json is written.
"""
from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line and the machine of one benchmark run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    detail = json.loads(lines[-2].split("perfbench detail: ", 1)[1])
    return json.loads(lines[-1]), detail["machine"]


def _summary(runs: list[dict], metrics: list[dict], workloads: list[str]) -> dict:
    values = {(r["side"], r["wl"], m["name"]): [] for r in runs for m in metrics}
    for r in runs:
        for m in metrics:
            values[r["side"], r["wl"], m["name"]].append(r["r"]["metrics"][m["name"]]["value"])
    out = {"median_by_side": {}, "spread_by_side": {}, "wins": {}, "gain_rule": {}}
    for side in ("parent", "change"):
        for wl in workloads:
            for m in metrics:
                v = values[side, wl, m["name"]]
                q1, med, q3 = np.percentile(v, [25, 50, 75])
                out["median_by_side"].setdefault(side, {}).setdefault(wl, {})[m["name"]] = float(med)
                out["spread_by_side"].setdefault(side, {}).setdefault(wl, {})[m["name"]] = {
                    "q1": float(q1), "q3": float(q3), "min": min(v), "max": max(v)}
    median, spread = out["median_by_side"], out["spread_by_side"]
    for wl in workloads:
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            parent, change = values["parent", wl, name], values["change", wl, name]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            gap = sign * (median["change"][wl][name] - median["parent"][wl][name])
            iqr = spread["parent"][wl][name]["q3"] - spread["parent"][wl][name]["q1"]
            out["wins"].setdefault(wl, {})[name] = wins
            out["gain_rule"].setdefault(wl, {})[name] = {
                "pairs": len(parent), "wins": wins, "median_gain": gap, "parent_iqr": iqr,
                "met": wins >= 0.9 * len(parent) and gap > iqr}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="the first pair's seed")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    seeds = f"{args.seed}-{args.seed + args.pairs - 1}"

    change = _git("rev-parse", "HEAD") + (" plus uncommitted changes" if _git("status", "--porcelain") else "")
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent], capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        roots = {"parent": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            for wl in workloads:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result, machine = _run(roots[side], wl, args.seed + i, seconds)
                    runs.append({"side": side, "wl": wl, "seed": args.seed + i, "r": result})
                    print(f"pair {i} {wl} {side}: op_s_p50 {result['metrics']['op_s_p50']['value']:.4f}",
                          file=sys.stderr)
    report = {
        "description": f"{args.pairs} alternating pairs on seeds {seeds}, the parent from git archive of "
                       f"{args.parent} and the change from the working tree, parent first in even pairs",
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "machine": machine,
        "parent_commit": _git("rev-parse", args.parent),
        "change": change,
        **_summary(runs, bench["end_to_end"], workloads),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
