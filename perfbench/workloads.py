"""The benchmark's workloads: a fixed instance pool, one op, and its checks.

Every op calls fairrec's public entry points in-process.  The pool of
instances is the same in every run of a workload; ``--seed`` sets the order
in which the pool is visited and, for ``population_study``, the item value
vector and row order.  Checks run after the op, outside its timing, and
judge every gamma point: a point counts as ok only when fairrec reported it
ok and every check on it passed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re

import numpy as np

GAMMAS_11 = np.linspace(0.0, 1.0, 11)
GAMMAS_6 = np.linspace(0.0, 1.0, 6)
TOL = 1e-6


class Tally:
    """Outcome of one op's gamma points.

    ``errors`` are failures fairrec reported itself (an ``error:`` row or a
    nonzero exit code); ``check_failures`` are results fairrec reported as
    ok that a check found wrong.
    """

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.ok = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []

    def judge(self, status: str, problems: list[str]) -> None:
        self.check_failures.extend(problems)
        if status != "ok":
            # drop the numbers, so that equal failures group together
            self.errors.append(re.split(r"\s*\d", status, maxsplit=1)[0])
        elif not problems:
            self.ok += 1


def _random_matrix(fairrec, seed: int, shape: tuple[int, int]):
    return fairrec.UtilityMatrix(np.random.default_rng(seed).uniform(0.1, 1.0, shape))


class LpSweep:
    """Max-min ``tradeoff_sweep``, solver tie-break, 11 gammas, 100 x 100.

    Every user is its own type, so the LP has K*n = 10^4 policy variables and
    the HiGHS solve dominates the op.
    """

    name = "lp_sweep"
    pool_size = 6
    points_per_op = len(GAMMAS_11)

    def __init__(self, fairrec, seed: int, workdir: str):
        self.fr = fairrec

    def make_pool(self) -> list:
        return [_random_matrix(self.fr, j, (100, 100)) for j in range(self.pool_size)]

    def warmup(self) -> None:
        self.fr.optimizer.tradeoff_sweep(_random_matrix(self.fr, 1000, (20, 20)), GAMMAS_11)

    def op(self, w):
        return self.fr.optimizer.tradeoff_sweep(
            w, GAMMAS_11, tie_break=self.fr.optimizer.TieBreak.SOLVER
        )

    def check(self, index: int, w, curve) -> Tally:
        tally = Tally(self.points_per_op)
        prev_uf = math.inf
        for r in curve.rows:
            problems = []
            if r.status == "ok":
                if r.gamma == 0.0 and abs(r.uf_achieved - 1.0) > 1e-9:
                    problems.append(f"UF(0) = {r.uf_achieved!r}, expected 1")
                if r.uf_achieved > prev_uf + TOL:
                    problems.append(f"UF rises to {r.uf_achieved!r} at gamma {r.gamma:g}")
                if r.if_achieved < r.gamma * curve.if_star - TOL:
                    problems.append(f"IF {r.if_achieved!r} misses its target at gamma {r.gamma:g}")
                prev_uf = min(prev_uf, r.uf_achieved)
            tally.judge(r.status, problems)
        return tally


class PopulationStudy:
    """In-process CLI: generate misest, then misest and tradeoff on 50 000 x 30.

    The population has three types, so the LP is tiny and the op is spent in
    CSV writing and parsing, type reduction, cache-key hashing, policy
    expansion and policy validation.  The same instance is run by every op,
    so outputs must repeat byte for byte (timing column excepted).
    """

    name = "population_study"
    pool_size = 1
    points_per_op = 2 * len(GAMMAS_11)
    users = 50_000
    beta = 0.3

    def __init__(self, fairrec, seed: int, workdir: str):
        self.fr = fairrec
        self.seed = seed
        self.dir = workdir
        v = np.sort(np.random.default_rng(seed).uniform(1.0, 10.0, 30))[::-1]
        self.v = v
        self.values = ",".join(repr(float(x)) for x in v)
        self.digests: dict[str, str] | None = None

    def make_pool(self) -> list:
        return [self.values]

    def _run(self, prefix: str, users: int) -> tuple[int, int, int]:
        d = os.path.join(self.dir, prefix)
        common = ["--values", self.values, "--beta", str(self.beta), "--users", str(users),
                  "--seed", str(self.seed)]
        main = self.fr.cli.main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return (
                main(["generate", "misest", *common, "--out", d + "pop.csv"]),
                main(["misest", *common, "--scope", "misest-group", "--gammas", "11",
                      "--out", d + "pom.csv", "--svg", d + "pom.svg"]),
                main(["tradeoff", "--matrix", d + "pop.hat.csv", "--gammas", "11",
                      "--out", d + "tradeoff.csv", "--svg", d + "tradeoff.svg"]),
            )

    def warmup(self) -> None:
        self._run("warm_", 2_000)

    def op(self, values):
        return self._run("", self.users)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _digests(self) -> dict[str, str]:
        out = {}
        for name in ("pop.true.csv", "pop.hat.csv", "pom.csv", "pom.svg", "tradeoff.svg"):
            with open(self._path(name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        header, rows = _read_csv(self._path("tradeoff.csv"))
        keep = [i for i, h in enumerate(header) if h != "solve_ms"]
        text = "\n".join(",".join(row[i] for i in keep) for row in [header, *rows])
        out["tradeoff.csv"] = hashlib.sha256(text.encode()).hexdigest()
        return out

    def check(self, index: int, values, codes) -> Tally:
        tally = Tally(self.points_per_op)
        gen_code, misest_code, tradeoff_code = codes
        n = len(GAMMAS_11)
        if gen_code != 0:
            tally.errors.append(f"generate exited {gen_code}")
            return tally
        digests = self._digests()
        if self.digests is None:
            self.digests = digests
        changed = [k for k in digests if digests[k] != self.digests[k]]
        if changed:
            tally.check_failures.append(f"outputs differ from the first op: {changed}")
            return tally

        if misest_code != 0:
            tally.errors.append(f"misest exited {misest_code}")
        else:
            _, pom_rows = _read_csv(self._path("pom.csv"))
            if len(pom_rows) != n:
                tally.check_failures.append(f"misest wrote {len(pom_rows)} rows, expected {n}")
            for row in pom_rows[:n]:
                pom = float(row[1])
                tally.judge("ok", [] if math.isfinite(pom) else [f"pom {pom!r} at gamma {row[0]}"])

        if tradeoff_code != 0:
            tally.errors.append(f"tradeoff exited {tradeoff_code}")
            return tally
        spec = self.fr.analytic.MisestSpec(self.v, self.beta)
        lam = self.fr.analytic.misest_solution(spec).lam
        header, rows = _read_csv(self._path("tradeoff.csv"))
        col = {h: i for i, h in enumerate(header)}
        if len(rows) != n:
            tally.check_failures.append(f"tradeoff wrote {len(rows)} rows, expected {n}")
        for row in rows[:n]:
            if_star = float(row[col["if_star"]])
            problems = [] if abs(if_star - lam) <= TOL else [f"IF* {if_star!r} != closed form {lam!r}"]
            tally.judge(row[col["status"]], problems)
        return tally


class PostsolveSmall:
    """Canonical tie-break sweep on 10 x 10 (11 gammas), then a Nash sweep on 6 x 6 (6 gammas).

    The LP is a few percent of the op; SLSQP face projection and the Nash
    ascent take the rest.  Instance j draws both matrices from seed j, and
    the pool keeps instances whose Nash rows fail to converge at the time
    the benchmark was written: those rows count as failed points.
    """

    name = "postsolve_small"
    pool_size = 8
    points_per_op = len(GAMMAS_11) + len(GAMMAS_6)

    def __init__(self, fairrec, seed: int, workdir: str):
        self.fr = fairrec
        self.nash = fairrec.FairnessMeasure(fairrec.MeasureKind.NASH_WELFARE)
        self.reference: dict[int, object] = {}

    def _pair(self, seed: int, n_canonical: int, n_nash: int):
        rng = np.random.default_rng(seed)
        return (
            self.fr.UtilityMatrix(rng.uniform(0.1, 1.0, (n_canonical, n_canonical))),
            self.fr.UtilityMatrix(rng.uniform(0.1, 1.0, (n_nash, n_nash))),
        )

    def make_pool(self) -> list:
        return [self._pair(j, 10, 6) for j in range(self.pool_size)]

    def _sweeps(self, pair, gammas_canonical, gammas_nash):
        w_canonical, w_nash = pair
        sweep = self.fr.optimizer.tradeoff_sweep
        canonical = sweep(w_canonical, gammas_canonical,
                          tie_break=self.fr.optimizer.TieBreak.CANONICAL)
        return canonical, sweep(w_nash, gammas_nash, measure=self.nash)

    def warmup(self) -> None:
        self._sweeps(self._pair(1000, 4, 3), GAMMAS_6[::2], GAMMAS_6[::2])

    def op(self, pair):
        return self._sweeps(pair, GAMMAS_11, GAMMAS_6)

    def check(self, index: int, pair, curves) -> Tally:
        tally = Tally(self.points_per_op)
        canonical, nash = curves
        if index not in self.reference:
            self.reference[index] = self.fr.optimizer.tradeoff_sweep(
                pair[0], GAMMAS_11, tie_break=self.fr.optimizer.TieBreak.SOLVER
            )
        for r, ref in zip(canonical.rows, self.reference[index].rows):
            problems = []
            if r.status == "ok" and not (ref.status == "ok" and abs(r.uf_achieved - ref.uf_achieved) <= TOL):
                problems.append(
                    f"canonical UF {r.uf_achieved!r} != solver UF {ref.uf_achieved!r} "
                    f"at gamma {r.gamma:g}"
                )
            tally.judge(r.status, problems)
        for r in nash.rows:
            problems = []
            if r.status == "ok" and not r.if_achieved >= r.if_target - TOL:
                problems.append(f"Nash IF {r.if_achieved!r} misses {r.if_target!r} at gamma {r.gamma:g}")
            tally.judge(r.status, problems)
        return tally


WORKLOADS = {w.name: w for w in (LpSweep, PopulationStudy, PostsolveSmall)}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]
