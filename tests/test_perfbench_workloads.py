"""The benchmark's own workloads, one op each, judged by their own checks.

Each op calls the entry points ``perfbench/workloads.py`` calls (the sweep,
the CLI and the closed forms its checks compare against), so a change that
would fail every benchmark run fails here first.
"""
import json
from pathlib import Path

import pytest

import fairrec
import fairrec.cli  # noqa: F401  (the population workload calls fairrec.cli.main)

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_op_passes_its_own_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](fairrec, 0, str(tmp_path))
    pool = workload.make_pool()
    workload.warmup()
    tally = workload.check(0, pool[0], workload.op(pool[0]))
    assert (tally.errors, tally.check_failures) == ([], [])
    assert tally.ok == tally.attempted == workload.points_per_op
