"""What the benchmark under perfbench/ relies on: wrapped names and a quiet stdout.

perfbench replaces fairrec attributes by timing wrappers; a name it cannot
find makes a per-layer metric go absent.  Its result is the last line of
standard output, so a solve must write nothing to fd 1 (or fd 2).
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import duplicated_item_matrix

import fairrec
import fairrec.cli  # noqa: F401  (perfbench wraps names in every submodule)
from fairrec.core import FairnessMeasure, MeasureKind, UtilityMatrix
from fairrec.lp import Region, WarmLP, maxmin_lift
from fairrec.optimizer import Scope, TieBreak, price_of_misestimation, tradeoff_sweep
from fairrec.populations import gen_misestimation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_perfbench_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import install
    from spans import Tracer

    tracer = Tracer()
    try:
        install(tracer, fairrec)
    finally:
        tracer.unwrap_all()
    assert tracer.missing == []


def test_solves_write_nothing_to_stdout_or_stderr(worked_instance, capfd):
    capfd.readouterr()
    tradeoff_sweep(worked_instance, [0.0, 0.5, 1.0])
    tradeoff_sweep(worked_instance, [0.0, 0.5, 1.0], measure=FairnessMeasure(MeasureKind.SUM_K_MIN, 2))
    tradeoff_sweep(worked_instance, [0.0, 0.5, 1.0], tie_break=TieBreak.CANONICAL)
    # Its gamma = 0.2 face has positive dimension, so the canonical point is a HiGHS QP.
    tradeoff_sweep(UtilityMatrix(duplicated_item_matrix(0)), [0.0, 0.2, 1.0], tie_break=TieBreak.CANONICAL)
    # A fresh HiGHS model logs to fd 1 unless it is silenced before it gets the model.
    objective, region = maxmin_lift(np.eye(2), Region(2, a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    WarmLP(objective, region).solve(region.b_ub)
    data = gen_misestimation(np.array([3.0, 2.0, 1.0]), 0.3, 11, seed=1)
    for scope in Scope:
        price_of_misestimation(data.w, data.w_hat, [0.5], scope)
    assert capfd.readouterr() == ("", "")


def test_cli_import_adds_no_third_party_module_beyond_numpy_and_scipy():
    # perfbench's setup_s is mostly a fresh interpreter importing
    # scipy.optimize and then fairrec.cli; the second must stay cheap.
    code = (
        "import sys, scipy.optimize\n"
        "before = set(sys.modules)\n"
        "import fairrec.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "fairrec" in added.stdout.split()
    assert set(added.stdout.split()) <= {"fairrec", "numpy", "scipy", *sys.stdlib_module_names}
