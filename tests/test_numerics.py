"""Concave maximization over simplex products, Dykstra's projection onto an
intersection of halfspaces, and the nearest point of an LP face."""
import re

import numpy as np
import pytest

from fairrec import numerics
from fairrec.core import FairnessMeasure, MeasureKind
from fairrec.lp import Region
from fairrec.numerics import (
    LogObjective,
    NonConvergenceError,
    dykstra_project,
    nash_concave_solve,
)
from fairrec.optimizer import Problem, compute_uf_star, min_norm_face_point


class _Halfspace:
    """{x : a . x >= b}"""

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, dtype=float), b

    def project(self, x):
        gap = self.b - float(self.a @ x)
        return x if gap <= 0 else x + (gap / float(self.a @ self.a)) * self.a


def test_dykstra_two_halfspaces():
    # The origin's nearest point in {x1 >= 0.8} ∩ {x1 + x2 >= 1}: both cuts are active.
    out = dykstra_project(np.zeros(2), [_Halfspace([1.0, 0.0], 0.8), _Halfspace([1.0, 1.0], 1.0)])
    assert np.allclose(out, [0.8, 0.2], atol=1e-8)


def test_min_norm_face_point_hits_active_halfspace():
    # The simplex {x1 + x2 = 1, x >= 0} cut by x1 >= 0.8.
    face = Region(2, a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[-1.0, 0.0]], b_ub=[-0.8])
    x = min_norm_face_point(np.array([0.5, 0.5]), face, np.array([0.9, 0.1]), 0.5)
    assert np.allclose(x, [0.8, 0.2], atol=1e-8)


def test_min_norm_face_point_without_cuts_returns_target():
    face = Region(2, a_eq=[[1.0, 1.0]], b_eq=[1.0])
    x = min_norm_face_point(np.array([0.25, 0.75]), face, np.array([1.0, 0.0]), 0.5)
    assert np.allclose(x, [0.25, 0.75], atol=1e-8)


def test_projected_ascent_matches_weighted_log_optimum():
    # max 2 log(x1) + log(x2) over the simplex sits at (2/3, 1/3)
    objective = LogObjective(np.eye(2), np.array([2.0, 1.0]))
    res = nash_concave_solve(objective, (1, 2), tol=1e-6)
    assert res.converged
    assert np.allclose(res.point, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)
    assert abs(res.value - (2 * np.log(2 / 3) + np.log(1 / 3))) < 1e-9


def test_projected_ascent_certificate_is_relative():
    objective = LogObjective(np.eye(3), np.array([5.0, 1.0, 1.0]))
    res = nash_concave_solve(objective, (1, 3), tol=1e-6)
    assert res.converged
    assert res.gap <= 1e-6 * (1.0 + abs(res.value))


def test_iteration_cap_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_ITER", 1)
    objective = LogObjective(np.eye(3), np.array([5.0, 1.0, 1.0]))
    res = nash_concave_solve(objective, (1, 3), tol=1e-12)
    assert not res.converged


def test_floor_constraint_meets_its_closed_form():
    # max log x1 over the simplex subject to log x2 >= log(1/4) sits at (3/4, 1/4).
    floor = (LogObjective(np.array([[0.0, 1.0]])), np.log(0.25))
    res = nash_concave_solve(LogObjective(np.array([[1.0, 0.0]])), (1, 2), tol=1e-9, constraint=floor)
    assert res.converged
    assert 0.0 <= np.log(0.75) - res.value <= res.gap <= 1e-9 * (1.0 + abs(res.value))
    assert np.allclose(res.point, [0.75, 0.25], atol=1e-6)
    with pytest.raises(ValueError, match="strictly feasible"):
        nash_concave_solve(floor[0], (1, 2), start=np.array([0.9, 0.1]), constraint=floor)


def test_newton_step_cap_raises_typed_error_naming_the_phase(worked_instance, monkeypatch):
    nash = FairnessMeasure(MeasureKind.NASH_WELFARE)
    monkeypatch.setattr(numerics, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError, match=r"item phase \(IF\*.*2x3: not certified after 3 Newton steps \(cap 3\)"):
        Problem(worked_instance, measure=nash).if_star
    monkeypatch.undo()
    problem = Problem(worked_instance, measure=nash)
    problem.if_star
    monkeypatch.setattr(numerics, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as err:
        compute_uf_star(problem, 0.5)
    assert re.search(r"user phase at gamma = 0\.5, 2x3: .* last gap \d\.\d+e[+-]\d+, t = \d", str(err.value))


def test_log_objective_validation_and_domain():
    with pytest.raises(ValueError):
        LogObjective(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LogObjective(np.eye(2), np.ones(3))
    objective = LogObjective(np.eye(2))
    assert objective.value(np.array([1.0, 0.0])) == -np.inf
