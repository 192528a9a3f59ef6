"""Projections and concave maximization over simplex products, and the
nearest point of an LP face."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairrec.lp import Region
from fairrec.numerics import (
    HalfspaceSet,
    LogObjective,
    SimplexProduct,
    dykstra_project,
    nash_concave_solve,
    project_rows_to_simplex,
)
from fairrec.optimizer import min_norm_face_point


def test_simplex_projection_known_points():
    out = project_rows_to_simplex(np.array([[0.4, 0.4, 0.4]]))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)
    out = project_rows_to_simplex(np.array([[2.0, -1.0]]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_simplex_projection_fixes_feasible_points():
    rows = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
    assert np.allclose(project_rows_to_simplex(rows), rows, atol=1e-12)


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 5)), elements=st.floats(-5, 5)),
    st.integers(0, 2**32 - 1),
)
def test_simplex_projection_is_closest_feasible_point(rows, seed):
    out = project_rows_to_simplex(rows)
    assert np.all(out >= -1e-12)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        cand = rng.uniform(0.0, 1.0, size=rows.shape) + 1e-9
        cand /= cand.sum(axis=1, keepdims=True)
        assert np.linalg.norm(out - rows) <= np.linalg.norm(cand - rows) + 1e-9


def test_dykstra_simplex_with_halfspace():
    sets = [SimplexProduct(1, 2), HalfspaceSet(np.array([1.0, 0.0]), 0.8)]
    out = dykstra_project(np.array([0.5, 0.5]), sets)
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
    res = nash_concave_solve(objective, SimplexProduct(1, 2), tol=1e-6)
    assert res.converged
    assert np.allclose(res.point, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)
    assert abs(res.value - (2 * np.log(2 / 3) + np.log(1 / 3))) < 1e-9


def test_projected_ascent_certificate_is_relative():
    objective = LogObjective(np.eye(3), np.array([5.0, 1.0, 1.0]))
    res = nash_concave_solve(objective, SimplexProduct(1, 3), tol=1e-6)
    assert res.converged
    assert res.gap <= 1e-6 * (1.0 + abs(res.value))


def test_iteration_cap_reports_nonconvergence():
    objective = LogObjective(np.eye(3), np.array([5.0, 1.0, 1.0]))
    res = nash_concave_solve(objective, SimplexProduct(1, 3), tol=1e-12, max_iter=1)
    assert not res.converged


def test_region_type_is_checked():
    with pytest.raises(TypeError):
        nash_concave_solve(LogObjective(np.eye(2)), "simplex")


def test_log_objective_validation_and_domain():
    with pytest.raises(ValueError):
        LogObjective(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LogObjective(np.eye(2), np.ones(3))
    objective = LogObjective(np.eye(2))
    assert objective.value(np.array([1.0, 0.0])) == -np.inf
