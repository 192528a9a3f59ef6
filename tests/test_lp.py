"""LP wrapper behavior: correctness, determinism, failure modes."""
import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import grid_maxmin, simplex_grid

import fairrec.lp as lp
from fairrec.lp import (
    LPSolverError,
    LPStatus,
    Region,
    WarmLP,
    _violation,
    solve_lp,
    solve_maxmin_linear,
    sum_k_lift,
    sum_k_smallest_epigraph,
    sum_k_smallest_floor,
)


def simplex(n):
    return Region(n, a_eq=np.ones((1, n)), b_eq=[1.0])


SIMPLEX2 = simplex(2)


def test_maxmin_of_coordinates_on_simplex_is_half():
    value, point, _ = solve_maxmin_linear(np.eye(2), SIMPLEX2)
    assert abs(value - 0.5) < 1e-12
    assert np.allclose(point, [0.5, 0.5], atol=1e-12)


def test_sum_two_smallest_with_pinned_third_coordinate():
    # Third variable is fixed at 0.8; every split of the first two with
    # x0 in [0.2, 0.8] keeps the two smallest summing to 1, so any is optimal.
    region = Region(3, a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0], lb=[0.0, 0.0, 0.8], ub=[np.inf, np.inf, 0.8])
    value, point, _ = sum_k_smallest_epigraph(np.eye(3), 2, region)
    assert abs(value - 1.0) < 1e-9
    assert _violation(region, point) <= 1e-9
    assert abs(np.sort(point)[:2].sum() - 1.0) < 1e-9


def test_infeasible_program_raises_with_status():
    # x >= 2 and x <= 1
    region = Region(1, a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    with pytest.raises(LPSolverError) as err:
        solve_maxmin_linear(np.array([[1.0]]), region)
    assert err.value.status is LPStatus.INFEASIBLE


def test_unbounded_program_is_reported():
    solution = solve_lp(np.array([1.0]), Region(1))
    assert solution.status is LPStatus.UNBOUNDED


def test_identical_instances_solve_bitwise_identically():
    rng = np.random.default_rng(11)
    rows = rng.uniform(0.0, 1.0, size=(5, 4))
    _, p1, _ = solve_maxmin_linear(rows, simplex(4))
    _, p2, _ = solve_maxmin_linear(rows.copy(), simplex(4))
    assert np.array_equal(p1, p2)


def test_solution_is_vertex_flagged():
    solution = solve_lp(np.array([1.0, 0.0]), SIMPLEX2)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.is_vertex


@pytest.mark.parametrize("seed", range(6))
def test_maxmin_matches_dense_grid_search(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 5)
    rows = rng.uniform(0.0, 1.0, size=(rng.integers(2, 7), n))
    value, point, _ = solve_maxmin_linear(rows, simplex(n))
    step = 0.005 if n <= 3 else 0.02
    grid_value = grid_maxmin(rows, simplex_grid(int(n), step))
    # every grid point is feasible, and the grid is step-dense in L1
    assert value >= grid_value - 1e-9
    assert value <= grid_value + 2 * n * step


@pytest.mark.parametrize("seed", range(4))
def test_sum_1_smallest_equals_maxmin(seed):
    rng = np.random.default_rng(100 + seed)
    rows = rng.uniform(0.0, 1.0, size=(4, 3))
    region = simplex(3)
    v1, _, _ = solve_maxmin_linear(rows, region)
    v2, _, _ = sum_k_smallest_epigraph(rows, 1, region)
    assert abs(v1 - v2) < 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_reported_values_are_attained_by_returned_points(seed):
    # Downstream code reuses these values as constraint bounds, so they must
    # be recomputed from the point rather than read off the epigraph variable.
    rng = np.random.default_rng(200 + seed)
    rows = rng.uniform(0.0, 1.0, size=(5, 4))
    region = simplex(4)
    value, point, _ = solve_maxmin_linear(rows, region)
    assert value == float(np.min(rows @ point))
    value, point, _ = sum_k_smallest_epigraph(rows, 2, region)
    assert value == float(np.sort(rows @ point)[:2].sum())


def test_constraint_validation():
    with pytest.raises(ValueError):
        Region(2, a_eq=[[1.0, 1.0]], b_eq=[1.0, 1.0])
    with pytest.raises(ValueError):
        Region(2, lb=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        solve_lp(np.array([1.0]), Region(2))
    with pytest.raises(ValueError):
        Region(2, a_ub=[[1.0]], b_ub=[1.0])


def test_var_bounds_are_honored():
    region = Region(2, a_eq=[[1.0, 1.0]], b_eq=[1.0], lb=[0.3, 0.0])
    value, point, _ = solve_maxmin_linear(np.array([[0.0, 1.0]]), region)
    assert abs(point[0] - 0.3) < 1e-12
    assert abs(value - 0.7) < 1e-12


def test_sum_k_floor_keeps_smallest_rows_above_bound():
    # Every coordinate must stay at 0.3 or more, so x0 tops out at 0.7.
    region = sum_k_smallest_floor(np.eye(2), 1, 0.3, SIMPLEX2)
    value, point, _ = solve_maxmin_linear(np.eye(region.num_vars)[:1], region)
    assert abs(value - 0.7) < 1e-12
    assert abs(point[1] - 0.3) < 1e-12
    # The two smallest coordinates sum to 1 on the simplex; a floor above that is empty.
    with pytest.raises(LPSolverError) as err:
        region = sum_k_smallest_floor(np.eye(2), 2, 1.5, SIMPLEX2)
        solve_maxmin_linear(np.eye(region.num_vars)[:1], region)
    assert err.value.status is LPStatus.INFEASIBLE


def test_weighted_sum_k_lift_matches_repeated_rows():
    rng = np.random.default_rng(31)
    rows = rng.uniform(0.0, 1.0, size=(4, 3))
    counts = np.array([1, 3, 2, 1])
    for k in (1, 3, 7):
        weighted = solve_lp(*sum_k_lift(rows, k, simplex(3), weights=counts))
        value, _, _ = sum_k_smallest_epigraph(np.repeat(rows, counts, axis=0), k, simplex(3))
        assert abs(weighted.value - value) < 1e-9
    with pytest.raises(ValueError):
        sum_k_lift(rows, 8, simplex(3), weights=counts)


def test_warm_resolve_matches_cold_solve_and_survives_infeasibility():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.1, 1.0, size=(6, 5))
    floors = rng.uniform(0.1, 1.0, size=5)
    # x_j >= floor_j on the simplex: coordinate floors as <= rows.
    region = Region(5, a_eq=np.ones((1, 5)), b_eq=[1.0], a_ub=-np.eye(5), b_ub=np.zeros(5))
    objective, lifted = sum_k_lift(rows, 1, region)
    warm = WarmLP(objective, lifted)

    def b_ub(floor):
        return np.concatenate([-floor, np.zeros(6)])

    for scale in (0.0, 0.1, 0.19, 0.05):
        floor = scale * floors
        cold = solve_lp(objective, replace(lifted, b_ub=b_ub(floor)))
        sol = warm.solve(b_ub(floor))
        assert sol.status is LPStatus.OPTIMAL
        assert abs(sol.value - cold.value) < 1e-12
        assert np.all(sol.point[:5] >= floor - 1e-12)
    # Floors summing past 1 empty the region; the next solve starts cold and still works.
    assert warm.solve(b_ub(np.full(5, 0.3))).status is LPStatus.INFEASIBLE
    assert warm.solve(b_ub(np.zeros(5))).value == solve_lp(objective, lifted).value


def test_optimal_face_holds_every_optimum_and_nothing_else():
    # max x0 + x1 on the 3-simplex: every optimum has x2 = 0, by its reduced cost.
    warm = WarmLP(np.array([1.0, 1.0, 0.0]), simplex(3))
    assert warm.solve(()).status is LPStatus.OPTIMAL
    face = warm.optimal_face()
    for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]):
        assert _violation(face, np.array(x)) <= 1e-15
    assert _violation(face, np.array([0.5, 0.4, 0.1])) > 0.09
    # max x0 on the 3-simplex with x0 <= 0.7: the bound row has a dual, so it is tight.
    capped = Region(3, a_eq=np.ones((1, 3)), b_eq=[1.0], a_ub=[[1.0, 0.0, 0.0]], b_ub=[0.7])
    warm = WarmLP(np.array([1.0, 0.0, 0.0]), capped)
    assert warm.solve([0.7]).status is LPStatus.OPTIMAL
    face = warm.optimal_face()
    for x in ([0.7, 0.3, 0.0], [0.7, 0.0, 0.3], [0.7, 0.15, 0.15]):
        assert _violation(face, np.array(x)) <= 1e-15
    assert _violation(face, np.array([0.6, 0.4, 0.0])) > 0.09


def test_warm_program_substitutes_fixed_columns_out():
    # x2 is fixed at 0.8 and enters the <= row x0 + x2 <= b, so x0 <= b - 0.8.
    region = Region(3, a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0], a_ub=[[1.0, 0.0, 1.0]], b_ub=[1.5],
                    lb=[0.0, 0.0, 0.8], ub=[np.inf, np.inf, 0.8])
    warm = WarmLP(np.array([1.0, 0.0, 0.0]), region)
    for b in (1.5, 1.2):
        sol = warm.solve([b])
        assert sol.status is LPStatus.OPTIMAL
        assert np.allclose(sol.point, [b - 0.8, 1.8 - b, 0.8], atol=1e-12)
        assert abs(sol.value - solve_lp(np.array([1.0, 0.0, 0.0]), replace(region, b_ub=[b])).value) < 1e-12
    assert np.array_equal(warm.optimal_face().lb, [0.0, 0.0, 0.8])


def test_start_from_the_optimal_basis_takes_no_iterations():
    # max min(x0 + x3, 2 x1, 4 x2) over the simplex, x3 fixed at 0.5: the
    # optimum t = 6/7 at x = (5/14, 3/7, 3/14) has x0, x1, x2 and t basic and
    # every row at its bound.
    region = Region(4, a_eq=[[1.0, 1.0, 1.0, 0.0]], b_eq=[1.0], lb=[0.0, 0.0, 0.0, 0.5],
                    ub=[np.inf, np.inf, np.inf, 0.5])
    objective, lifted = sum_k_lift([[1.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 4.0, 0.0]], 1, region)
    cold = WarmLP(objective, lifted).solve(lifted.b_ub)
    assert cold.status is LPStatus.OPTIMAL and cold.iterations > 0
    warm = WarmLP(objective, lifted)
    warm.start_from([0, 1, 2, 4], [])
    seeded = warm.solve(lifted.b_ub)
    assert seeded.status is LPStatus.OPTIMAL and seeded.iterations == 0
    assert np.allclose(seeded.point, [5 / 14, 3 / 7, 3 / 14, 0.5, 6 / 7], rtol=0.0, atol=1e-15)
    assert np.allclose(seeded.point, cold.point, rtol=0.0, atol=1e-15)
    assert isinstance(solve_lp(objective, lifted).iterations, int)


def test_start_from_a_basis_highs_rejects_is_a_failed_solve():
    # One basic variable for two rows leaves the basis matrix singular.
    warm = WarmLP(np.array([1.0, 0.0, 0.0]), simplex(3).extend([[1.0, 0.0, 0.0]], [0.7]))
    with pytest.raises(LPSolverError, match="2 rows and 3 columns") as err:
        warm.start_from([0], [])
    assert err.value.status is LPStatus.FAILED
    assert warm.solve([0.7]).status is LPStatus.OPTIMAL


def test_solve_lp_face_holds_every_optimum_and_nothing_else():
    # max x0 + x1 on the 3-simplex: every optimum has x2 = 0, by its reduced cost.
    solution = solve_lp(np.array([1.0, 1.0, 0.0]), simplex(3))
    assert solution.status is LPStatus.OPTIMAL
    for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]):
        assert _violation(solution.face, np.array(x)) <= 1e-15
    assert _violation(solution.face, np.array([0.5, 0.4, 0.1])) > 0.09
    # max x0 on the 3-simplex with x0 <= 0.7: the bound row has a dual, so it is tight.
    capped = Region(3, a_eq=np.ones((1, 3)), b_eq=[1.0], a_ub=[[1.0, 0.0, 0.0]], b_ub=[0.7])
    solution = solve_lp(np.array([1.0, 0.0, 0.0]), capped)
    assert solution.status is LPStatus.OPTIMAL
    for x in ([0.7, 0.3, 0.0], [0.7, 0.0, 0.3], [0.7, 0.15, 0.15]):
        assert _violation(solution.face, np.array(x)) <= 1e-15
    assert _violation(solution.face, np.array([0.6, 0.4, 0.0])) > 0.09


def test_highs_runs_at_the_tolerances_of_the_solver_contract(monkeypatch):
    """FEAS_TOL and OPT_TOL, which every output file prints, are the ones
    HiGHS is given: read back from a WarmLP's HiGHS instance and from
    solve_lp's linprog options, both set apart from HiGHS's defaults."""
    monkeypatch.setattr(lp, "FEAS_TOL", 3e-7)
    monkeypatch.setattr(lp, "OPT_TOL", 2e-7)
    made, options = [], []
    real_highs, real_linprog = lp._silent_highs, lp.linprog

    def silent_highs(model, **kwargs):
        made.append(real_highs(model, **kwargs))
        return made[-1]

    def linprog(*args, **kwargs):
        options.append(kwargs["options"])
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(lp, "_silent_highs", silent_highs)
    monkeypatch.setattr(lp, "linprog", linprog)
    WarmLP(np.ones(2), SIMPLEX2)
    keys = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
    assert [made[0].getOptionValue(key)[1] for key in keys] == [3e-7, 2e-7]
    assert solve_lp(np.ones(2), SIMPLEX2).status is LPStatus.OPTIMAL
    assert [options[0][key] for key in keys] == [3e-7, 2e-7]


def test_only_lp_imports_the_private_highs_binding():
    """Only ``fairrec/lp.py`` names scipy's private HiGHS binding; no other
    module of the package or the tests imports it or reads a ``WarmLP``'s
    HiGHS instance (``_highs``), so the solver's results reach them only
    through ``LPSolution``."""
    root = Path(__file__).resolve().parent.parent
    importers, readers = [], []
    for path in sorted((root / "src" / "fairrec").glob("*.py")) + sorted((root / "tests").glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr == "_highs":
                readers.append(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.optimize._highspy") for name in names):
                importers.append(path.name)
        if path.parent.name == "fairrec" and "_highspy" in text and path.name not in importers:
            importers.append(path.name)
    assert sorted(set(importers)) == ["lp.py"]
    assert sorted(set(readers)) == ["lp.py"]
