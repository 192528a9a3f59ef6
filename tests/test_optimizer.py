"""End-to-end solver behavior: optima, constraints, tie-breaks, sweeps."""
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import duplicated_item_matrix, random_positive_matrix
from oracles import grid_nash_if_and_uf

import fairrec.optimizer as opt
from fairrec import lp
from fairrec.core import (
    FairnessMeasure,
    ItemUtilityModel,
    MeasureKind,
    RecommendationPolicy,
    UtilityMatrix,
    item_utility_vector,
    measure_value,
    user_utility_vector,
)
from fairrec.numerics import GAP_TOL, nash_concave_solve
from fairrec.optimizer import (
    Problem,
    Scope,
    TieBreak,
    _argmax_mixing_rows,
    clear_caches,
    compute_if_star,
    compute_uf_star,
    expand_policy,
    misestimated_users,
    price_of_fairness,
    price_of_misestimation,
    reduce_by_types,
    tradeoff_sweep,
)
from fairrec.populations import gen_homogeneous, gen_misestimation, gen_two_type

V321 = np.array([3.0, 2.0, 1.0])
NASH = FairnessMeasure(MeasureKind.NASH_WELFARE)
SUMK3 = FairnessMeasure(MeasureKind.SUM_K_MIN, 3)


def test_type_reduction_groups_identical_rows():
    cases = [
        ([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]], [0, 0, 1], [2, 1], [[1.0, 2.0], [2.0, 1.0]]),
        # first-occurrence order differs from sorted order
        ([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0]], [0, 1, 0], [2, 1], [[2.0, 1.0], [1.0, 2.0]]),
    ]
    for values, user_to_type, counts, rows in cases:
        w = UtilityMatrix(np.array(values))
        assert len(w.rows) == 2
        assert np.array_equal(reduce_by_types(w), counts)
        assert np.array_equal(w.type_of, user_to_type)
        assert np.array_equal(w.rows, rows)


def test_type_reduction_respects_explicit_labels():
    rows = np.array([[1.0, 2.0]] * 2)
    for labels, user_to_type in (([0, 0, 1], [0, 0, 1]), ([1, 0, 1], [0, 1, 0])):
        w = UtilityMatrix(rows, type_of=labels)
        assert len(w.rows) == 2
        assert np.array_equal(reduce_by_types(w), [2, 1])
        assert np.array_equal(w.type_of, user_to_type)


def _loop_reduction(values, type_of):
    """Per-user reference: first-occurrence type ids, counts and rows."""
    ids = {}
    user_to_type = []
    for i, row in enumerate(values):
        key = row.tobytes() if type_of is None else int(type_of[i])
        user_to_type.append(ids.setdefault(key, len(ids)))
    counts = np.bincount(user_to_type)
    rows = np.array([values[user_to_type.index(t)] for t in range(len(ids))])
    return np.array(user_to_type), counts, rows


@pytest.mark.parametrize("seed", range(4))
def test_type_reduction_matches_loop_reference(seed):
    rng = np.random.default_rng(300 + seed)
    types = rng.uniform(0.1, 1.0, size=(5, 4))
    labels = rng.permutation(40) % 5
    values = types[labels]
    for w, type_of in ((UtilityMatrix(values), None), (UtilityMatrix(types, type_of=labels), labels)):
        user_to_type, counts, rows = _loop_reduction(values, type_of)
        assert np.array_equal(w.type_of, user_to_type)
        assert np.array_equal(reduce_by_types(w), counts)
        assert np.array_equal(w.rows, rows)


def test_type_reduction_of_typed_rows_matches_row_equality():
    # Ids out of first-occurrence order and a type row no user has.
    rows = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 1.0], [9.0, 9.0]])
    by_rows = UtilityMatrix(rows[[2, 0, 2, 1]])
    typed = UtilityMatrix(rows, type_of=[2, 0, 2, 1])
    assert np.array_equal(typed.rows, by_rows.rows)
    assert np.array_equal(reduce_by_types(typed), reduce_by_types(by_rows))
    assert np.array_equal(typed.type_of, by_rows.type_of)
    assert by_rows.type_of.tolist() == [0, 1, 0, 2]


def test_policy_expansion_repeats_type_rows(worked_instance):
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    full = expand_policy(rows, worked_instance)
    assert full.shape == (10, 3)
    assert np.array_equal(full, rows[worked_instance.type_of])


def test_worked_instance_item_optimum(worked_instance):
    problem = Problem(worked_instance)
    res = problem.if_star
    assert abs(res.value - 3.0 / 7.0) < 1e-9
    i_vals = item_utility_vector(RecommendationPolicy(expand_policy(res.rows_by_type, problem.w)), worked_instance)
    assert np.allclose(i_vals, 3.0 / 7.0, atol=1e-7)
    assert res.lp_solution is not None and res.lp_solution.is_vertex


def test_worked_instance_constrained_user_curve(worked_instance):
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = compute_uf_star(Problem(worked_instance), gamma)
        assert abs(res.value - (1.0 - gamma / 7.0)) < 1e-6
    assert abs(price_of_fairness(Problem(worked_instance))[2] - 1.0 / 7.0) < 1e-6


def test_worked_instance_full_fairness_policy_canonical(worked_instance):
    res = compute_uf_star(Problem(worked_instance), 1.0, tie_break=TieBreak.CANONICAL)
    assert np.allclose(res.rows_by_type[0], [4 / 7, 3 / 7, 0.0], atol=1e-6)
    assert np.allclose(res.rows_by_type[1], [0.0, 3 / 7, 4 / 7], atol=1e-6)


def test_canonical_midcurve_point_is_symmetric(worked_instance):
    res = compute_uf_star(Problem(worked_instance), 0.5, tie_break=TieBreak.CANONICAL)
    assert np.allclose(res.rows_by_type[0], res.rows_by_type[1][::-1], atol=1e-8)


def test_canonical_unconstrained_mixes_tied_favorites():
    w = UtilityMatrix(np.array([[1.0, 1.0, 0.5]]))
    res = compute_uf_star(Problem(w), 0.0, tie_break=TieBreak.CANONICAL)
    assert np.allclose(res.rows_by_type, [[0.5, 0.5, 0.0]], atol=1e-12)
    assert abs(res.value - 1.0) < 1e-12


def _argmax_mixing_loop(wt):
    """The per-type loop _argmax_mixing_rows replaced, kept as its reference."""
    k, n = wt.shape
    rows = np.zeros((k, n))
    for t in range(k):
        row = wt[t]
        ties = row >= row.max() * (1.0 - 1e-12)
        rows[t, ties] = 1.0 / ties.sum()
    return rows


@pytest.mark.parametrize("seed", range(5))
def test_argmax_mixing_rows_match_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    wt = rng.integers(1, 4, size=(40, 7)).astype(float)
    # near-ties just inside and just outside the 1e-12 relative tie band
    wt[::3, 0] = wt[::3].max(axis=1) * (1.0 - 5e-13)
    wt[1::3, 1] = wt[1::3].max(axis=1) * (1.0 - 5e-12)
    out = _argmax_mixing_rows(wt)
    assert np.array_equal(out, _argmax_mixing_loop(wt))
    assert np.any(np.count_nonzero(out, axis=1) > 1)


def _count_qp_calls(monkeypatch) -> list:
    calls = []
    real = lp.solve_qp

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "solve_qp", counted)
    return calls


def test_canonical_faces_of_positive_dimension_split_copied_items(monkeypatch):
    calls = _count_qp_calls(monkeypatch)
    gammas = [0.2, 0.4, 0.6, 0.8, 1.0]
    for seed in range(20):
        w = UtilityMatrix(duplicated_item_matrix(seed))
        solver = tradeoff_sweep(w, gammas)
        canonical = tradeoff_sweep(w, gammas, tie_break=TieBreak.CANONICAL)
        for g, r_sol, r_can in zip(gammas, solver.rows, canonical.rows):
            assert r_sol.status == r_can.status == "ok"
            assert abs(r_can.uf_achieved - r_sol.uf_achieved) <= 1e-9
            rows = compute_uf_star(Problem(w), g, tie_break=TieBreak.CANONICAL).rows_by_type
            assert np.max(np.abs(rows[:, 0] - rows[:, 3])) <= 1e-9
    assert calls, "every face was short-circuited; the QP path went untested"


def test_canonical_point_faces_are_the_solver_vertex(monkeypatch):
    """postsolve_small's 10 x 10 instances: every optimal face at gamma > 0
    is a single point, so no QP is built and canonical is the vertex."""
    calls = _count_qp_calls(monkeypatch)
    for seed in range(8):
        w = UtilityMatrix(np.random.default_rng(seed).uniform(0.1, 1.0, (10, 10)))
        for g in np.linspace(0.1, 1.0, 10):
            solver = compute_uf_star(Problem(w), g).rows_by_type
            canonical = compute_uf_star(Problem(w), g, tie_break=TieBreak.CANONICAL).rows_by_type
            assert np.max(np.abs(canonical - solver)) <= 1e-12
    assert calls == []


def test_canonical_points_are_certified_on_heavily_tied_instances():
    """Small integer utilities tie everywhere, so the gamma = 1 faces are
    large and degenerate; HiGHS's QP answer alone misses them by up to 2e-8."""
    for seed in range(10):
        for shape, top in (((6, 5), 4), ((8, 6), 3)):
            w = UtilityMatrix(np.random.default_rng(seed).integers(1, top, size=shape).astype(float))
            solver = tradeoff_sweep(w, [0.5, 1.0])
            canonical = tradeoff_sweep(w, [0.5, 1.0], tie_break=TieBreak.CANONICAL)
            for r_sol, r_can in zip(solver.rows, canonical.rows):
                assert r_can.status == "ok", r_can.status
                assert abs(r_can.uf_achieved - r_sol.uf_achieved) <= 1e-6


def test_uncertified_face_point_fails_its_row_only(monkeypatch):
    def not_optimal(*args):
        return lp.LPSolution(lp.LPStatus.FAILED, message="injected"), math.inf

    monkeypatch.setattr(lp, "solve_qp", not_optimal)
    curve = tradeoff_sweep(
        UtilityMatrix(duplicated_item_matrix(0)), [0.0, 0.2, 0.8, 1.0], tie_break=TieBreak.CANONICAL
    )
    assert [r.status[:6] for r in curve.rows] == ["ok", "error:", "ok", "ok"]
    message = r"gamma = 0\.2 .* face dimension [1-9]\d*, .* residual inf, KKT residual inf$"
    assert re.search(message, curve.rows[1].status)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_homogeneous_two_item_price(eps):
    w = gen_homogeneous(np.array([1.0 - eps, eps]), 6)
    pof = price_of_fairness(Problem(w))[2]
    assert abs(pof - (1 - 2 * eps) / (2 - 2 * eps)) < 1e-9


def test_homogeneous_sweep_values():
    w = gen_homogeneous(np.array([0.9, 0.1]), 6)
    curve = tradeoff_sweep(w, [0.0, 0.5, 1.0])
    assert abs(curve.if_star - 0.5) < 1e-9
    expected = [1.0, 7.0 / 9.0, 5.0 / 9.0]
    for row, want in zip(curve.rows, expected):
        assert row.status == "ok"
        assert abs(row.uf_achieved - want) < 1e-6


def test_gamma_validation(worked_instance):
    with pytest.raises(ValueError):
        compute_uf_star(Problem(worked_instance), -0.1)
    with pytest.raises(ValueError):
        compute_uf_star(Problem(worked_instance), 1.2)


def test_canonical_tie_break_limited_to_maxmin(worked_instance):
    with pytest.raises(ValueError):
        compute_uf_star(Problem(worked_instance, measure=NASH), 0.5, tie_break=TieBreak.CANONICAL)
    with pytest.raises(ValueError):
        compute_uf_star(Problem(worked_instance, measure=SUMK3), 0.5, tie_break=TieBreak.CANONICAL)


def test_sweep_checks_the_tie_break_before_any_solve(monkeypatch):
    def solved(*args, **kwargs):
        raise AssertionError("IF* was solved before the tie-break was checked")

    monkeypatch.setattr(opt, "nash_concave_solve", solved)
    monkeypatch.setattr(lp, "solve_lp", solved)
    w = UtilityMatrix(random_positive_matrix(np.random.default_rng(0), 30, 30))
    for measure in (NASH, SUMK3):
        with pytest.raises(ValueError, match="canonical"):
            tradeoff_sweep(w, [0.0, 0.5, 1.0], measure=measure, tie_break="canonical")


def test_measure_size_validation(worked_instance):
    with pytest.raises(ValueError):
        Problem(worked_instance, measure=FairnessMeasure(MeasureKind.SUM_K_MIN, 5)).if_star
    with pytest.raises(ValueError):
        compute_uf_star(Problem(worked_instance, measure=FairnessMeasure(MeasureKind.SUM_K_MIN, 11)), 0.5)


def test_single_item_instance_is_trivially_fair():
    w = UtilityMatrix(np.array([[1.0], [2.0]]))
    assert abs(Problem(w).if_star.value - 1.0) < 1e-12
    for gamma in (0.0, 0.7, 1.0):
        assert abs(compute_uf_star(Problem(w), gamma).value - 1.0) < 1e-12


def test_indifferent_population_spreads_mass():
    w = UtilityMatrix(np.ones((4, 3)))
    assert abs(Problem(w).if_star.value - 1.0 / 3.0) < 1e-9
    for gamma in (0.0, 1.0):
        assert abs(compute_uf_star(Problem(w), gamma).value - 1.0) < 1e-9


def test_item_equality_at_item_optimum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = UtilityMatrix(random_positive_matrix(rng, 7, 4))
        problem = Problem(w)
        res = problem.if_star
        i_vals = item_utility_vector(RecommendationPolicy(expand_policy(res.rows_by_type, problem.w)), w)
        assert i_vals.max() - i_vals.min() < 1e-6


def test_constraint_target_is_met_along_gamma():
    rng = np.random.default_rng(9)
    w = UtilityMatrix(random_positive_matrix(rng, 6, 4))
    if_star = Problem(w).if_star.value
    for gamma in (0.3, 0.8, 1.0):
        problem = Problem(w)
        res = compute_uf_star(problem, gamma)
        achieved = item_utility_vector(RecommendationPolicy(expand_policy(res.rows_by_type, problem.w)), w).min()
        assert achieved >= gamma * if_star - 1e-6


def test_if_star_result_reused_when_passed_in(worked_instance, monkeypatch):
    solves = []
    real = lp.solve_lp

    def counted(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(lp, "solve_lp", counted)
    problem = Problem(worked_instance)
    results = [compute_uf_star(problem, g) for g in (0.5, 1.0, 0.25)]
    assert len(solves) == 1
    pre, res = problem.if_star, results[1]
    assert abs(res.if_target - pre.value) < 1e-15
    assert [r.if_target for r in results] == [g * pre.value for g in (0.5, 1.0, 0.25)]


def test_item_optimum_is_cached(worked_instance):
    r1 = compute_if_star(worked_instance)
    r2 = compute_if_star(worked_instance)
    assert r1 is r2
    r3 = compute_if_star(worked_instance, ItemUtilityModel(0.5))
    assert r3 is not r1
    clear_caches()
    assert compute_if_star(worked_instance) is not r1


def test_global_scaling_leaves_everything_invariant():
    rng = np.random.default_rng(21)
    values = random_positive_matrix(rng, 5, 3)
    for gamma in (0.0, 0.6, 1.0):
        a = compute_uf_star(Problem(UtilityMatrix(values)), gamma)
        b = compute_uf_star(Problem(UtilityMatrix(values * 7.3)), gamma)
        assert abs(a.value - b.value) < 1e-9


def test_item_permutation_permutes_the_optimum():
    rng = np.random.default_rng(22)
    values = random_positive_matrix(rng, 5, 4)
    perm = rng.permutation(4)
    a = compute_uf_star(Problem(UtilityMatrix(values)), 1.0)
    b = compute_uf_star(Problem(UtilityMatrix(values[:, perm])), 1.0)
    assert abs(a.value - b.value) < 1e-9
    assert abs(Problem(UtilityMatrix(values)).if_star.value
               - Problem(UtilityMatrix(values[:, perm])).if_star.value) < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="best-item normalization makes item shares depend on row scale; "
    "rescaling one user's row moves the constrained optimum",
)
def test_row_scaling_leaves_constrained_optimum_invariant():
    w1 = UtilityMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
    w2 = UtilityMatrix(np.array([[4.0, 2.0], [1.0, 1.0]]))
    assert abs(Problem(w1).if_star.value - Problem(w2).if_star.value) < 1e-9


def test_sum_k_measures_on_worked_instance(worked_instance):
    res = Problem(worked_instance, measure=SUMK3).if_star
    # with three items the sum over all of them is maximized by pure
    # best-share placement: 0.75 + 0.75
    assert abs(res.value - 1.5) < 1e-9
    for gamma, want in ((0.0, 3.0), (0.5, 3.0), (1.0, 3.0)):
        val = compute_uf_star(Problem(worked_instance, measure=SUMK3), gamma).value
        assert abs(val - want) < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_sum_1_min_pipeline_matches_maxmin(seed):
    rng = np.random.default_rng(40 + seed)
    w = UtilityMatrix(random_positive_matrix(rng, 5, 3))
    sum1 = FairnessMeasure(MeasureKind.SUM_K_MIN, 1)
    assert abs(Problem(w).if_star.value - Problem(w, measure=sum1).if_star.value) < 1e-7
    for gamma in (0.0, 0.8):
        a = compute_uf_star(Problem(w), gamma).value
        b = compute_uf_star(Problem(w, measure=sum1), gamma).value
        assert abs(a - b) < 1e-7


def test_maxmin_is_sum_k_with_k_1_row_for_row():
    """Max-min is sum-k with k = 1, so both build the same programs and
    their sweeps agree exactly: on types with counts above 1, and on tied
    favourites, where the gamma = 0 solve starts cold."""
    assert FairnessMeasure(MeasureKind.MAX_MIN, 3).k == 1
    rng = np.random.default_rng(31)
    typed = UtilityMatrix(rng.uniform(0.1, 1.0, (6, 8)), type_of=np.repeat(np.arange(6), [2, 3, 1, 4, 2, 3]))
    sum1 = FairnessMeasure(MeasureKind.SUM_K_MIN, 1)
    for w in (typed, UtilityMatrix(duplicated_item_matrix(0))):
        maxmin, sumk = (tradeoff_sweep(w, np.linspace(0.0, 1.0, 11), measure=m) for m in (FairnessMeasure(), sum1))
        assert maxmin.if_star == sumk.if_star
        for a, b in zip(maxmin.rows, sumk.rows, strict=True):
            assert a.status == b.status == "ok"
            assert (a.uf_achieved, a.if_achieved) == (b.uf_achieved, b.if_achieved)


def test_nash_item_optimum_on_worked_instance(worked_instance):
    res = Problem(worked_instance, measure=NASH).if_star
    assert abs(res.value - (-(2 * math.log(2) + math.log(3)))) < 1e-6
    assert np.allclose(res.rows_by_type, [[2 / 3, 1 / 3, 0.0], [0.0, 1 / 3, 2 / 3]], atol=1e-5)


def test_nash_constrained_curve_on_worked_instance(worked_instance):
    values = []
    for gamma in (0.0, 0.5, 1.0):
        problem = Problem(worked_instance, measure=NASH)
        res = compute_uf_star(problem, gamma)
        values.append(res.value)
        if gamma > 0:
            # certificate: scaled item log-welfare stays above the target
            policy = RecommendationPolicy(expand_policy(res.rows_by_type, problem.w))
            i_vals = item_utility_vector(policy, worked_instance)
            assert np.log(i_vals).sum() >= res.if_target - 1e-6 * (1 + abs(res.if_target))
    assert abs(values[0]) < 1e-12
    assert values[0] >= values[1] >= values[2]


def test_nash_pipeline_matches_grid_search(worked_instance):
    if_grid, uf_grid = grid_nash_if_and_uf(worked_instance.rows, reduce_by_types(worked_instance), step=0.02)
    if_solver = Problem(worked_instance, measure=NASH).if_star.value
    uf_solver = compute_uf_star(Problem(worked_instance, measure=NASH), 1.0).value
    assert if_solver >= if_grid - 1e-9
    assert abs(if_solver - if_grid) < 0.05
    assert abs(uf_solver - uf_grid) < 0.15


def _postsolve_nash_matrix(seed: int) -> UtilityMatrix:
    """The 6 x 6 Nash instance of the benchmark's postsolve_small workload:
    seed j draws a 10 x 10 and then a 6 x 6 uniform(0.1, 1) matrix."""
    rng = np.random.default_rng(seed)
    rng.uniform(0.1, 1.0, (10, 10))
    return UtilityMatrix(rng.uniform(0.1, 1.0, (6, 6)))


def _assert_nash_row(res, p):
    """Certified, row-stochastic to 1e-12, and no normalized utility above 1."""
    assert res.gap is not None and 0.0 <= res.gap <= GAP_TOL * (1.0 + abs(res.value))
    assert np.all(np.abs(res.rows_by_type.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all((p.b * res.rows_by_type).sum(axis=1) <= 1.0 + 1e-12)
    assert res.value <= 1e-12


def test_nash_rows_that_stalled_the_bisection_are_certified():
    # The Lagrangian bisection failed on these rows: instance 6 at gamma = 0.2,
    # 0.4 and 1 (inner stalls, multiplier range exhausted), instance 0 at
    # gamma = 1, and the 20 x 20 seed-0 rows; the 10 x 10 gamma = 0.3 row took 64 s.
    curve = tradeoff_sweep(_postsolve_nash_matrix(6), np.linspace(0.0, 1.0, 6), measure=NASH)
    assert [r.status for r in curve.rows] == ["ok"] * 6
    p6 = Problem(_postsolve_nash_matrix(6), measure=NASH)
    for gamma in np.linspace(0.0, 1.0, 6):
        _assert_nash_row(compute_uf_star(p6, gamma), p6)
    p0 = Problem(_postsolve_nash_matrix(0), measure=NASH)
    _assert_nash_row(compute_uf_star(p0, 1.0), p0)
    for n in (10, 20):
        p = Problem(UtilityMatrix(np.random.default_rng(0).uniform(0.1, 1.0, (n, n))), measure=NASH)
        for gamma in (0.3, 1.0):
            _assert_nash_row(compute_uf_star(p, gamma), p)


def _nash_instances(worked_instance):
    rngs = (np.random.default_rng(seed) for seed in (71, 72))
    return [worked_instance] + [UtilityMatrix(rng.uniform(0.1, 1.0, (4, 3))) for rng in rngs]


def test_nash_certificate_bounds_a_tight_solve(worked_instance, monkeypatch):
    # Every production solve, re-run to tol = 1e-12 from the same start: the
    # tighter value is attained by a feasible point, so it is at most the
    # optimum, and the reported gap must cover the distance to it.
    calls = []

    def recording(*args, **kwargs):
        res = nash_concave_solve(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(opt, "nash_concave_solve", recording)
    for w in _nash_instances(worked_instance):
        p = Problem(w, measure=NASH)
        for gamma in (0.5, 1.0):
            compute_uf_star(p, gamma)
    assert len(calls) == 9  # IF* and two rows per instance
    for args, kwargs, res in calls:
        assert res.converged and res.gap >= 0.0
        tight = nash_concave_solve(*args, **{**kwargs, "tol": 1e-12})
        assert tight.value - res.value <= res.gap


def test_nash_rows_stay_on_the_simplex(worked_instance):
    for w in _nash_instances(worked_instance):
        p = Problem(w, measure=NASH)
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            _assert_nash_row(compute_uf_star(p, gamma), p)


def test_misestimated_users_detection():
    data = gen_misestimation(V321, 0.4, 10, seed=0)
    assert np.array_equal(misestimated_users(data.w, data.w_hat), data.misestimated)
    with pytest.raises(ValueError):
        misestimated_users(data.w, UtilityMatrix(np.ones((2, 2))))


def test_price_of_misestimation_worked_values():
    data = gen_misestimation(V321, 0.4, 10, seed=0)
    for scope in (Scope.ALL_USERS, Scope.MISESTIMATED_GROUP):
        pom = price_of_misestimation(data.w, data.w_hat, [1.0], scope)[0]
        assert abs(pom - 2.0 / 9.0) < 1e-6
    pom0 = price_of_misestimation(
        data.w, data.w_hat, [0.0], Scope.MISESTIMATED_GROUP, tie_break=TieBreak.CANONICAL
    )[0]
    assert abs(pom0 - 1.0 / 3.0) < 1e-9


V4321 = np.array([4.0, 3.0, 2.0, 1.0])
V4 = np.array([5.0, 2.0, 1.5, 1.0])
SUMK2 = FairnessMeasure(MeasureKind.SUM_K_MIN, 2)
GRID11 = [float(g) for g in np.linspace(0.0, 1.0, 11)]


@pytest.mark.parametrize(
    "tie_break, measure",
    [(TieBreak.SOLVER, FairnessMeasure()), (TieBreak.CANONICAL, FairnessMeasure()), (TieBreak.SOLVER, SUMK3)],
    ids=["solver", "canonical", "sumk3"],
)
@pytest.mark.parametrize("scope", list(Scope))
def test_price_of_misestimation_grid_matches_single_gamma_calls(scope, tie_break, measure):
    # The estimated optimal face is not a point, so a grid solve that reused
    # the previous gamma's basis would land on another vertex here.
    data = gen_misestimation(V4321, 0.3, 100, seed=1)
    grid = price_of_misestimation(data.w, data.w_hat, GRID11, scope, measure=measure, tie_break=tie_break)
    for g, pom in zip(GRID11, grid):
        single = price_of_misestimation(data.w, data.w_hat, [g], scope, measure=measure, tie_break=tie_break)
        assert pom == single[0]


def test_price_of_misestimation_does_per_matrix_work_once_per_grid(monkeypatch):
    import fairrec.optimizer as opt

    if_star_calls, misest_calls = [], []
    real_if_star, real_misest = vars(opt.Problem)["if_star"], opt.misestimated_users

    def if_star(problem):
        if "if_star" not in vars(problem):  # not solved yet
            if_star_calls.append(id(problem.w))
        return real_if_star.__get__(problem)

    def misest(*args):
        misest_calls.append(1)
        return real_misest(*args)

    program_calls = []
    real_program = vars(opt.Problem)["uf_program"]

    def uf_program(problem):
        if "uf_program" not in vars(problem):  # not built yet
            program_calls.append(id(problem.w))
        return real_program.__get__(problem)

    monkeypatch.setattr(opt.Problem, "if_star", property(if_star))
    monkeypatch.setattr(opt.Problem, "uf_program", property(uf_program))
    monkeypatch.setattr(opt, "misestimated_users", misest)
    data = gen_misestimation(V4321, 0.3, 100, seed=1)
    for scope in Scope:
        for measure in (FairnessMeasure(), SUMK3):
            if_star_calls.clear()
            misest_calls.clear()
            program_calls.clear()
            pom = opt.price_of_misestimation(data.w, data.w_hat, GRID11, scope, measure=measure)
            assert len(pom) == len(GRID11)
            assert sorted(if_star_calls) == sorted([id(data.w), id(data.w_hat)])
            assert len(misest_calls) == 1
            assert sorted(program_calls) == sorted([id(data.w), id(data.w_hat)])
    if_star_calls.clear()
    opt.price_of_misestimation(data.w, data.w_hat, [0.0], Scope.ALL_USERS)
    assert if_star_calls == []


@pytest.mark.parametrize(
    "tie_break, measure",
    [(TieBreak.SOLVER, FairnessMeasure()), (TieBreak.CANONICAL, FairnessMeasure()), (TieBreak.SOLVER, SUMK2)],
    ids=["solver", "canonical", "sumk2"],
)
@pytest.mark.parametrize("scope", list(Scope))
@pytest.mark.parametrize("v", [V321, V4, V4321], ids=["3,2,1", "5,2,1.5,1", "4,3,2,1"])
def test_price_of_misestimation_on_one_program_per_side_equals_fresh_programs(v, scope, tie_break, measure):
    data = gen_misestimation(v, 0.3, 60, seed=2)
    pom = price_of_misestimation(data.w, data.w_hat, GRID11, scope, measure=measure, tie_break=tie_break)
    assert pom == [_per_user_pom(data.w, data.w_hat, g, scope, measure, tie_break) for g in GRID11]


def _refuse_solves(monkeypatch):
    import fairrec.optimizer as opt

    def solved(*args, **kwargs):
        raise AssertionError("a solve ran before the arguments were checked")

    monkeypatch.setattr(lp, "solve_lp", solved)
    monkeypatch.setattr(opt, "compute_uf_star", solved)
    return opt


def test_price_of_misestimation_rejects_bad_grids_and_tie_breaks_before_solving(monkeypatch):
    opt = _refuse_solves(monkeypatch)
    data = gen_misestimation(V321, 0.4, 10, seed=0)
    for gammas in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.5], [-0.5, 0.5]):
        with pytest.raises(ValueError, match="gamma"):
            opt.price_of_misestimation(data.w, data.w_hat, gammas, Scope.ALL_USERS)
    with pytest.raises(ValueError, match="canonical"):
        opt.price_of_misestimation(
            data.w, data.w_hat, [0.0, 1.0], Scope.ALL_USERS, measure=SUMK3, tie_break=TieBreak.CANONICAL
        )


def test_sum_k_larger_than_the_group_fails_before_solving(monkeypatch):
    opt = _refuse_solves(monkeypatch)
    data = gen_misestimation(V321, 0.4, 10, seed=0)
    assert data.misestimated.size == 2
    with pytest.raises(ValueError, match="k = 3 exceeds the 2 users of the misest-group scope"):
        opt.price_of_misestimation(data.w, data.w_hat, [0.0, 1.0], Scope.MISESTIMATED_GROUP, measure=SUMK3)


def test_perfect_estimates_cost_nothing():
    w = gen_two_type(V321, 0.5, 10)
    assert price_of_misestimation(w, w, [1.0], Scope.ALL_USERS)[0] == 0.0
    with pytest.raises(ValueError):
        price_of_misestimation(w, w, [1.0], Scope.MISESTIMATED_GROUP)


def test_sweep_rows_and_provenance(worked_instance):
    curve = tradeoff_sweep(worked_instance, [0.0, 0.5, 1.0])
    assert [r.gamma for r in curve.rows] == [0.0, 0.5, 1.0]
    assert all(r.status == "ok" for r in curve.rows)
    assert all(r.solve_ms >= 0.0 for r in curve.rows)
    uf = [r.uf_achieved for r in curve.rows]
    assert uf[0] >= uf[1] >= uf[2]


def test_sweep_requires_increasing_gammas(worked_instance, monkeypatch):
    import fairrec.optimizer as opt

    def solved_too_early(*args, **kwargs):
        raise AssertionError("IF* was solved before the gamma grid was checked")

    monkeypatch.setattr(lp, "solve_lp", solved_too_early)
    for gammas in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.5], [-0.5, 0.5]):
        with pytest.raises(ValueError):
            opt.tradeoff_sweep(worked_instance, gammas)


def test_sweep_records_failures_and_continues(worked_instance, monkeypatch):
    import fairrec.optimizer as opt

    real = opt.compute_uf_star

    def flaky(problem, gamma, *args, **kwargs):
        if gamma == 0.5:
            raise lp.LPSolverError(lp.LPStatus.FAILED, "injected failure")
        return real(problem, gamma, *args, **kwargs)

    monkeypatch.setattr(opt, "compute_uf_star", flaky)
    curve = opt.tradeoff_sweep(worked_instance, [0.0, 0.5, 1.0])
    assert curve.rows[0].status == "ok"
    assert curve.rows[1].status.startswith("error:")
    assert math.isnan(curve.rows[1].uf_achieved)
    assert curve.rows[2].status == "ok"


def test_policies_evaluate_consistently(worked_instance):
    problem = Problem(worked_instance)
    res = compute_uf_star(problem, 1.0)
    u = user_utility_vector(RecommendationPolicy(expand_policy(res.rows_by_type, problem.w)), worked_instance)
    assert abs(u.min() - res.value) < 1e-9


def cold_maxmin_uf(w: np.ndarray, gamma: float, if_star: float) -> float:
    """UF* of one gamma, built per user from scratch and solved by linprog at
    tight tolerances: max t with t <= U_u(x), I_j(x) >= gamma IF* - 1e-9, and
    at gamma = 1 I_j(x) >= IF* exactly, with no back-off."""
    from scipy.optimize import linprog

    m, n = w.shape
    b = w / w.max(axis=1, keepdims=True)
    a = w / w.sum(axis=0, keepdims=True)
    nv = m * n + 1
    users = np.zeros((m, nv))
    items = np.zeros((n, nv))
    simplex = np.zeros((m, nv))
    for u in range(m):
        users[u, u * n : (u + 1) * n] = -b[u]
        simplex[u, u * n : (u + 1) * n] = 1.0
        items[:, u * n : (u + 1) * n] = -np.diag(a[u])
    users[:, -1] = 1.0
    a_ub, b_ub = users, np.zeros(m)
    if gamma > 0:
        back_off = 1e-9 if gamma < 1 else 0.0
        a_ub, b_ub = np.vstack([users, items]), np.concatenate([b_ub, np.full(n, back_off - gamma * if_star)])
    cost = np.zeros(nv)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=simplex,
        b_eq=np.ones(m),
        bounds=[(0, None)] * (m * n) + [(None, None)],
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return float((b * res.x[:-1].reshape(m, n)).sum(axis=1).min())


def cold_sumk_uf(w: np.ndarray, gamma: float, if_star: float, k: int) -> float:
    """Sum-k UF* of one gamma, built per user from scratch and solved by
    linprog at tight tolerances: max k t - sum_u s_u with s_u >= t - U_u(x),
    and for gamma > 0 the item certificate k t' - sum_j s'_j >= gamma IF* - 1e-9
    (>= IF* exactly at gamma = 1, with no back-off) with s'_j >= t' - I_j(x);
    t and t' are free, every s is nonnegative."""
    from scipy.optimize import linprog

    m, n = w.shape
    b = w / w.max(axis=1, keepdims=True)
    a = w / w.sum(axis=0, keepdims=True)
    nx = m * n
    t, ti = nx, nx + 1 + m  # columns: x, t, s (m), t', s' (n)
    nv = ti + 1 + n
    users = np.zeros((m, nv))
    items = np.zeros((n, nv))
    simplex = np.zeros((m, nv))
    for u in range(m):
        users[u, u * n : (u + 1) * n] = -b[u]
        simplex[u, u * n : (u + 1) * n] = 1.0
        items[:, u * n : (u + 1) * n] = -np.diag(a[u])
    users[:, t] = 1.0
    users[:, t + 1 : ti] = -np.eye(m)
    items[:, ti] = 1.0
    items[:, ti + 1 :] = -np.eye(n)
    certificate = np.zeros((1, nv))
    certificate[0, ti] = -float(k)
    certificate[0, ti + 1 :] = 1.0
    a_ub, b_ub = users, np.zeros(m)
    if gamma > 0:
        a_ub = np.vstack([users, items, certificate])
        back_off = 1e-9 if gamma < 1 else 0.0
        b_ub = np.concatenate([b_ub, np.zeros(n), [back_off - gamma * if_star]])
    cost = np.zeros(nv)
    cost[t] = -float(k)
    cost[t + 1 : ti] = 1.0
    free = (None, None)
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=simplex,
        b_eq=np.ones(m),
        bounds=[(0, None)] * nx + [free] + [(0, None)] * m + [free] + [(0, None)] * n,
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return float(np.sort((b * res.x[:nx].reshape(m, n)).sum(axis=1))[:k].sum())


def cold_uf(w: np.ndarray, gamma: float, if_star: float, measure: FairnessMeasure) -> float:
    if measure.kind is MeasureKind.MAX_MIN:
        return cold_maxmin_uf(w, gamma, if_star)
    return cold_sumk_uf(w, gamma, if_star, measure.k)


LP_MEASURES = pytest.mark.parametrize("measure", [FairnessMeasure(), SUMK3], ids=["maxmin", "sumk3"])


def parity_instances():
    yield gen_two_type(V321, 0.5, 10)
    for seed in range(3):
        yield UtilityMatrix(random_positive_matrix(np.random.default_rng(500 + seed), 30, 30))
    # Types of 1 to 5 users each, so the sum-k type weights matter.
    rng = np.random.default_rng(503)
    yield UtilityMatrix(np.repeat(random_positive_matrix(rng, 10, 8), rng.integers(1, 6, 10), axis=0))
    # Values rounded to one decimal tie within and across rows, so the vertices are degenerate.
    yield UtilityMatrix(np.round(np.random.default_rng(504).uniform(0.1, 1.0, (20, 12)), 1))


@LP_MEASURES
def test_warm_sweep_matches_cold_tight_reference(measure):
    for w in parity_instances():
        clear_caches()
        curve = tradeoff_sweep(w, np.linspace(0.0, 1.0, 11), measure=measure)
        for r in curve.rows:
            assert r.status == "ok"
            assert abs(r.uf_achieved - cold_uf(w.values, r.gamma, curve.if_star, measure)) <= 1e-9


@LP_MEASURES
def test_warm_sweep_matches_single_gamma_solves(measure):
    gammas = [0.0, 0.3, 0.7, 1.0]
    for w in parity_instances():
        clear_caches()
        curve = tradeoff_sweep(w, gammas, measure=measure)
        for r, g in zip(curve.rows, gammas):
            assert abs(r.uf_achieved - compute_uf_star(Problem(w, measure=measure), g).value) <= 1e-9


@LP_MEASURES
def test_pof_unconstrained_optimum_is_the_sweep_gamma_0_row(measure):
    for w in parity_instances():
        uf0 = opt.price_of_fairness(Problem(w, measure=measure))[0]
        assert uf0 == tradeoff_sweep(w, [0.0], measure=measure).rows[0].uf_achieved


@LP_MEASURES
def test_warm_sweep_recovers_after_a_failed_gamma(monkeypatch, measure):
    real = lp.WarmLP.solve
    calls = []

    def fail_fourth(self, b_ub):
        calls.append(1)
        if len(calls) == 4:
            return lp.LPSolution(lp.LPStatus.FAILED, message="injected failure")
        return real(self, b_ub)

    monkeypatch.setattr(lp.WarmLP, "solve", fail_fourth)
    w = UtilityMatrix(random_positive_matrix(np.random.default_rng(500), 30, 30))
    curve = tradeoff_sweep(w, np.linspace(0.0, 1.0, 11), measure=measure)
    assert curve.rows[3].status.startswith("error:")
    assert "injected failure" in curve.rows[3].status
    for r in curve.rows[4:]:
        assert r.status == "ok"
        assert abs(r.uf_achieved - cold_uf(w.values, r.gamma, curve.if_star, measure)) <= 1e-9


@LP_MEASURES
def test_uf_star_calls_on_one_problem_share_its_program(worked_instance, monkeypatch, measure):
    programs = []
    real_init = lp.WarmLP.__init__

    def counted_init(self, *args, **kwargs):
        programs.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(lp.WarmLP, "__init__", counted_init)
    p = Problem(worked_instance, measure=measure)
    first = compute_uf_star(p, 0.5)
    second = compute_uf_star(p, 0.5)
    assert len(programs) == 1
    assert abs(first.value - second.value) <= 1e-12


def test_sum_k_sweep_is_one_warm_program_sized_by_types(monkeypatch):
    """IF* is the one cold solve; every gamma < 1 re-solves one WarmLP, and
    gamma = 1 solves one on IF*'s optimal face.  Both sizes depend on the
    types, not on how many users each holds."""
    cold, programs = [], []
    real_solve, real_init = lp.solve_lp, lp.WarmLP.__init__

    def counted_solve(objective, region):
        cold.append(region.num_vars)
        return real_solve(objective, region)

    def counted_init(self, objective, region, **kwargs):
        programs.append((region.num_vars, region.b_ub.size))
        real_init(self, objective, region, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted_solve)
    monkeypatch.setattr(lp.WarmLP, "__init__", counted_init)
    rng = np.random.default_rng(20)
    types = random_positive_matrix(rng, 20, 30)
    sizes = []
    for m in (200, 20_000):
        labels = np.concatenate([np.arange(20), rng.integers(0, 20, m - 20)])
        cold.clear()
        programs.clear()
        curve = tradeoff_sweep(
            UtilityMatrix(types[labels]), np.linspace(0.0, 1.0, 11), measure=FairnessMeasure(MeasureKind.SUM_K_MIN, 10)
        )
        assert all(r.status == "ok" for r in curve.rows)
        assert len(cold) == 1 and len(programs) == 2
        sizes.append(list(programs))
    assert sizes[0] == sizes[1]


def test_warm_vertex_instance_reads_exactly_one_at_full_fairness():
    # A warm gamma = 1 vertex used to break its user rows within the 1e-7
    # feasibility tolerance: the solver row read 0.9999999640 here.
    rng = np.random.default_rng(6)
    rng.integers(1, 4, size=(6, 5))
    w = UtilityMatrix(rng.integers(1, 3, size=(8, 6)))
    gammas = np.linspace(0.0, 1.0, 11)
    solver = tradeoff_sweep(w, gammas).rows[-1].uf_achieved
    canonical = tradeoff_sweep(w, gammas, tie_break=TieBreak.CANONICAL).rows[-1].uf_achieved
    assert abs(solver - 1.0) <= 1e-12
    assert abs(solver - canonical) <= 1e-12


@LP_MEASURES
def test_full_fairness_on_a_face_that_is_not_a_point_matches_cold_tight_reference(measure):
    # The two copies of item 0 can trade mass, so IF*'s optimal face has
    # positive dimension and UF*(1) is a program over it, not a point.
    w = UtilityMatrix(duplicated_item_matrix(0))
    p = Problem(w, measure=measure)
    reference = cold_uf(w.values, 1.0, p.if_star.value, measure)
    tie_breaks = list(TieBreak) if measure.kind is MeasureKind.MAX_MIN else [TieBreak.SOLVER]
    for tie_break in tie_breaks:
        assert abs(compute_uf_star(p, 1.0, tie_break=tie_break).value - reference) <= 1e-9


def test_full_fairness_on_the_worked_instance_is_six_sevenths(worked_instance):
    uf1 = opt.price_of_fairness(Problem(worked_instance))[1]
    row = tradeoff_sweep(worked_instance, np.linspace(0.0, 1.0, 11)).rows[-1].uf_achieved
    assert abs(uf1 - 6 / 7) <= 1e-11
    assert abs(row - 6 / 7) <= 1e-11
    assert uf1 == row


@pytest.mark.parametrize("measure", [FairnessMeasure(), SUMK2], ids=["maxmin", "sumk2"])
def test_full_fairness_point_that_misses_if_star_fails_typed(worked_instance, monkeypatch, measure):
    # A face read too wide, here the whole feasible set, lets UF*(1) drop items below IF*.
    monkeypatch.setattr(lp, "optimal_face", lambda region, row_dual, col_dual: region)
    with pytest.raises(lp.LPSolverError, match=r"UF\*\(1\), 2x3: its point misses IF\*") as err:
        compute_uf_star(Problem(worked_instance, measure=measure), 1.0)
    assert err.value.status is lp.LPStatus.FAILED


def test_max_min_sweep_solves_one_cold_program_and_a_small_face_program(monkeypatch):
    """IF* is the sweep's one linprog call, and UF*(1)'s HiGHS model holds
    only the free columns of IF*'s optimal face, not all K*n policy entries."""
    linprog_calls, model_columns = [], []
    real_linprog, real_model = lp.linprog, lp._highs_lp

    def counted_linprog(*args, **kwargs):
        linprog_calls.append(1)
        return real_linprog(*args, **kwargs)

    def counted_model(cost, a, *args):
        model_columns.append(a.shape[1])
        return real_model(cost, a, *args)

    monkeypatch.setattr(lp, "linprog", counted_linprog)
    monkeypatch.setattr(lp, "_highs_lp", counted_model)
    k = n = 40
    curve = tradeoff_sweep(UtilityMatrix(random_positive_matrix(np.random.default_rng(40), k, n)), np.linspace(0.0, 1.0, 11))
    assert all(r.status == "ok" for r in curve.rows)
    assert len(linprog_calls) == 1
    # The warm UF* program over (x, t), then the program on IF*'s face.
    assert len(model_columns) == 2 and model_columns[0] == k * n + 1
    assert model_columns[1] <= k + n + 2


def _record_warm_solves(monkeypatch) -> tuple[list, list]:
    """Every ``WarmLP`` solution and every ``start_from`` call, in order."""
    solutions, starts = [], []
    real_solve, real_start = lp.WarmLP.solve, lp.WarmLP.start_from

    def solve(self, b_ub):
        solutions.append(real_solve(self, b_ub))
        return solutions[-1]

    def start_from(self, basic_cols, basic_rows):
        starts.append(1)
        return real_start(self, basic_cols, basic_rows)

    monkeypatch.setattr(lp.WarmLP, "solve", solve)
    monkeypatch.setattr(lp.WarmLP, "start_from", start_from)
    return solutions, starts


@pytest.mark.parametrize("k", [None, 1, 3, 8], ids=["maxmin", "sumk1", "sumk3", "sumk8"])
def test_gamma_0_starts_at_its_optimum_and_matches_a_cold_solve(k, monkeypatch):
    """Unique favourites: the gamma = 0 solve starts at its optimal basis, so
    HiGHS takes no iteration, and its policy is bit-identical to a solve on
    a fresh program with no start.  The type counts are 2, 3, 1, 4, 2, 3:
    sum-k with k = 1 has one carrier, k = 3 two (type 0's 2 users fall
    short), and k = 8 four, past every single type's count."""
    measure = FairnessMeasure() if k is None else FairnessMeasure(MeasureKind.SUM_K_MIN, k)
    rng = np.random.default_rng(30)
    w = UtilityMatrix(rng.uniform(0.1, 1.0, (6, 8)), type_of=np.repeat(np.arange(6), [2, 3, 1, 4, 2, 3]))
    solutions, starts = _record_warm_solves(monkeypatch)
    fresh = Problem(w, measure=measure).uf_program
    cold = fresh.solve(fresh.region.b_ub)
    assert cold.iterations > 0 and not starts
    tie_breaks = list(TieBreak) if k is None else [TieBreak.SOLVER]
    for tie_break in tie_breaks:
        p = Problem(w, measure=measure)
        result = compute_uf_star(p, 0.0, tie_break=tie_break)
        assert solutions[-1].iterations == 0
        assert np.array_equal(solutions[-1].point[: 6 * 8], cold.point[: 6 * 8])
        assert result.value == measure_value(np.ones(6), measure, weights=p.counts)
    assert len(starts) == len(tie_breaks)


@pytest.mark.parametrize("k", [None, 2], ids=["maxmin", "sumk2"])
def test_gamma_0_with_tied_favourites_solves_cold(k, monkeypatch):
    """Types 0 and 3 of this instance tie items 0 and 3 as favourites, so the
    gamma = 0 optimum is no single point: the solve starts cold and lands on
    the vertex a fresh program's cold solve does."""
    measure = FairnessMeasure() if k is None else FairnessMeasure(MeasureKind.SUM_K_MIN, k)
    w = UtilityMatrix(duplicated_item_matrix(0))
    solutions, starts = _record_warm_solves(monkeypatch)
    result = compute_uf_star(Problem(w, measure=measure), 0.0)
    fresh = Problem(w, measure=measure).uf_program
    cold = fresh.solve(fresh.region.b_ub)
    assert not starts
    assert solutions[0].iterations == cold.iterations
    assert np.array_equal(solutions[0].point, cold.point)
    assert np.array_equal(result.rows_by_type, RecommendationPolicy.from_solver(cold.point[:16].reshape(4, 4)).rows)


def test_lp_sweep_assembly_stays_sparse():
    """A 100 x 100 max-min sweep has 10^4 policy variables, so one dense
    variables-by-variables array (an 800 MB identity, say) would dwarf the
    few MiB its sparse programs and solutions take."""
    w = UtilityMatrix(np.random.default_rng(0).uniform(0.1, 1.0, (100, 100)))
    tracemalloc.start()
    try:
        tradeoff_sweep(w, np.linspace(0.0, 1.0, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_sweep_from_the_favourites_basis_agrees_with_a_cold_sweep(monkeypatch):
    """Only the start of the gamma = 0 solve changes; later warm rows may end
    on another vertex of the same optimal face, with the same values."""
    w = UtilityMatrix(random_positive_matrix(np.random.default_rng(42), 40, 40))
    gammas = np.linspace(0.0, 1.0, 11)
    for measure in (FairnessMeasure(), SUMK3):
        seeded = tradeoff_sweep(w, gammas, measure=measure)
        with monkeypatch.context() as m:
            m.setattr(Problem, "_start_at_favourites", lambda self: None)
            cold = tradeoff_sweep(w, gammas, measure=measure)
        assert seeded.if_star == cold.if_star
        for a, b in zip(seeded.rows, cold.rows):
            assert a.status == b.status == "ok"
            assert abs(a.uf_achieved - b.uf_achieved) <= 1e-9
            assert abs(a.if_achieved - b.if_achieved) <= 1e-9
        assert (seeded.rows[0].uf_achieved, seeded.rows[0].if_achieved) == (cold.rows[0].uf_achieved, cold.rows[0].if_achieved)


def test_prices_are_undefined_for_nash_and_solve_nothing(worked_instance, monkeypatch):
    import fairrec.optimizer as opt

    def solved(*args, **kwargs):
        raise AssertionError("a Nash price was solved")

    monkeypatch.setattr(opt, "compute_uf_star", solved)
    with pytest.raises(ValueError, match="Nash"):
        opt.price_of_fairness(Problem(worked_instance, measure=NASH))
    data = gen_misestimation(V321, 0.3, 10, seed=0)
    for scope in Scope:
        with pytest.raises(ValueError, match="Nash"):
            opt.price_of_misestimation(data.w, data.w_hat, [0.5], scope, measure=NASH)


def _per_user_pom(w, w_hat, gamma, scope, measure, tie_break=TieBreak.SOLVER):
    """Price of misestimation evaluated user by user on expanded policies,
    each side solved on a fresh problem and UF* program."""
    ref_p, est_p = Problem(w, measure=measure), Problem(w_hat, measure=measure)
    ref = compute_uf_star(ref_p, gamma, tie_break=tie_break)
    est = compute_uf_star(est_p, gamma, tie_break=tie_break)
    u_ref = user_utility_vector(RecommendationPolicy(expand_policy(ref.rows_by_type, ref_p.w)), w)
    u_est = user_utility_vector(RecommendationPolicy(expand_policy(est.rows_by_type, est_p.w)), w)
    if scope is Scope.MISESTIMATED_GROUP:
        group = misestimated_users(w, w_hat)
        u_ref, u_est = u_ref[group], u_est[group]
    ref_val = measure_value(u_ref, measure)
    return (ref_val - measure_value(u_est, measure)) / ref_val


V5 = np.array([5.0, 3.5, 2.0, 1.25, 1.0])


@pytest.mark.parametrize("measure", [FairnessMeasure(), SUMK3], ids=["maxmin", "sumk3"])
@pytest.mark.parametrize("beta, m, seed", [(0.3, 25, 3), (0.2, 41, 7)])
def test_price_of_misestimation_matches_per_user_reference(measure, beta, m, seed):
    data = gen_misestimation(V5, beta, m, seed=seed)
    assert data.misestimated.size % 2 == 1
    for gamma in (0.0, 0.5, 1.0):
        for scope in Scope:
            pom = price_of_misestimation(data.w, data.w_hat, [gamma], scope, measure=measure)[0]
            assert pom == _per_user_pom(data.w, data.w_hat, gamma, scope, measure)


def _relabelled(w, rng):
    """``w``'s population with its type rows permuted together with their
    ids, and one more type row that no user has."""
    perm = rng.permutation(len(w.rows) + 1)
    rows = np.empty((len(w.rows) + 1, w.n))
    rows[perm[:-1]], rows[perm[-1]] = w.rows, rng.uniform(0.5, 9.0, w.n)
    return UtilityMatrix(rows, type_of=perm[w.type_of])


@pytest.mark.parametrize("seed", [3, 7])
def test_relabelled_types_give_one_matrix_and_bit_identical_results(seed):
    data, rng = gen_misestimation(V5, 0.3, 25, seed=seed), np.random.default_rng(seed)
    w, w_hat = _relabelled(data.w, rng), _relabelled(data.w_hat, rng)
    for given, copy in ((data.w, w), (data.w_hat, w_hat)):
        assert np.array_equal(given.rows, copy.rows) and np.array_equal(given.type_of, copy.type_of)

    def untimed(curve):
        return curve.if_star, [dataclasses.replace(row, solve_ms=0.0) for row in curve.rows]

    for measure, tie_break in ((FairnessMeasure(), TieBreak.SOLVER), (FairnessMeasure(), TieBreak.CANONICAL),
                               (SUMK3, TieBreak.SOLVER)):
        for a, b in ((data.w, w), (data.w_hat, w_hat)):
            assert untimed(tradeoff_sweep(a, GRID11, measure=measure, tie_break=tie_break)) == untimed(
                tradeoff_sweep(b, GRID11, measure=measure, tie_break=tie_break))
        for scope in Scope:
            assert price_of_misestimation(data.w, data.w_hat, GRID11, scope, measure=measure, tie_break=tie_break) == \
                price_of_misestimation(w, w_hat, GRID11, scope, measure=measure, tie_break=tie_break)


def test_solves_and_prices_stay_in_type_space(monkeypatch):
    import fairrec.optimizer as opt

    calls = []
    real_expand = opt.expand_policy

    def counted(rows, w):
        calls.append(rows.shape)
        return real_expand(rows, w)

    monkeypatch.setattr(opt, "expand_policy", counted)
    data = gen_misestimation(V5, 0.3, 25, seed=3)
    Problem(data.w).if_star
    for g in (0.0, 0.5):
        for mu in (FairnessMeasure(), SUMK3):
            compute_uf_star(Problem(data.w, measure=mu), g)
    for scope in Scope:
        price_of_misestimation(data.w, data.w_hat, [0.5], scope)
        price_of_misestimation(data.w, data.w_hat, [1.0], scope, measure=SUMK3)
    assert calls == []


def test_only_the_tradeoff_command_hashes_the_matrix(worked_instance, monkeypatch, tmp_path):
    """IF* is read from each solve path's Problem, not found by hashing the
    matrix; the one sha256 left is ``fairrec tradeoff``'s ``matrix_sha256``
    provenance line, and the library sweep hashes nothing."""
    import hashlib

    import fairrec.optimizer as opt
    from fairrec import cli

    calls = []
    real = hashlib.sha256

    def counted(*args):
        calls.append(1)
        return real(*args)

    def hashes(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr(opt.hashlib, "sha256", counted)
    data = gen_misestimation(V321, 0.3, 10, seed=0)
    recipe = ["--values", "3,2,1", "--users", "10"]
    commands = {
        "tradeoff": ["tradeoff", *recipe, "--alpha", "0.5", "--out", str(tmp_path / "t.csv")],
        "misest": ["misest", *recipe, "--beta", "0.3", "--scope", "all", "--out", str(tmp_path / "m.csv")],
        "pof": ["pof", *recipe, "--alpha", "0.5", "--out", str(tmp_path / "p.csv")],
        "validate-closed-form": ["validate-closed-form", "--alpha", "3", "--users", "10", "--out", str(tmp_path / "v.csv")],
    }
    assert hashes(lambda: opt.tradeoff_sweep(worked_instance, GRID11)) == 0
    assert hashes(lambda: opt.price_of_misestimation(data.w, data.w_hat, GRID11, Scope.ALL_USERS)) == 0
    assert hashes(lambda: opt.price_of_fairness(Problem(worked_instance))[2]) == 0
    codes = []
    for name, argv in commands.items():
        assert hashes(lambda: codes.append(cli.main(argv))) == (1 if name == "tradeoff" else 0), name
    assert codes == [0] * len(commands)
