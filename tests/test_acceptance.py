"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Every test prints exactly one PASS/FAIL line (criteria with a documented
analytic contradiction are marked strict-xfail and stay visible as such).
Tolerances and runtime budgets are asserted, not aspirational.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_positive_matrix
from oracles import grid_if_and_uf

from fairrec.analytic import MisestSpec, TwoTypeSpec, misest_solution, two_type_pof_curve, two_type_solution
from fairrec.core import FairnessMeasure, MeasureKind, UtilityMatrix, item_utility_vector
from fairrec.optimizer import (
    Scope,
    TieBreak,
    compute_if_star,
    compute_uf_star,
    price_of_fairness,
    price_of_misestimation,
    reduce_by_types,
    tradeoff_sweep,
)
from fairrec.populations import _round_half_up, gen_homogeneous, gen_misestimation, gen_two_type


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def decreasing_vector(rng, n: int) -> np.ndarray:
    return np.cumsum(rng.uniform(0.05, 1.0, size=n))[::-1].copy()


def test_criterion_01_unconstrained_optimum_is_perfect_and_deterministic():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_value_gap = 0.0
    worst_favorite_mass = 1.0
    for _ in range(100):
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 31))
        w = UtilityMatrix(random_positive_matrix(rng, m, n))
        res = compute_uf_star(w, 0.0)
        worst_value_gap = max(worst_value_gap, abs(res.value - 1.0))
        favorites = np.argmax(w.values, axis=1)
        mass = res.policy.rows[np.arange(m), favorites]
        worst_favorite_mass = min(worst_favorite_mass, float(mass.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_value_gap < 1e-9 and worst_favorite_mass > 1.0 - 1e-9 and elapsed < 10.0
    report(
        "criterion 1: unconstrained optimum is 1 with favorite-item policies",
        ok,
        f"max |UF-1| = {worst_value_gap:.2e}, min favorite mass = {worst_favorite_mass:.12f}, {elapsed:.2f}s",
    )


def test_criterion_02_item_optimum_equalizes_item_utilities():
    rng = np.random.default_rng(1002)
    instances = [
        gen_two_type(np.array([3.0, 2.0, 1.0]), 0.5, 10),
        gen_homogeneous(np.array([0.9, 0.1]), 6),
        gen_misestimation(np.array([3.0, 2.0, 1.0]), 0.4, 10, seed=0).w_hat,
    ]
    for _ in range(30):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(2, 8))
        instances.append(UtilityMatrix(random_positive_matrix(rng, m, n)))
    worst = 0.0
    for w in instances:
        res = compute_if_star(w)
        i_vals = item_utility_vector(res.policy, w)
        worst = max(worst, float(i_vals.max() - i_vals.min()))
    report(
        "criterion 2: all items collect equal utility at the item optimum",
        worst < 1e-6,
        f"max spread = {worst:.2e} over {len(instances)} instances",
    )


def test_criterion_03_closed_form_matches_lp_across_populations():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    alphas = np.round(np.arange(0.05, 0.951, 0.05), 10)
    worst_if = 0.0
    worst_uf = 0.0
    cases = 0
    for n in range(2, 13):
        v = decreasing_vector(rng, n)
        for alpha in alphas:
            sol = two_type_solution(TwoTypeSpec(v, float(alpha)))
            w = gen_two_type(v, float(alpha), 20)
            worst_if = max(worst_if, abs(compute_if_star(w).value - sol.if_star))
            worst_uf = max(worst_uf, abs(compute_uf_star(w, 1.0).value - sol.uf1))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst_if < 1e-6 and worst_uf < 1e-6 and elapsed < 60.0
    report(
        "criterion 3: pivot closed form equals the LP across the alpha grid",
        ok,
        f"{cases} cases, max |dIF| = {worst_if:.2e}, max |dUF| = {worst_uf:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_worked_instance_exact_values():
    v = np.array([3.0, 2.0, 1.0])
    sol = two_type_solution(TwoTypeSpec(v, 0.5))
    analytic_ok = (
        abs(sol.if_star - 3 / 7) < 1e-9
        and np.allclose(sol.x, [4 / 7, 3 / 7, 0], atol=1e-9)
        and np.allclose(sol.y, [0, 3 / 7, 4 / 7], atol=1e-9)
        and abs(sol.uf1 - 6 / 7) < 1e-9
        and abs(sol.pof - 1 / 7) < 1e-9
    )
    w = gen_two_type(v, 0.5, 10)
    res1 = compute_uf_star(w, 1.0, tie_break=TieBreak.CANONICAL)
    lp_ok = (
        abs(compute_if_star(w).value - 3 / 7) < 1e-6
        and abs(res1.value - 6 / 7) < 1e-6
        and np.allclose(res1.rows_by_type[0], [4 / 7, 3 / 7, 0], atol=1e-6)
        and np.allclose(res1.rows_by_type[1], [0, 3 / 7, 4 / 7], atol=1e-6)
        and abs(price_of_fairness(w) - 1 / 7) < 1e-6
    )
    report(
        "criterion 4: worked three-item instance reproduces exactly",
        analytic_ok and lp_ok,
        f"IF* = {compute_if_star(w).value:.9f}, UF*(1) = {res1.value:.9f}",
    )


def test_criterion_05_price_curve_is_v_shaped_and_lp_consistent():
    rng = np.random.default_rng(1005)
    alphas = np.round(np.arange(0.05, 0.951, 0.05), 10)
    half = int(np.where(alphas == 0.5)[0][0])
    worst_shape = 0.0
    worst_lp = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        v = decreasing_vector(rng, n)
        curve = two_type_pof_curve(v, alphas)
        pof = curve[:, 4]
        worst_shape = max(worst_shape, float(np.diff(pof[: half + 1]).max(initial=-np.inf)))
        worst_shape = max(worst_shape, float(-np.diff(pof[half:]).max(initial=-np.inf)))
        for alpha, want in zip(alphas, pof):
            w = gen_two_type(v, float(alpha), 20)
            lp_pof = price_of_fairness(w)
            worst_lp = max(worst_lp, abs(lp_pof - want))
    ok = worst_shape < 1e-9 and worst_lp < 1e-6
    report(
        "criterion 5: misalignment price falls toward balance and matches the LP",
        ok,
        f"max shape violation = {worst_shape:.2e}, max |LP - analytic| = {worst_lp:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="a homogeneous two-item population has price (1-2e)/(2-2e), which is "
    "strictly below 1/2 for every e > 0; the 1/2 figure mixes normalizations",
)
def test_criterion_06a_homogeneous_two_item_price_is_half():
    prices = [
        price_of_fairness(gen_homogeneous(np.array([1.0 - eps, eps]), 6))
        for eps in (0.05, 0.1, 0.2)
    ]
    ok = all(abs(p - 0.5) < 1e-6 for p in prices)
    report(
        "criterion 6a: homogeneous two-item price equals 1/2",
        ok,
        "prices = " + ", ".join(f"{p:.6f}" for p in prices),
    )


def test_criterion_06b_balanced_diverse_two_item_price_is_zero():
    worst = 0.0
    for v in (np.array([0.9, 0.1]), np.array([2.0, 1.0]), np.array([5.0, 4.0])):
        w = gen_two_type(v, 0.5, 20)
        worst = max(worst, abs(price_of_fairness(w)))
    report(
        "criterion 6b: balanced two-type two-item population pays nothing",
        worst < 1e-6,
        f"max |price| = {worst:.2e}",
    )


def test_criterion_07_recognized_majority_starves_extreme_items():
    rng = np.random.default_rng(1007)
    m = 20
    analytic_ok = True
    worst_lp = 0.0
    lp_cases = 0
    for n in range(3, 11):
        v = decreasing_vector(rng, n)
        for beta in np.arange(1.0 / n + 0.02, 0.451, 0.05):
            beta = float(beta)
            sol = misest_solution(MisestSpec(v, beta))
            analytic_ok &= sol.z[0] == 0.0 and sol.z[-1] == 0.0
            # the generator rounds beta to whole users; follow it on the LP path
            nk = _round_half_up(beta * m)
            beta_real = nk / m
            if beta_real <= 1.0 / n or m - 2 * nk < 1:
                continue
            data = gen_misestimation(v, beta, m, seed=0)
            red = reduce_by_types(data.w_hat)
            cold_row = red.user_to_type[data.misestimated[0]]
            res = compute_uf_star(data.w_hat, 1.0, tie_break=TieBreak.CANONICAL)
            z = res.rows_by_type[cold_row]
            worst_lp = max(worst_lp, float(z[0]), float(z[-1]))
            lp_cases += 1
    ok = analytic_ok and worst_lp < 1e-6
    report(
        "criterion 7: averaged users never see the extreme items",
        ok,
        f"analytic zeros exact, LP max end mass = {worst_lp:.2e} over {lp_cases} cases",
    )


def test_criterion_08_misestimation_price_can_approach_one():
    # one dominant item, the rest worth at most eps/n of it
    eps = 0.1
    v = np.array([1.0, 0.02, 0.015, 0.01, 0.005])
    assert v[1] <= v[0] * eps / v.size
    data = gen_misestimation(v, 0.4, 10, seed=0)
    pom1 = price_of_misestimation(
        data.w, data.w_hat, [1.0], Scope.MISESTIMATED_GROUP, tie_break=TieBreak.CANONICAL
    )[0]
    pom0 = price_of_misestimation(
        data.w, data.w_hat, [0.0], Scope.MISESTIMATED_GROUP, tie_break=TieBreak.CANONICAL
    )[0]
    ok = pom1 > 1.0 - eps and pom0 <= 0.5
    report(
        "criterion 8: fairness constraints amplify misestimation damage",
        ok,
        f"price at full fairness = {pom1:.6f}, unconstrained = {pom0:.6f}",
    )


def test_criterion_09_item_optimum_vertices_are_sparse():
    rng = np.random.default_rng(1009)
    ok = True
    worst = ""
    for _ in range(50):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        counts = rng.integers(1, 6, size=k)
        wt = random_positive_matrix(rng, k, n)
        w = UtilityMatrix(np.repeat(wt, counts, axis=0))
        res = compute_if_star(w)
        if res.lp_solution is None or not res.lp_solution.is_vertex:
            ok = False
            worst = "no vertex solution"
            break
        nonzeros = int((res.lp_solution.point[: k * n] > 1e-9).sum())
        if nonzeros > n + k - 1:
            ok = False
            worst = f"{nonzeros} nonzeros with n = {n}, types = {k}"
            break
    report(
        "criterion 9: vertex item optima use at most items + types - 1 pairs",
        ok,
        worst or "50 instances within the sparsity bound",
    )


def test_criterion_10_tradeoff_curves_are_monotone_and_feasible():
    rng = np.random.default_rng(1010)
    gammas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    measures = [
        FairnessMeasure(MeasureKind.MAX_MIN),
        FairnessMeasure(MeasureKind.SUM_K_MIN, 3),
        FairnessMeasure(MeasureKind.NASH_WELFARE),
    ]
    worst_mono = 0.0
    worst_feas = 0.0
    for _ in range(10):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(3, 7))
        w = UtilityMatrix(random_positive_matrix(rng, m, n))
        for measure in measures:
            curve = tradeoff_sweep(w, gammas, measure=measure)
            uf = np.array([r.uf_achieved for r in curve.rows])
            worst_mono = max(worst_mono, float(np.diff(uf).max(initial=-np.inf)))
            if measure.kind is not MeasureKind.NASH_WELFARE:
                for r in curve.rows:
                    worst_feas = max(worst_feas, r.gamma * curve.if_star - r.if_achieved)
    ok = worst_mono < 1e-6 and worst_feas < 1e-6
    report(
        "criterion 10: user fairness never rises and targets stay satisfied",
        ok,
        f"max uf increase = {worst_mono:.2e}, max target shortfall = {worst_feas:.2e}",
    )


def test_criterion_11_grid_search_confirms_micro_instances():
    t0 = time.perf_counter()
    cases = [
        (np.array([[3.0, 2.0, 1.0]]), np.array([4])),
        (np.array([[0.9, 0.1]]), np.array([3])),
        (np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]]), np.array([5, 5])),
        (np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([1, 1])),
        (np.array([[5.0, 1.0, 0.5], [1.0, 4.0, 2.0]]), np.array([2, 3])),
        (np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([3, 1])),
    ]
    worst = 0.0
    for wt, counts in cases:
        w = UtilityMatrix(np.repeat(wt, counts, axis=0))
        _, uf_grid = grid_if_and_uf(wt, counts, step=0.01)
        uf_solver = compute_uf_star(w, 1.0).value
        worst = max(worst, abs(uf_solver - uf_grid))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-2 and elapsed < 30.0
    report(
        "criterion 11: pipeline matches dense grid search on micro instances",
        ok,
        f"max |solver - grid| = {worst:.4f}, {elapsed:.1f}s",
    )
