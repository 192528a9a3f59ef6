"""Closed-form two-type and misestimation optima: exact values and structure."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairrec.analytic import (
    MisestSpec,
    TwoTypeSpec,
    misest_solution,
    q_weights,
    two_type_pof_curve,
    two_type_solution,
)

# strictly decreasing positive vectors via reversed positive partial sums
decreasing_values = st.lists(
    st.floats(0.05, 2.0), min_size=2, max_size=10
).map(lambda incs: np.cumsum(incs)[::-1].copy())

alphas = st.floats(0.02, 0.98)


def test_worked_instance_closed_form():
    sol = two_type_solution(TwoTypeSpec(np.array([3.0, 2.0, 1.0]), 0.5))
    assert sol.t == 2
    assert np.allclose(sol.q, [0.75, 0.5, 0.25], atol=1e-15)
    assert abs(sol.if_star - 3.0 / 7.0) < 1e-12
    assert np.allclose(sol.x, [4 / 7, 3 / 7, 0.0], atol=1e-12)
    assert np.allclose(sol.y, [0.0, 3 / 7, 4 / 7], atol=1e-12)
    assert abs(sol.uf1 - 6.0 / 7.0) < 1e-12
    assert abs(sol.pof - 1.0 / 7.0) < 1e-12


@given(decreasing_values, alphas)
def test_share_weights_monotone_in_item_and_alpha(v, alpha):
    q = q_weights(TwoTypeSpec(v, alpha))
    assert np.all(np.diff(q) < 0)
    q_up = q_weights(TwoTypeSpec(v, min(alpha + 0.01, 0.985)))
    assert np.all(q_up >= q - 1e-15)


@given(decreasing_values.filter(lambda v: v.size % 2 == 1), alphas)
def test_middle_item_share_equals_alpha(v, alpha):
    q = q_weights(TwoTypeSpec(v, alpha))
    assert abs(q[v.size // 2] - alpha) < 1e-12


@given(decreasing_values, st.floats(0.05, 0.5))
def test_mirrored_population_swaps_policies(v, alpha):
    sol = two_type_solution(TwoTypeSpec(v, alpha))
    mirror = two_type_solution(TwoTypeSpec(v, 1.0 - alpha))
    assert abs(sol.if_star - mirror.if_star) < 1e-12
    assert abs(sol.uf1 - mirror.uf1) < 1e-12
    assert np.allclose(sol.x, mirror.y[::-1], atol=1e-9)
    assert np.allclose(sol.y, mirror.x[::-1], atol=1e-9)


@given(decreasing_values)
def test_pivot_weakly_increases_with_alpha(v):
    grid = np.linspace(0.05, 0.95, 19)
    pivots = [two_type_solution(TwoTypeSpec(v, a)).t for a in grid]
    assert all(t2 >= t1 for t1, t2 in zip(pivots, pivots[1:]))


@given(decreasing_values)
def test_item_optimum_nondecreasing_toward_balance(v):
    grid = np.linspace(0.05, 0.5, 10)
    vals = [two_type_solution(TwoTypeSpec(v, a)).if_star for a in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@given(decreasing_values, alphas)
def test_policies_balance_every_item_and_respect_support(v, alpha):
    sol = two_type_solution(TwoTypeSpec(v, alpha))
    balance = sol.q * sol.x + (1.0 - sol.q) * sol.y
    assert np.allclose(balance, sol.if_star, atol=1e-9)
    assert abs(sol.x.sum() - 1.0) < 1e-9 and np.all(sol.x >= -1e-12)
    assert abs(sol.y.sum() - 1.0) < 1e-9 and np.all(sol.y >= -1e-12)
    # supports meet only at the pivot
    assert np.all(sol.x[sol.t:] == 0.0)
    assert np.all(sol.y[: sol.t - 1] == 0.0)


@given(decreasing_values, st.floats(0.02, 0.5))
def test_pivot_stays_left_of_middle_for_minority_v_type(v, alpha):
    t = two_type_solution(TwoTypeSpec(v, alpha)).t
    assert t <= (v.size + 1) // 2 + (1 if v.size % 2 == 0 else 0)


def test_tied_pivot_candidates_resolve_to_smaller_index():
    # alpha = 1/2 with n = 2 makes both candidates describe the same optimum
    assert two_type_solution(TwoTypeSpec(np.array([2.0, 1.0]), 0.5)).t == 1


def test_pof_curve_rows_and_symmetry():
    curve = two_type_pof_curve(np.array([3.0, 2.0, 1.0]), [0.25, 0.5, 0.75])
    assert curve.shape == (3, 5)
    assert abs(curve[0, 4] - curve[2, 4]) < 1e-12
    assert curve[1, 4] <= curve[0, 4] + 1e-12


def test_value_vector_validation():
    with pytest.raises(ValueError):
        TwoTypeSpec(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        TwoTypeSpec(np.array([2.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        TwoTypeSpec(np.array([2.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        MisestSpec(np.array([2.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        MisestSpec(np.array([2.0, 1.0]), 0.0)


def test_misest_worked_instance_equalizes_items():
    spec = MisestSpec(np.array([3.0, 2.0, 1.0]), 0.4)
    sol = misest_solution(spec)
    q = spec.v / (spec.v + spec.v[::-1])
    i_vals = 2 * spec.beta * (q * sol.x + (1 - q) * sol.x[::-1]) + (1 - 2 * spec.beta) * sol.z
    assert np.allclose(i_vals, sol.lam, atol=1e-9)
    assert abs(sol.x.sum() - 1) < 1e-9 and abs(sol.z.sum() - 1) < 1e-9


@given(decreasing_values.filter(lambda v: v.size >= 3), st.floats(0.05, 0.45))
def test_misest_solution_structure(v, beta):
    spec = MisestSpec(v, beta)
    sol = misest_solution(spec)
    n = v.size
    # the averaged users' policy is palindromic and supported on the middle block
    assert np.allclose(sol.z, sol.z[::-1], atol=1e-9)
    assert np.all(sol.z[: sol.t - 1] == 0.0) and np.all(sol.z[n - sol.t + 1:] == 0.0)
    assert np.all(sol.x[sol.t:] == 0.0)
    assert sol.t <= (n + 1) // 2
    q = v / (v + v[::-1])
    i_vals = 2 * beta * (q * sol.x + (1 - q) * sol.x[::-1]) + (1 - 2 * beta) * sol.z
    assert np.allclose(i_vals, sol.lam, atol=1e-9)


@given(decreasing_values.filter(lambda v: v.size >= 3), st.floats(0.05, 0.45))
def test_misest_starvation_exactly_when_recognized_mass_dominates(v, beta):
    spec = MisestSpec(v, beta)
    sol = misest_solution(spec)
    if spec.starves_extremes:
        assert sol.z[0] == 0.0 and sol.z[-1] == 0.0
    assert sol.z[0] == 0.0 or sol.t == 1


@given(decreasing_values.filter(lambda v: v.size >= 3), st.floats(0.05, 0.45))
def test_misest_first_pivot_matches_value_ratio_threshold(v, beta):
    # the innermost pivot occurs exactly when the tail value is large enough
    n = v.size
    threshold = (n - 2) / (1.0 / (2 * beta) - 1.0) - 1.0
    lhs = v[-1] / v[0]
    if abs(lhs - threshold) < 1e-9:
        return
    assert (misest_solution(MisestSpec(v, beta)).t == 1) == (lhs >= threshold)


def test_misest_mirror_type_plays_reversed_policy():
    sol = misest_solution(MisestSpec(np.array([5.0, 2.0, 1.5, 1.0]), 0.3))
    assert np.array_equal(sol.y, sol.x[::-1])
