"""Normalized utilities, fairness measures, and their invariances."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairrec.core import (
    MAX_MIN,
    FairnessMeasure,
    ItemUtilityModel,
    MeasureKind,
    RecommendationPolicy,
    UtilityMatrix,
    item_utility_vector,
    measure_value,
    user_utility_vector,
)

matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    elements=st.floats(0.05, 10.0),
)


def uniform_policy(m, n):
    return RecommendationPolicy(np.full((m, n), 1.0 / n))


def random_policy(rng, m, n):
    rows = rng.uniform(0.0, 1.0, size=(m, n)) + 1e-3
    return RecommendationPolicy(rows / rows.sum(axis=1, keepdims=True))


def test_uniform_policy_user_utility_on_321():
    w = UtilityMatrix(np.array([[3.0, 2.0, 1.0]]))
    u = user_utility_vector(uniform_policy(1, 3), w)
    assert np.allclose(u, 2.0 / 3.0, atol=1e-15)


def test_even_split_user_utility_on_09_01():
    w = UtilityMatrix(np.array([[0.9, 0.1]]))
    u = user_utility_vector(uniform_policy(1, 2), w)[0]
    assert abs(u - 5.0 / 9.0) < 1e-15


def test_pure_popularity_item_utilities_are_recommendation_mass():
    rng = np.random.default_rng(3)
    w = UtilityMatrix(rng.uniform(0.2, 5.0, size=(6, 4)))
    i = item_utility_vector(uniform_policy(6, 4), w, ItemUtilityModel(1.0))
    assert np.allclose(i, 0.25, atol=1e-15)


def test_sum_two_smallest_example():
    val = measure_value(np.array([0.2, 0.5, 0.9]), FairnessMeasure(MeasureKind.SUM_K_MIN, 2))
    assert abs(val - 0.7) < 1e-15


@given(matrices, st.integers(0, 2**32 - 1))
def test_accounting_identity_between_sides(values, seed):
    # Total collected utility agrees whether tallied by items or by users.
    w = UtilityMatrix(values)
    policy = random_policy(np.random.default_rng(seed), w.m, w.n)
    lhs = (item_utility_vector(policy, w) * values.sum(axis=0)).sum()
    rhs = (user_utility_vector(policy, w) * values.max(axis=1)).sum()
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


@given(matrices, st.integers(0, 2**32 - 1))
def test_user_utilities_invariant_to_row_scaling(values, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 3.0, size=(values.shape[0], 1))
    policy = random_policy(rng, *values.shape)
    u1 = user_utility_vector(policy, UtilityMatrix(values))
    u2 = user_utility_vector(policy, UtilityMatrix(values * scale))
    assert np.allclose(u1, u2, atol=1e-12)


@given(matrices, st.integers(0, 2**32 - 1))
def test_item_shares_invariant_to_column_scaling(values, seed):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 3.0, size=(1, values.shape[1]))
    policy = random_policy(rng, *values.shape)
    i1 = item_utility_vector(policy, UtilityMatrix(values))
    i2 = item_utility_vector(policy, UtilityMatrix(values * scale))
    assert np.allclose(i1, i2, atol=1e-12)


@given(
    hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0.01, 1.0)),
)
def test_sum_1_min_equals_maxmin(values):
    k1 = measure_value(values, FairnessMeasure(MeasureKind.SUM_K_MIN, 1))
    assert abs(k1 - measure_value(values, MAX_MIN)) < 1e-15


@given(
    hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(0.01, 1.0)),
    st.data(),
)
def test_weighted_measures_match_expanded_multiset(values, data):
    counts = np.array(
        data.draw(st.lists(st.integers(1, 4), min_size=values.size, max_size=values.size))
    )
    expanded = np.repeat(values, counts)
    for measure in (
        MAX_MIN,
        FairnessMeasure(MeasureKind.NASH_WELFARE),
        FairnessMeasure(MeasureKind.SUM_K_MIN, min(3, int(counts.sum()))),
    ):
        weighted = measure_value(values, measure, weights=counts)
        plain = measure_value(expanded, measure)
        assert abs(weighted - plain) < 1e-12 * (1.0 + abs(plain))


def test_nash_measure_rejects_zero_utilities():
    with pytest.raises(ValueError):
        measure_value(np.array([0.5, 0.0]), FairnessMeasure(MeasureKind.NASH_WELFARE))


def test_sum_k_min_rejects_oversized_k():
    with pytest.raises(ValueError):
        measure_value(np.array([0.5, 0.6]), FairnessMeasure(MeasureKind.SUM_K_MIN, 3))


def test_measure_rejects_empty_vector():
    with pytest.raises(ValueError):
        measure_value(np.array([]), MAX_MIN)


def test_matrix_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        UtilityMatrix(np.array([[1.0, -2.0]]))


def test_typed_matrix_equals_the_checked_constructor():
    rng = np.random.default_rng(1)
    for k, m in ((1, 1), (3, 50), (6, 20)):
        rows, type_of = rng.uniform(0.5, 2.0, (k, 4)), rng.integers(0, k, m)
        w = UtilityMatrix(rows, type_of=type_of)
        for a, b in ((w.values, rows[type_of]), (w.type_of, type_of)):
            assert (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (b.dtype, b.shape, b.tobytes(), False)
    labelled = UtilityMatrix(rows, tuple("abcdefghijklmnopqrst"), tuple("wxyz"), type_of=type_of)
    assert (labelled.user_labels, labelled.item_labels) == (tuple("abcdefghijklmnopqrst"), tuple("wxyz"))
    with pytest.raises(ValueError, match="user_labels"):
        UtilityMatrix(rows, ("a",), type_of=type_of)
    with pytest.raises(ValueError, match="item_labels"):
        UtilityMatrix(rows, item_labels=("a",), type_of=type_of)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_typed_matrix_rejects_bad_type_rows(bad):
    rows = np.array([[1.0, 2.0], [2.0, 1.0]])
    rows[1, 0] = bad
    with pytest.raises(ValueError, match="row 1, column 0"):
        UtilityMatrix(rows, type_of=[0, 0, 0])


@pytest.mark.parametrize("type_of", [[0, 2, 1], [0, -1], [], [[0, 1]], [0.5, 1.7]])
def test_typed_matrix_rejects_ids_outside_the_type_rows(type_of):
    with pytest.raises(ValueError, match="type_of"):
        UtilityMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), type_of=type_of)


def test_untyped_matrix_groups_equal_rows_in_order_of_first_occurrence():
    values = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    w = UtilityMatrix(values)
    assert w.rows.tolist() == [[2.0, 1.0], [1.0, 2.0], [3.0, 3.0]]
    assert w.type_of.tolist() == [0, 1, 0, 2]
    assert (w.m, w.n) == (4, 2) and np.array_equal(w.values, values)
    assert not (w.rows.flags.writeable or w.type_of.flags.writeable or w.values.flags.writeable)


def test_matrices_compare_by_identity():
    w = UtilityMatrix([[1.0, 2.0]])
    assert w == w
    assert not UtilityMatrix([[1.0, 2.0]]) == UtilityMatrix([[1.0, 2.0]])


def test_repr_of_a_population_does_not_gather_its_values():
    w = UtilityMatrix([[1.0, 2.0]], type_of=np.zeros(1_000_000, int))
    assert "type_of" in repr(w)
    assert "values" not in vars(w)


def test_policy_rejects_bad_rows():
    with pytest.raises(ValueError):
        RecommendationPolicy(np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        RecommendationPolicy(np.array([[1.2, -0.2]]))


def test_from_solver_cleans_tiny_negatives():
    rows = np.array([[1.0 + 3e-12, -3e-12]])
    policy = RecommendationPolicy.from_solver(rows)
    assert policy.rows[0, 1] == 0.0
    assert abs(policy.rows[0].sum() - 1.0) < 1e-15


def test_item_model_extremes():
    w = UtilityMatrix(np.array([[0.3, 0.8], [0.5, 0.1]]))
    policy = RecommendationPolicy(np.array([[0.25, 0.75], [1.0, 0.0]]))
    by_utility = (policy.rows * w.values).sum(axis=0) / w.values.sum(axis=0)
    assert np.array_equal(item_utility_vector(policy, w, ItemUtilityModel(0.0)), by_utility)
    assert np.allclose(item_utility_vector(policy, w, ItemUtilityModel(1.0)), policy.rows.mean(axis=0))
    with pytest.raises(ValueError):
        ItemUtilityModel(1.5)


def test_shape_mismatch_raises():
    w = UtilityMatrix(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        user_utility_vector(uniform_policy(2, 2), w)
