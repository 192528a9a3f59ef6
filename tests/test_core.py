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
    item_fairness,
    item_utility_vector,
    measure_value,
    user_fairness,
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


def test_matrix_rejects_inconsistent_type_rows():
    values = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        UtilityMatrix(values, type_of=np.array([0, 0]))
    # types 7 and 3 are both inconsistent, 5 is not; the message names 3
    values = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [3.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    for type_of in ([7, 5, 7, 3, 5, 3], [3, 5, 3, 7, 5, 7]):
        with pytest.raises(ValueError, match=r"users of type 3 do not"):
            UtilityMatrix(values, type_of=np.array(type_of))
    # the per-type loop the check replaced is the reference
    rng = np.random.default_rng(0)
    for _ in range(30):
        type_of = rng.integers(0, 6, 20)
        values = rng.uniform(1.0, 2.0, (6, 3))[type_of]
        values[rng.integers(0, 20, rng.integers(0, 3)), 0] = 5.0
        bad = [t for t in np.unique(type_of) if np.any(values[type_of == t] != values[type_of == t][0])]
        if bad:
            with pytest.raises(ValueError, match=rf"users of type {bad[0]} do not"):
                UtilityMatrix(values, type_of=type_of)
        else:
            UtilityMatrix(values, type_of=type_of)


def test_from_types_equals_the_checked_constructor():
    rng = np.random.default_rng(1)
    for k, m in ((1, 1), (3, 50), (6, 20)):
        rows, type_of = rng.uniform(0.5, 2.0, (k, 4)), rng.integers(0, k, m)
        w, ref = UtilityMatrix.from_types(rows, type_of), UtilityMatrix(rows[type_of], type_of=type_of)
        for a, b in ((w.values, ref.values), (w.type_of, ref.type_of)):
            assert (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (b.dtype, b.shape, b.tobytes(), False)
    labelled = UtilityMatrix.from_types(rows, type_of, tuple("abcdefghijklmnopqrst"), tuple("wxyz"))
    assert (labelled.user_labels, labelled.item_labels) == (tuple("abcdefghijklmnopqrst"), tuple("wxyz"))
    with pytest.raises(ValueError, match="user_labels"):
        UtilityMatrix.from_types(rows, type_of, ("a",))
    with pytest.raises(ValueError, match="item_labels"):
        UtilityMatrix.from_types(rows, type_of, item_labels=("a",))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_from_types_rejects_bad_type_rows(bad):
    rows = np.array([[1.0, 2.0], [2.0, 1.0]])
    rows[1, 0] = bad
    with pytest.raises(ValueError, match="row 1, column 0"):
        UtilityMatrix.from_types(rows, [0, 0, 0])


@pytest.mark.parametrize("type_of", [[0, 2, 1], [0, -1], [], [[0, 1]]])
def test_from_types_rejects_ids_outside_the_type_rows(type_of):
    with pytest.raises(ValueError, match="type_of"):
        UtilityMatrix.from_types(np.array([[1.0, 2.0], [2.0, 1.0]]), type_of)


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


def test_fairness_wrappers_match_vector_minima():
    rng = np.random.default_rng(7)
    w = UtilityMatrix(rng.uniform(0.1, 2.0, size=(4, 3)))
    policy = random_policy(rng, 4, 3)
    assert user_fairness(policy, w) == user_utility_vector(policy, w).min()
    assert item_fairness(policy, w) == item_utility_vector(policy, w).min()


def test_shape_mismatch_raises():
    w = UtilityMatrix(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        user_utility_vector(uniform_policy(2, 2), w)
