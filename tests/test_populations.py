"""Synthetic population generators: determinism, counts, mirror structure."""
import numpy as np
import pytest

from fairrec.populations import (
    gen_homogeneous,
    gen_misestimation,
    gen_two_type,
)

V321 = np.array([3.0, 2.0, 1.0])


def test_homogeneous_rows_and_single_type():
    w = gen_homogeneous(np.array([0.9, 0.1]), 5)
    assert w.values.shape == (5, 2)
    assert np.all(w.values == [0.9, 0.1])
    assert np.all(w.type_of == 0)


def test_two_type_counts_round_half_up():
    w = gen_two_type(V321, 0.25, 10)  # 2.5 rounds up
    assert int((w.type_of == 0).sum()) == 3
    assert np.all(w.values[w.type_of == 1] == V321[::-1])


def test_two_type_rejects_degenerate_split():
    with pytest.raises(ValueError):
        gen_two_type(V321, 0.01, 10)
    with pytest.raises(ValueError):
        gen_two_type(V321, 0.99, 10)
    with pytest.raises(ValueError):
        gen_two_type(V321, 0.5, 1)


def test_generators_are_deterministic():
    a = gen_misestimation(V321, 0.3, 10, seed=42)
    b = gen_misestimation(V321, 0.3, 10, seed=42)
    assert np.array_equal(a.w.values, b.w.values)
    assert np.array_equal(a.w_hat.values, b.w_hat.values)
    assert np.array_equal(a.misestimated, b.misestimated)
    c = gen_misestimation(V321, 0.3, 10, seed=43)
    assert not np.array_equal(a.w.values, c.w.values)


def test_seed_only_permutes_rows():
    a = gen_misestimation(V321, 0.3, 10, seed=0)
    b = gen_misestimation(V321, 0.3, 10, seed=99)
    sort_rows = lambda m: m[np.lexsort(m.T)]
    assert np.array_equal(sort_rows(a.w.values), sort_rows(b.w.values))
    assert np.array_equal(sort_rows(a.w_hat.values), sort_rows(b.w_hat.values))
    assert a.misestimated.size == b.misestimated.size


def test_misestimation_worked_small_population():
    # beta = 0.25, m = 4: one recognized user per type, two averaged users
    data = gen_misestimation(V321, 0.25, 4, seed=0)
    avg = 0.5 * (V321 + V321[::-1])
    assert data.misestimated.size == 2
    for i in data.misestimated:
        assert np.array_equal(data.w_hat.values[i], avg)
        assert np.array_equal(data.w.values[i], V321) or np.array_equal(
            data.w.values[i], V321[::-1]
        )
    # true rows of the averaged users alternate between the two types
    trues = data.w.values[data.misestimated]
    assert np.array_equal(trues[0], V321) != np.array_equal(trues[1], V321) or np.array_equal(
        np.sort(data.w.type_of[data.misestimated]), [0, 1]
    )


def test_misestimation_counts_and_types():
    data = gen_misestimation(V321, 0.4, 10, seed=3)
    counts = np.bincount(data.w_hat.type_of)
    assert np.array_equal(counts, [4, 4, 2])
    assert data.misestimated.size == 2
    true_counts = np.bincount(data.w.type_of)
    assert np.array_equal(true_counts, [5, 5])


def test_estimated_cold_rows_are_palindromic():
    data = gen_misestimation(np.array([5.0, 3.0, 2.0, 1.0]), 0.3, 10, seed=1)
    cold = data.w_hat.values[data.misestimated]
    assert np.allclose(cold, cold[:, ::-1], atol=0)


def test_misestimation_rejects_degenerate_shares():
    with pytest.raises(ValueError):
        gen_misestimation(V321, 0.02, 10)  # rounds to zero recognized users
    with pytest.raises(ValueError):
        gen_misestimation(V321, 0.45, 10)  # rounds to zero averaged users
    with pytest.raises(ValueError):
        gen_misestimation(V321, 0.5, 10)


def test_mirrored_alphas_generate_mirrored_populations():
    w1 = gen_two_type(V321, 0.3, 10)
    w2 = gen_two_type(V321, 0.7, 10)
    sort_rows = lambda m: m[np.lexsort(m.T)]
    assert np.array_equal(sort_rows(w1.values), sort_rows(w2.values[:, ::-1]))
