"""Utility matrices, recommendation policies, and normalized fairness measures.

A recommendation instance is an m x n matrix of strictly positive utilities.
Each user's realized utility is normalized by the value of their single best
item; each item's realized utility is normalized by the value it would collect
if it were recommended to every user.  Both sides then live on a common
[0, 1] scale and can be aggregated by the same family of fairness measures.
A matrix is held as its distinct user types: one row per type and one type
id per user.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# Policy rows must sum to one within this tolerance.
ROW_SUM_TOL = 1e-9


class MeasureKind(str, Enum):
    """Aggregation applied to a vector of normalized utilities."""

    MAX_MIN = "maxmin"
    NASH_WELFARE = "nash"
    SUM_K_MIN = "sumkmin"


@dataclass(frozen=True)
class FairnessMeasure:
    """A fairness aggregation: the sum of the ``k`` smallest utilities for
    SUM_K_MIN.  Every other kind sets ``k`` to 1, whatever is passed: max-min
    is the sum of the one smallest, and the LP solvers build it as such."""

    kind: MeasureKind = MeasureKind.MAX_MIN
    k: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, MeasureKind):
            object.__setattr__(self, "kind", MeasureKind(self.kind))
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k) if self.kind is MeasureKind.SUM_K_MIN else 1)


MAX_MIN = FairnessMeasure(MeasureKind.MAX_MIN)


@dataclass(frozen=True)
class ItemUtilityModel:
    """Interpolates item-side utility between popularity and match quality.

    An item recommended to user i collects ``delta + (1 - delta) * w_ij``.
    ``delta = 0`` reproduces the user utility matrix, ``delta = 1`` counts
    raw recommendation probability mass.
    """

    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def first_occurrence(ids) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct integer ``ids`` in order of first occurrence:
    returns the position where each class first occurs and the class of
    every position.  O(len(ids)) when the ids lie in [0, len(ids)), as type
    ids do; other ids are first mapped there by ``np.unique``."""
    ids = np.asarray(ids)
    size = ids.size
    if ids.min() < 0 or ids.max() >= size:
        ids = np.unique(ids, return_inverse=True)[1]
    first = np.full(size, size)
    np.minimum.at(first, ids, np.arange(size))
    first = np.sort(first[first < size])
    rank = np.empty(size, dtype=int)
    rank[ids[first]] = np.arange(first.size)
    return first, rank[ids]


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Strictly positive m x n utilities, held as K type rows and one type id
    per user: user i's row is ``rows[type_of[i]]``.

    Given ``type_of``, ``rows`` are the type rows, and only they are checked.
    Without it each row is one user's, and users whose rows are equal share
    a type, numbered in order of first occurrence.  ``values`` is gathered
    from the type rows when first read, and ``rows_of`` gives some users'
    rows without that gather.  Matrices compare by identity.
    """

    rows: np.ndarray
    user_labels: tuple[str, ...] | None = None
    item_labels: tuple[str, ...] | None = None
    type_of: np.ndarray | None = None

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float, order="C")
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError(f"utility matrix must be 2-D and nonempty, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"non-finite utility at row {bad[0]}, column {bad[1]}")
        if np.any(rows <= 0):
            bad = np.argwhere(rows <= 0)[0]
            raise ValueError(
                f"utilities must be strictly positive; "
                f"entry at row {bad[0]}, column {bad[1]} is {rows[bad[0], bad[1]]}"
            )
        if self.type_of is None:
            # Positive finite rows are equal exactly when their bytes are.
            ids = np.unique(rows.view(np.dtype((np.void, rows[0].nbytes))).ravel(), return_inverse=True)[1]
            first, type_of = first_occurrence(ids)
            rows = rows[first]
        else:
            ids = np.asarray(self.type_of)
            type_of = ids.astype(int)
            if ids.ndim != 1 or ids.size == 0 or np.any(type_of != ids) or not 0 <= ids.min() <= ids.max() < len(rows):
                raise ValueError(f"type_of must be a nonempty vector of integer ids into the {len(rows)} type rows")
        if self.user_labels is not None and len(self.user_labels) != type_of.size:
            raise ValueError("user_labels length does not match the number of rows")
        if self.item_labels is not None and len(self.item_labels) != rows.shape[1]:
            raise ValueError("item_labels length does not match the number of columns")
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "type_of", _freeze(type_of))

    @cached_property
    def values(self) -> np.ndarray:
        return _freeze(self.rows[self.type_of])

    def rows_of(self, users) -> np.ndarray:
        """The utility rows of ``users``, an index array or a slice."""
        return self.rows[self.type_of[users]]

    @property
    def m(self) -> int:
        return self.type_of.size

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class RecommendationPolicy:
    """One probability distribution over items per user (or per type)."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError(f"policy must be 2-D and nonempty, got shape {rows.shape}")
        if np.any(rows < 0) or np.any(rows > 1):
            bad = np.argwhere((rows < 0) | (rows > 1))[0]
            raise ValueError(
                f"policy entries must lie in [0, 1]; "
                f"entry at row {bad[0]}, column {bad[1]} is {rows[bad[0], bad[1]]}"
            )
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"policy row {bad} sums to {sums[bad]}, expected 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "rows", _freeze(rows.copy()))

    @classmethod
    def from_solver(cls, rows: np.ndarray) -> "RecommendationPolicy":
        """Clamp tiny numerical negatives and renormalize exact row sums."""
        rows = np.asarray(rows, dtype=float).copy()
        rows[rows < 0] = 0.0
        sums = rows.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ValueError("solver returned an all-zero policy row")
        return cls(rows / sums)


def _check_pair(policy: RecommendationPolicy, w: UtilityMatrix) -> None:
    if policy.rows.shape != w.values.shape:
        raise ValueError(
            f"policy shape {policy.rows.shape} does not match matrix shape {w.values.shape}"
        )


def user_utility_vector(policy: RecommendationPolicy, w: UtilityMatrix) -> np.ndarray:
    """Normalized expected utility of every user, in [0, 1]."""
    _check_pair(policy, w)
    raw = (policy.rows * w.values).sum(axis=1)
    return raw / w.values.max(axis=1)


def item_utility_vector(
    policy: RecommendationPolicy, w: UtilityMatrix, model: ItemUtilityModel | None = None
) -> np.ndarray:
    """Normalized utility collected by every item, in [0, 1].

    The item side always evaluates on the delta-transformed matrix; the
    denominator is the value the item would collect if recommended to all
    users with probability one.
    """
    model = model or ItemUtilityModel()
    _check_pair(policy, w)
    wi = model.delta + (1.0 - model.delta) * w.values
    return (policy.rows * wi).sum(axis=0) / wi.sum(axis=0)


def measure_value(values: np.ndarray, measure: FairnessMeasure, weights: np.ndarray | None = None) -> float:
    """Aggregate a vector of normalized utilities.

    ``weights`` are integer multiplicities (type counts); MAX_MIN ignores
    them, NASH_WELFARE weights the log terms, SUM_K_MIN repeats the sorted
    values only until the k smallest of the multiset are taken.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty utility vector")
    if measure.kind is MeasureKind.MAX_MIN:
        return float(values.min())
    if measure.kind is MeasureKind.NASH_WELFARE:
        if np.any(values <= 0):
            raise ValueError("Nash welfare is undefined when some normalized utility is 0")
        if weights is None:
            return float(np.log(values).sum())
        return float((np.asarray(weights, dtype=float) * np.log(values)).sum())
    counts = np.ones(values.size, dtype=int) if weights is None else np.asarray(weights, dtype=int)
    order = np.argsort(values, kind="stable")
    taken = np.minimum(np.cumsum(counts[order]), measure.k)
    if taken[-1] < measure.k:
        raise ValueError(f"k = {measure.k} exceeds the {taken[-1]} available utilities")
    return float(np.repeat(values[order], np.diff(taken, prepend=0)).sum())

