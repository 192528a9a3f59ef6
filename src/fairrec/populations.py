"""Synthetic population generators for the structured experiments.

All generators are deterministic given their arguments.  The misestimation
generator's seed only permutes row order; the multiset of rows never
depends on it.  Each population is a ``UtilityMatrix`` of its few type
rows and one type id per user, so none holds an m x n array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _check_values
from .core import UtilityMatrix


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def gen_homogeneous(v, m: int) -> UtilityMatrix:
    """m users who all share the value vector v."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or np.any(v <= 0):
        raise ValueError("v must be a 1-D strictly positive value vector")
    if m < 1:
        raise ValueError(f"population size must be at least 1, got {m}")
    return UtilityMatrix(v[None, :], type_of=np.zeros(m, dtype=int))


def gen_two_type(v, alpha: float, m: int) -> UtilityMatrix:
    """Mirrored two-type population: round-half-up(alpha*m) rows of v, the rest reversed."""
    v = _check_values(v)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if m < 2:
        raise ValueError(f"a two-type population needs at least 2 users, got {m}")
    n1 = _round_half_up(alpha * m)
    if n1 < 1 or n1 > m - 1:
        raise ValueError(
            f"alpha = {alpha} with m = {m} rounds to an empty type ({n1} vs {m - n1} users)"
        )
    type_of = (np.arange(m) >= n1).astype(int)
    return UtilityMatrix(np.stack([v, v[::-1]]), type_of=type_of)


@dataclass(frozen=True)
class MisestimationData:
    """True and estimated matrices plus the indices of misestimated users."""

    w: UtilityMatrix
    w_hat: UtilityMatrix
    misestimated: np.ndarray


def gen_misestimation(v, beta: float, m: int, seed: int = 0) -> MisestimationData:
    """Population where a share of users is only known up to the type average.

    round-half-up(beta*m) users are recognized as each of the two mirrored
    types.  The remaining users' estimated rows are the palindromic average
    (v_j + v_{n-j+1}) / 2; their true rows alternate deterministically
    between the two types, starting with v.  The seed permutes row order
    and nothing else.  Both matrices are typed by the rows v, v reversed and
    their average: ``w`` by true type, ``w_hat`` by estimated type.
    """
    v = _check_values(v)
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie strictly in (0, 1/2), got {beta}")
    nk = _round_half_up(beta * m)
    cold = m - 2 * nk
    if nk < 1:
        raise ValueError(f"beta = {beta} with m = {m} rounds to zero recognized users per type")
    if cold < 1:
        raise ValueError(f"beta = {beta} with m = {m} leaves no misestimated users")
    rows = np.stack([v, v[::-1], 0.5 * (v + v[::-1])])
    true_type = np.concatenate([np.repeat([0, 1], nk), np.arange(cold) % 2])
    est_type = np.concatenate([np.repeat([0, 1], nk), np.full(cold, 2)])

    perm = np.random.default_rng(seed).permutation(m)
    true_type, est_type = true_type[perm], est_type[perm]
    return MisestimationData(
        w=UtilityMatrix(rows, type_of=true_type),
        w_hat=UtilityMatrix(rows, type_of=est_type),
        misestimated=np.flatnonzero(est_type == 2),
    )

