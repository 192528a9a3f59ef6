"""Closed-form optima for structured two-type populations.

Two settings admit exact solutions without touching the LP machinery:

* A population split between two mirrored preference types, one ranking the
  items by a strictly decreasing value vector v and the other by its
  reversal.  The item-fairness optimum has a single "pivot" item where the
  two types' supports meet, and every quantity (the optimal equalized item
  utility, the per-type policies, the constrained user-fairness optimum)
  follows from the pivot index.

* The same population observed through a misestimating system: a fraction
  2*beta of users is recognized (beta per type) while the rest look like the
  average of the two types.  The estimated instance has three types whose
  item-fairness optimum is again pivot-structured.

Both solvers scan the pivot candidates, keep those whose policies are
nonnegative (the simplex conditions pin everything else down), and return
the one with the largest equalized item utility.  Uniqueness of the optimum
makes the scan exact; ties between adjacent candidates describe the same
policy and resolve to the smaller pivot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Validity slack for the nonnegativity checks in the pivot scans.
PIVOT_TOL = 1e-12


def _check_values(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("v must be a 1-D value vector")
    if np.any(v <= 0):
        raise ValueError("item values must be strictly positive")
    if np.any(np.diff(v) >= 0):
        raise ValueError("item values must be strictly decreasing")
    return v


@dataclass(frozen=True)
class TwoTypeSpec:
    """Mirrored two-type population: share alpha values items by v, the rest by reversed v."""

    v: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "v", _check_values(self.v))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")

    @property
    def n(self) -> int:
        return self.v.size


@dataclass(frozen=True)
class MisestSpec:
    """Misestimated mirrored population: beta per recognized type, the rest averaged."""

    v: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "v", _check_values(self.v))
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must lie strictly in (0, 1/2), got {self.beta}")

    @property
    def n(self) -> int:
        return self.v.size

    @property
    def starves_extremes(self) -> bool:
        """True when averaged users are provably never shown items 1 and n."""
        return self.beta > 1.0 / self.n


def q_weights(spec: TwoTypeSpec) -> np.ndarray:
    """Type-1 share of item j's collected utility under full participation.

    q_j = alpha v_j / (alpha v_j + (1 - alpha) v_{n-j+1}); strictly
    decreasing in j and strictly increasing in alpha.
    """
    v = spec.v
    a = spec.alpha
    return a * v / (a * v + (1.0 - a) * v[::-1])


@dataclass(frozen=True)
class TwoTypeSolution:
    """Item-fairness optimum of a mirrored two-type instance.

    t is the 1-based pivot item and q the type-1 shares of the item
    utilities (``q_weights``).  x is the policy of the v-ranked type, y of
    the mirrored type.  The policies satisfy q_j x_j + (1 - q_j) y_j =
    if_star for every item.  uf1 is the best worst-case normalized user
    utility attainable while keeping the item side at its optimum, and
    pof = 1 - uf1 is the relative loss against the unconstrained optimum
    (which is always 1).
    """

    t: int
    q: np.ndarray
    if_star: float
    x: np.ndarray
    y: np.ndarray
    uf1: float
    pof: float


def _two_type_candidate(q: np.ndarray, t: int) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Candidate solution with pivot t (1-based); None when outside the simplex."""
    n = q.size
    i = t - 1
    L = float(np.sum(1.0 / q[:i]))
    R = float(np.sum(1.0 / (1.0 - q[i + 1 :])))
    if_star = 1.0 / (1.0 + q[i] * L + (1.0 - q[i]) * R)
    x = np.zeros(n)
    y = np.zeros(n)
    x[:i] = if_star / q[:i]
    x[i] = 1.0 - L * if_star
    y[i + 1 :] = if_star / (1.0 - q[i + 1 :])
    y[i] = 1.0 - R * if_star
    if x[i] < -PIVOT_TOL or y[i] < -PIVOT_TOL:
        return None
    x[i] = max(x[i], 0.0)
    y[i] = max(y[i], 0.0)
    return if_star, x, y


def _pivot_scan(candidates) -> tuple[int, tuple]:
    """The 1-based pivot of the candidate with the largest value, the first of
    values within PIVOT_TOL, and that candidate; None marks an infeasible one."""
    best_t, best = None, (-np.inf,)
    for t, cand in enumerate(candidates, start=1):
        if cand is not None and cand[0] > best[0] + PIVOT_TOL:
            best_t, best = t, cand
    if best_t is None:
        raise RuntimeError("no pivot candidate is feasible; the instance is too degenerate for a closed form")
    return best_t, best


def two_type_solution(spec: TwoTypeSpec) -> TwoTypeSolution:
    q = q_weights(spec)
    t, (if_star, x, y) = _pivot_scan(_two_type_candidate(q, t) for t in range(1, spec.n + 1))
    v = spec.v
    # Worst-off side of the population; at alpha = 1/2 both types tie.
    u_type1 = float(x @ v) / v[0]
    u_type2 = float(y @ v[::-1]) / v[0]
    uf1 = min(u_type1, u_type2)
    return TwoTypeSolution(t=t, q=q, if_star=if_star, x=x, y=y, uf1=uf1, pof=1.0 - uf1)


def two_type_pof_curve(v, alphas) -> np.ndarray:
    """Rows (alpha, pivot, if_star, uf1, pof) over an alpha grid."""
    out = []
    for a in np.asarray(alphas, dtype=float):
        sol = two_type_solution(TwoTypeSpec(np.asarray(v, dtype=float), float(a)))
        out.append((a, sol.t, sol.if_star, sol.uf1, sol.pof))
    return np.array(out)


@dataclass(frozen=True)
class MisestSolution:
    """Item-fairness optimum of the estimated three-type instance.

    t is the 1-based pivot, at most floor((n + 1) / 2).  x is the recognized
    v-ranked type's policy, z the averaged users' policy (palindromic), and
    lam the common equalized item utility.  The mirrored recognized type
    plays y = reverse(x).
    """

    t: int
    q: np.ndarray
    lam: float
    x: np.ndarray
    z: np.ndarray

    @property
    def y(self) -> np.ndarray:
        return self.x[::-1]


def _misest_candidate(q: np.ndarray, beta: float, t: int) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Candidate with pivot t for the averaged-population instance.

    Structure: x_j > 0 only for j <= t, z supported on the middle block
    [t, n - t + 1], all item utilities equal to lam, where
    I_j = 2 beta (q_j x_j + (1 - q_j) x_{n-j+1}) + (1 - 2 beta) z_j.
    """
    n = q.size
    i = t - 1
    mirror = n - t  # 0-based index of item n - t + 1
    interior = n - 2 * t  # items strictly between the pivot and its mirror
    L = float(np.sum(1.0 / q[:i]))
    two_beta = 2.0 * beta
    cold = 1.0 - two_beta
    x = np.zeros(n)
    z = np.zeros(n)
    if interior == -1:
        # Odd n with the pivot on the middle item: z concentrates there and
        # the middle utility is 2 beta x_t + (1 - 2 beta) since both
        # recognized types contribute x_t and q_t = 1/2.  Equal utilities
        # force lam = 1 / (1 + L).
        lam = 1.0 / (1.0 + L)
        z[i] = 1.0
    else:
        lam = (two_beta * q[i] + 0.5 * cold) / (1.0 + q[i] * L + 0.5 * interior)
        if interior > 0:
            if cold < 1e-12:
                return None  # interior shares would blow up; no candidate here
            share = lam / cold
            z[i + 1 : mirror] = share
            edge = 0.5 * (1.0 - interior * share)
        else:
            edge = 0.5
        if edge < -PIVOT_TOL:
            return None
        z[i] = z[mirror] = max(edge, 0.0)
    x[:i] = lam / (two_beta * q[:i])
    x[i] = 1.0 - (lam / two_beta) * L
    if x[i] < -PIVOT_TOL:
        return None
    x[i] = max(x[i], 0.0)
    return lam, x, z


def misest_solution(spec: MisestSpec) -> MisestSolution:
    q = spec.v / (spec.v + spec.v[::-1])
    t, (lam, x, z) = _pivot_scan(_misest_candidate(q, spec.beta, t) for t in range(1, (spec.n + 1) // 2 + 1))
    return MisestSolution(t=t, q=q, lam=lam, x=x, z=z)
