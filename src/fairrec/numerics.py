"""First-order numerical routines used by the optimizer.

One region type, ``SimplexProduct`` (a product of probability simplices,
with its Euclidean projection), carries a maximizer for weighted sums of
logarithms of linear functionals (projected gradient ascent), which stops
on the Frank-Wolfe duality gap, an upper bound on the distance to the
optimum value.  Dykstra's alternating projections onto halfspace-cut
simplex products remain here, but no solve path calls them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default certificate tolerance for the concave solver.
GAP_TOL = 1e-6
MAX_ITER = 100_000
# Dykstra stops once a full cycle moves the iterate by at most DYKSTRA_TOL (sup norm).
DYKSTRA_TOL = 1e-12
DYKSTRA_MAX_CYCLES = 200_000


class NonConvergenceError(RuntimeError):
    pass


def project_rows_to_simplex(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[1]
    srt = np.sort(rows, axis=1)[:, ::-1]
    csum = np.cumsum(srt, axis=1) - 1.0
    arange = np.arange(1, n + 1)
    cond = srt - csum / arange > 0
    rho = n - np.argmax(cond[:, ::-1], axis=1) - 1  # last index where cond holds
    theta = csum[np.arange(rows.shape[0]), rho] / (rho + 1.0)
    return np.maximum(rows - theta[:, None], 0.0)


@dataclass(frozen=True)
class HalfspaceSet:
    """{x : a . x >= b}"""

    a: np.ndarray
    b: float

    def project(self, x):
        gap = self.b - float(self.a @ x)
        if gap <= 0:
            return x
        return x + (gap / float(self.a @ self.a)) * self.a


@dataclass(frozen=True)
class SimplexProduct:
    """``num_rows`` independent distributions over ``row_len`` entries, flattened row by row."""

    num_rows: int
    row_len: int

    @property
    def num_vars(self) -> int:
        return self.num_rows * self.row_len

    def uniform(self) -> np.ndarray:
        return np.full(self.num_vars, 1.0 / self.row_len)

    def project(self, x):
        return project_rows_to_simplex(x.reshape(self.num_rows, self.row_len)).ravel()


def dykstra_project(target: np.ndarray, sets) -> np.ndarray:
    """Nearest point to ``target`` in the intersection of the given sets.

    Standard Dykstra iteration with one correction term per set; converges
    to the exact Euclidean projection for closed convex sets.  Stops when a
    full cycle moves the iterate by at most ``DYKSTRA_TOL`` (sup norm).
    """
    x = np.asarray(target, dtype=float).copy()
    mem = [np.zeros_like(x) for _ in sets]
    for _ in range(DYKSTRA_MAX_CYCLES):
        start = x.copy()
        for idx, s in enumerate(sets):
            y = s.project(x + mem[idx])
            mem[idx] = x + mem[idx] - y
            x = y
        if np.max(np.abs(x - start)) <= DYKSTRA_TOL:
            return x
    raise NonConvergenceError(f"Dykstra projection did not converge in {DYKSTRA_MAX_CYCLES} cycles")


@dataclass(frozen=True)
class LogObjective:
    """F(x) = sum_r weights_r * log(coeffs_r . x); ``weights=None`` means all ones."""

    coeffs: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        nrows = coeffs.shape[0]
        weights = np.ones(nrows) if self.weights is None else np.asarray(self.weights, dtype=float)
        if weights.shape != (nrows,):
            raise ValueError("weights must have one entry per functional")
        if np.any(weights <= 0):
            raise ValueError("log-term weights must be strictly positive")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weights", weights)

    def value(self, x):
        vals = self.coeffs @ x
        if np.any(vals <= 0):
            return -np.inf
        return float(self.weights @ np.log(vals))

    def gradient(self, x):
        vals = self.coeffs @ x
        return self.coeffs.T @ (self.weights / vals)


@dataclass(frozen=True)
class ConcaveResult:
    value: float
    point: np.ndarray
    gap: float
    iterations: int
    converged: bool


def _armijo_accept(f_new, f_old, g, x_new, x_old) -> bool:
    return np.isfinite(f_new) and f_new >= f_old + 1e-4 * float(g @ (x_new - x_old))


def _ascend_simplex_product(objective, region, start, tol, max_iter) -> ConcaveResult:
    k, n = region.num_rows, region.row_len
    x = start.copy()
    fx = objective.value(x)
    if not np.isfinite(fx):
        raise ValueError("starting point is not strictly feasible for the log objective")
    eta = 1.0
    gap = np.inf
    for it in range(1, max_iter + 1):
        g = objective.gradient(x)
        grid = g.reshape(k, n)
        xg = x.reshape(k, n)
        gap = float(np.sum(grid.max(axis=1) - np.einsum("ij,ij->i", grid, xg)))
        if gap <= tol * (1.0 + abs(fx)):
            return ConcaveResult(fx, x, gap, it, True)
        eta = min(eta * 2.0, 1e8)
        while True:
            xn = region.project(x + eta * g)
            fn = objective.value(xn)
            if _armijo_accept(fn, fx, g, xn, x):
                break
            eta *= 0.5
            if eta < 1e-18:
                xn, fn = x, fx  # no productive step left; gap check decides next round
                break
        if np.array_equal(xn, x):
            # Projection is at a fixed point; nothing further to gain from
            # shrinking steps, so report whatever certificate is in hand.
            return ConcaveResult(fx, x, gap, it, gap <= tol * (1.0 + abs(fx)))
        x, fx = xn, fn
    return ConcaveResult(fx, x, gap, max_iter, False)


def nash_concave_solve(
    objective: LogObjective,
    region,
    start: np.ndarray | None = None,
    tol: float = GAP_TOL,
    max_iter: int = MAX_ITER,
) -> ConcaveResult:
    """Maximize a weighted sum of logs of affine functionals over ``region``.

    ``region`` is a SimplexProduct; the solver is projected gradient ascent
    with backtracking line search.  Returns the point, the value, and the
    final Frank-Wolfe gap certificate; convergence means
    gap <= tol * (1 + |value|), and ``converged`` is False when the
    iteration cap is exhausted first.
    """
    if not isinstance(region, SimplexProduct):
        raise TypeError(f"unsupported region type {type(region).__name__}")
    x0 = region.uniform() if start is None else np.asarray(start, dtype=float).copy()
    return _ascend_simplex_product(objective, region, x0, tol, max_iter)
