"""Numerical routines used by the optimizer.

``nash_concave_solve`` is a log-barrier Newton maximizer for weighted sums
of logarithms of linear functionals over a product of K probability
simplices of n entries each, flattened row by row, optionally under a floor
on a second such sum.  It returns a weak-duality certificate computed from its
point, an upper bound on the distance to the optimum value.
``dykstra_project`` (Dykstra's alternating projections onto an intersection
of convex sets, each given by its own ``project``) remains here only because
the benchmark under ``perfbench/`` wraps it; nothing in this package calls it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

# Default certificate tolerance for the concave solver.
GAP_TOL = 1e-6
# Cap on Newton steps per solve.
MAX_ITER = 500
# The barrier parameter t grows by BARRIER_GROWTH once a Newton step finds the
# point centered, i.e. with Newton decrement squared at most CENTERED.
BARRIER_GROWTH = 100
CENTERED = 1e-2
# Full Newton steps at the final t before t grows again.
POLISH_STEPS = 8
# The line search gives up below this step length.
MIN_STEP = 1e-10
# Sufficient-decrease fraction of the backtracking line search.
ARMIJO = 0.01
# Dykstra stops once a full cycle moves the iterate by at most DYKSTRA_TOL (sup norm).
DYKSTRA_TOL = 1e-12
DYKSTRA_MAX_CYCLES = 200_000


class NonConvergenceError(RuntimeError):
    pass


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


@dataclass(frozen=True)
class ConcaveResult:
    """A solve's point and value, and ``gap``, an upper bound on the optimum
    minus ``value`` computed from ``point``; ``t`` is the barrier parameter
    at which it stopped."""

    value: float
    point: np.ndarray
    gap: float
    iterations: int
    converged: bool
    t: float


def _fw_gap(grad: np.ndarray, x: np.ndarray, shape: tuple[int, int]) -> float:
    """max over the simplex rows of grad . (y - x): the Frank-Wolfe gap at x."""
    g, xr = grad.reshape(shape), x.reshape(shape)
    return float((g.max(axis=1) - np.einsum("ij,ij->i", g, xr)).sum())


def _normalize_rows(x: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    rows = x.reshape(shape)
    return (rows / rows.sum(axis=1, keepdims=True)).ravel()


def _newton_step(x, shape, t, f, floor=None):
    """The Newton step dx of phi = -t F - sum log x - rho log(G - tau) on
    the simplex rows, and its decrement dx^T H dx.

    ``f`` is (P, weights, P x) of the objective's log terms; ``floor`` is
    (P, weights, P x, G(x) - tau, rho) of the floor's.  In u = dx / x the
    Hessian is I + W W^T + (rho / slack^2) z z^T and minus the gradient is
    1 + W h + (rho / slack) z: W = X V has one column per log term, h holds
    their multipliers, and z = X grad G.  One Householder reflection per
    simplex row maps u onto the null space of that row's constraint
    x_k . u_k = 0.  With the thin SVD W = U S V^T there,
    (I + W W^T)^-1 = I - U diag(s^2 / (1 + s^2)) U^T and
    (I + W W^T)^-1 W h = U diag(s / (1 + s^2)) V^T h, so no weight-sized
    number is cancelled.  z = W h_z lies in the floor's columns, so its
    rho / slack^2 term enters by Sherman-Morrison through h_z and the SVD
    never sees that weight.  No dense (K n)^2 matrix is formed.
    """
    k, n = shape
    b, c, bx = f
    cols, h = [b.T * (np.sqrt(t * c) / bx)], [np.sqrt(t * c)]
    if floor is not None:
        a, wa, ax, slack, rho = floor
        cols.append(a.T * (np.sqrt(rho * wa / slack) / ax))
        h.append(np.zeros(wa.size))
    w = (x[:, None] * np.concatenate(cols, axis=1)).reshape(k, n, -1)
    # Householder vector per row, x_k / |x_k| + e_1 scaled to norm sqrt(2):
    # its reflection sends x_k to a multiple of e_1, so the other n - 1
    # coordinates span the null space of x_k . u_k = 0.
    xr = x.reshape(k, n)
    refl = xr / np.sqrt((xr * xr).sum(axis=1, keepdims=True))
    refl[:, 0] += 1.0
    refl *= np.sqrt(2.0) / np.sqrt((refl * refl).sum(axis=1, keepdims=True))
    w = (w - refl[:, :, None] * np.einsum("kj,kjm->km", refl, w)[:, None, :])[:, 1:, :].reshape(k * (n - 1), -1)
    one = (1.0 - refl * refl.sum(axis=1, keepdims=True))[:, 1:].ravel()
    basis, sv, vt = np.linalg.svd(w, full_matrices=False)
    shrink = sv**2 / (1.0 + sv**2)

    def inverse(v):  # (I + W W^T)^-1 v
        return v - basis @ (shrink * (basis.T @ v))

    h = np.concatenate(h)
    red = inverse(one) + basis @ (sv / (1.0 + sv**2) * (vt @ h))
    if floor is not None:
        # X grad G = W h_z: grad G is a combination of the floor's columns.
        h_z = np.concatenate([np.zeros(c.size), np.sqrt(wa * slack / rho)])
        z, proj = w @ h_z, vt @ h_z
        az = basis @ (sv / (1.0 + sv**2) * proj)  # (I + W W^T)^-1 z
        den = slack**2 / rho + float((shrink * proj**2).sum())
        red += az * ((slack - z @ red) / den)
    # One round of iterative refinement.  The residual is grouped so that its
    # rounding lies in the stiff directions, which the solve damps.
    res = one - red + w @ (h - w.T @ red)
    if floor is not None:
        res += z * (rho / slack * (1.0 - (z @ red) / slack))
    corr = inverse(res)
    if floor is not None:
        corr -= az * ((z @ corr) / den)
    red += corr
    red = np.concatenate([np.zeros((k, 1)), red.reshape(k, n - 1)], axis=1)
    u = (red - refl * np.einsum("kj,kj->k", refl, red)[:, None]).ravel()
    dx = x * u
    r_f = (b @ dx) / bx
    decrement = float(u @ u + t * (c @ r_f**2))
    if floor is not None:
        r_g = (a @ dx) / ax
        decrement += rho / slack * float(wa @ r_g**2 + (wa @ r_g) ** 2 / slack)
    return dx, decrement


def nash_concave_solve(
    objective: LogObjective,
    shape: tuple[int, int],
    start: np.ndarray | None = None,
    tol: float = GAP_TOL,
    constraint: tuple[LogObjective, float] | None = None,
) -> ConcaveResult:
    """Maximize F, a weighted sum of logs of linear functionals, over the
    product of K simplices of n entries each, ``shape`` = (K, n), flattened
    row by row, optionally subject to ``constraint`` = (G, tau): another such
    sum and its floor, G(x) >= tau.

    Log-barrier Newton method (Boyd & Vandenberghe, ch. 11): damped Newton
    steps (``_newton_step``) on t F + sum log x + rho log(G - tau), with
    rho = K n, over the simplex rows, and t grows by BARRIER_GROWTH whenever
    a step finds the point centered.  ``start`` (default: uniform) must be
    strictly positive and strictly feasible.  The iterate is held as
    start + delta, and each change of F, G and the barrier is computed from
    the change of delta by log1p of relative changes, so that a thin floor
    (tau just below max G) is resolved far below the rounding of G itself.
    Each step keeps every simplex row's sum; the returned point is
    renormalized to sum to 1.

    The certificate is computed from the returned point: for a multiplier
    lambda >= 0, lambda (G(x) - tau) plus the Frank-Wolfe gap of
    F + lambda G at x bounds the optimum minus F(x) by weak duality.
    ``gap`` is that bound at lambda = rho / (t (G(x) - tau)), the multiplier
    of the central path; without a floor it is the Frank-Wolfe gap of F.
    ``converged`` means gap <= tol * (1 + |value|).  It is False when
    the module's MAX_ITER Newton steps, read at the call, are spent first,
    or when a step that promises a decrease finds none.  ``iterations``
    counts Newton steps.
    """
    k, n = shape
    size = k * n
    x0 = np.full(size, 1.0 / n) if start is None else _normalize_rows(np.asarray(start, dtype=float), shape)
    b, c = objective.coeffs, objective.weights
    bx = b @ x0
    if np.any(x0 <= 0) or np.any(bx <= 0):
        raise ValueError("starting point is not strictly inside the region and the log domain")
    floor, rho = None, 0.0
    if constraint is not None:
        g_obj, tau = constraint
        a, wa, rho = g_obj.coeffs, g_obj.weights, float(size)
        ax = a @ x0
        slack = g_obj.value(x0) - tau
        if not slack > 0:
            raise ValueError(f"starting point is not strictly feasible: G(x) - tau = {slack:.3e}")
    x, delta, value = x0, np.zeros(size), float(c @ np.log(bx))
    t = (size + rho) / max(_fw_gap(b.T @ (c / bx), x, shape), 1e-12)
    decrement, gap, polished = np.inf, np.inf, 0
    for it in range(MAX_ITER + 1):
        grad = b.T @ (c / bx)
        if constraint is None:
            gap = _fw_gap(grad, x, shape)
        else:
            grad_g = a.T @ (wa / ax)
            gap = rho / t + _fw_gap(grad + rho / (t * slack) * grad_g, x, shape)
        target = tol * (1.0 + abs(value))
        if gap <= target or it == MAX_ITER:
            break
        # t grows by BARRIER_GROWTH once a step finds the point centered, up
        # to t_final, where the central point's gap, about (K n + rho) / t,
        # is half the target.  There, centered steps polish: the certificate
        # needs the point centered in the floor's stiff directions, beyond
        # where phi's rounding lets a line search see progress, so they are
        # taken in full.  If POLISH_STEPS of them do not certify, t grows.
        t_final = 2.0 * (size + rho) / target
        polish = decrement <= CENTERED and t >= t_final
        if decrement <= CENTERED and t < t_final:
            t = min(t * BARRIER_GROWTH, t_final)
        elif polish:
            polished += 1
            if polished > POLISH_STEPS:
                t, polished, polish = t * BARRIER_GROWTH, 0, False
        if constraint is not None:
            floor = (a, wa, ax, slack, rho)
        dx, decrement = _newton_step(x, shape, t, (b, c, bx), floor)
        # Backtracking line search on phi = -t F - sum log x - rho log(G - tau).
        neg = dx < 0
        step = min(1.0, 0.99 * float((-x[neg] / dx[neg]).min())) if neg.any() else 1.0
        with np.errstate(invalid="ignore", divide="ignore"):  # a trial off the log domain halves the step
            while step >= MIN_STEP:
                d = step * dx
                d -= x * d.reshape(k, n).sum(axis=1).repeat(n)  # keep each row's sum
                d_phi = -t * float(c @ np.log1p((b @ d) / bx)) - float(np.log1p(d / x).sum())
                if floor is not None:
                    d_g = float(wa @ np.log1p((a @ d) / ax))
                    d_phi -= rho * np.log1p(d_g / slack)
                if isfinite(d_phi) and (polish or d_phi <= -ARMIJO * step * decrement):
                    break
                step *= 0.5
            else:
                if decrement > CENTERED:
                    break  # no decrease along a step that promises one: stalled
                decrement = 0.0  # centered up to rounding: stay; t grows, now or after POLISH_STEPS
                continue
        delta += d
        x = x0 + delta
        bx = b @ x
        value = float(c @ np.log(bx))
        if floor is not None:
            ax, slack = a @ x, slack + d_g
    return ConcaveResult(value, _normalize_rows(x, shape), gap, it, gap <= tol * (1.0 + abs(value)), t)
