"""Optimal recommendation policies under item-fairness constraints.

The central problem: maximize a fairness measure of the users' normalized
utilities subject to the item side retaining at least a fraction gamma of
its own best attainable fairness.  Populations are first collapsed to one
policy row per user type; averaging the rows of any feasible policy within
a type changes no item utility and never hurts the worst-off user, so the
reduction is lossless.

For the max-min and sum-of-k-smallest measures both sides are sparse
linear programs over the flattened K x n policy.  The item-fairness optimum
IF* is the measure's epigraph lift of the n item rows, solved cold.  The
UF* program is the item floor (the n item rows for max-min, one sum-k
certificate row for sum-k) plus the user-side lift, one epigraph row per
type; sum-k weights each type's row by its user count, so the program's
size depends on the types alone.  The floor has bound +inf at gamma = 0, so
only its right-hand sides depend on gamma: a sweep builds the program once
as an ``lp.WarmLP`` and re-solves each gamma from the previous optimal
basis.  For max-min the canonical tie-break projects the uniform policy
onto that solve's exact optimal face, read from its duals.
Nash welfare (sum of logs) is handled by a first-order concave maximizer
plus Lagrangian bisection on the item constraint.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array

from . import lp
from .core import (
    MAX_MIN,
    FairnessMeasure,
    ItemUtilityModel,
    MeasureKind,
    RecommendationPolicy,
    UtilityMatrix,
    measure_value,
    user_utility_vector,
)
from .numerics import GAP_TOL, LogObjective, NonConvergenceError, SimplexProduct, nash_concave_solve

# Backoff applied when an optimal value is reused as a constraint threshold,
# so that floating-point optima stay feasible.
SLACK = 1e-9
# Tolerance for sweep monotonicity and constraint satisfaction checks.
SWEEP_TOL = 1e-6
# HiGHS's primal feasibility tolerance on the sum-k UF* program.  A user
# epigraph row violated by eps lets the lift overstate the sum of the k
# smallest by up to k * eps; at the default 1e-7 the worked instance's
# gamma = 1 optimum came out 1e-9 short of exact.
SUM_K_FEAS_TOL = 1e-10


class TieBreak(str, Enum):
    SOLVER = "solver"
    CANONICAL = "canonical"


class Scope(str, Enum):
    ALL_USERS = "all"
    MISESTIMATED_GROUP = "misest-group"


@dataclass(frozen=True)
class TypeReduction:
    """Collapse of an instance to one row per user type."""

    matrix: UtilityMatrix
    counts: np.ndarray
    user_to_type: np.ndarray

    @property
    def k(self) -> int:
        return self.matrix.m


def reduce_by_types(w: UtilityMatrix) -> TypeReduction:
    """Group users into types by the type annotation or by exact row equality."""
    if w.type_of is not None:
        keys = w.type_of
    else:
        values = np.ascontiguousarray(w.values)
        keys = values.view(np.dtype((np.void, values.itemsize * w.n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # Renumber in first-occurrence order so the reduction is deterministic.
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    user_to_type = rank[inverse.ravel()]
    rows = w.values[np.sort(first)]
    return TypeReduction(UtilityMatrix(rows), np.bincount(user_to_type), user_to_type)


def expand_policy(rows_by_type: np.ndarray, reduction: TypeReduction) -> np.ndarray:
    """Inverse of the type reduction; preserves every user and item utility."""
    return np.asarray(rows_by_type, dtype=float)[reduction.user_to_type]


def _user_norm_rows(wt: np.ndarray) -> np.ndarray:
    """U_k = sum_j B[k, j] rho[k, j] with B the row-normalized utilities."""
    return wt / wt.max(axis=1, keepdims=True)


def _item_share_rows(wt: np.ndarray, counts: np.ndarray, model: ItemUtilityModel) -> np.ndarray:
    """I_j = sum_k A[k, j] rho[k, j] on the delta-transformed matrix."""
    wi = model.delta + (1.0 - model.delta) * wt
    weighted = counts[:, None] * wi
    return weighted / weighted.sum(axis=0, keepdims=True)


def _user_rows(b: np.ndarray) -> coo_array:
    """(K, K*n) coefficient rows for the per-type user utilities."""
    k, n = b.shape
    idx = np.arange(k * n)
    return coo_array((b.ravel(), (idx // n, idx)), shape=(k, k * n))


def _item_rows(a: np.ndarray) -> coo_array:
    """(n, K*n) coefficient rows for the item utilities."""
    k, n = a.shape
    idx = np.arange(k * n)
    return coo_array((a.ravel(), (idx % n, idx)), shape=(n, k * n))


def _simplex_region(k: int, n: int) -> lp.Region:
    """Row-stochastic K x n policies, flattened row by row."""
    return lp.Region(k * n, a_eq=_user_rows(np.ones((k, n))), b_eq=np.ones(k))


def _uf_program(
    user_rows: coo_array, item_rows: coo_array, counts: np.ndarray, measure: FairnessMeasure
) -> lp.WarmLP:
    """The UF* program of an LP measure over the K simplex rows: the item
    floor's ``<=`` rows, then the user lift's.  The floor starts inactive,
    right-hand side +inf; ``_solve_uf`` sets it per gamma.

    Max-min: the floor is the n item rows -I_j(x) <= SLACK - target, the
    lift max t with t - U_k(x) <= 0 per type.  Sum-k: the floor is
    ``lp.sum_k_smallest_floor``'s n item epigraph rows and its certificate
    row, with right-hand side SLACK - target; the lift has one epigraph row
    per type, weighted by the type's user count.
    """
    k, n = user_rows.shape[0], item_rows.shape[0]
    region = _simplex_region(k, n)
    if measure.kind is MeasureKind.MAX_MIN:
        return lp.WarmLP(*lp.maxmin_lift(user_rows, region.extend(-item_rows, np.full(n, np.inf))))
    region = lp.sum_k_smallest_floor(item_rows, measure.k, -np.inf, region)
    # The user rows read x only; the certificate variables get coefficient 0.
    user_rows = coo_array((user_rows.data, (user_rows.row, user_rows.col)), shape=(k, region.num_vars))
    return lp.WarmLP(*lp.sum_k_lift(user_rows, measure.k, region, weights=counts), feas_tol=SUM_K_FEAS_TOL)


def _solve_uf(
    program: lp.WarmLP, gamma: float, if_target: float, measure: FairnessMeasure, n: int
) -> np.ndarray:
    """Optimal point of ``_uf_program`` at gamma; only the floor moves."""
    b_ub = program.region.b_ub.copy()
    floor = slice(0, n) if measure.kind is MeasureKind.MAX_MIN else n
    b_ub[floor] = SLACK - if_target if gamma > 0 else np.inf
    sol = program.solve(b_ub)
    if sol.status is not lp.LPStatus.OPTIMAL:
        raise lp.LPSolverError(sol.status, sol.message)
    return sol.point


def _validate_measure(measure: FairnessMeasure, m: int, n: int, tie_break=TieBreak.SOLVER) -> None:
    if TieBreak(tie_break) is TieBreak.CANONICAL and measure.kind is not MeasureKind.MAX_MIN:
        raise ValueError("the canonical tie-break is defined for the max-min measure only")
    if measure.kind is MeasureKind.SUM_K_MIN:
        if measure.k > m:
            raise ValueError(f"k = {measure.k} exceeds the population of {m} users")
        if measure.k > n:
            raise ValueError(f"k = {measure.k} exceeds the catalog of {n} items")


def check_gamma_grid(gammas) -> list[float]:
    """The grid as floats; ValueError unless strictly increasing inside [0, 1]."""
    gammas = [float(g) for g in gammas]
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise ValueError("gamma grid must be strictly increasing")
    bad = [g for g in gammas if not 0.0 <= g <= 1.0]
    if bad:
        raise ValueError(f"gamma values must lie in [0, 1], got {bad[0]}")
    return gammas


@dataclass(frozen=True)
class IfStarResult:
    """Item-fairness optimum IF* together with an attaining policy.

    The policy is held in type space, one row per type of ``reduction``;
    ``policy`` expands it to one row per user on first access.
    """

    value: float
    rows_by_type: np.ndarray
    reduction: TypeReduction
    measure: FairnessMeasure
    delta: float
    lp_solution: lp.LPSolution | None = None
    gap: float | None = None

    @cached_property
    def policy(self) -> RecommendationPolicy:
        return RecommendationPolicy(expand_policy(self.rows_by_type, self.reduction))


_IF_STAR_CACHE: dict[bytes, IfStarResult] = {}


def _cache_key(w: UtilityMatrix, model: ItemUtilityModel, measure: FairnessMeasure) -> bytes:
    h = hashlib.sha256()
    # Both arrays are frozen contiguous copies, so their buffers hash as is.
    h.update(w.values.data)
    h.update(b"|")
    h.update(w.type_of.data if w.type_of is not None else b"-")
    h.update(f"|{model.delta!r}|{measure.kind.value}|{measure.k}".encode())
    return h.digest()


def clear_caches() -> None:
    _IF_STAR_CACHE.clear()


def compute_if_star(
    w: UtilityMatrix,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
) -> IfStarResult:
    """Best attainable item fairness, cached per (matrix, delta, measure)."""
    model = item_model or ItemUtilityModel()
    key = _cache_key(w, model, measure)
    hit = _IF_STAR_CACHE.get(key)
    if hit is not None:
        return hit
    _validate_measure(measure, w.m, w.n)
    red = reduce_by_types(w)
    k, n = red.k, w.n
    a = _item_share_rows(red.matrix.values, red.counts, model)
    item_rows = _item_rows(a)
    lp_solution = None
    gap = None
    if measure.kind is MeasureKind.MAX_MIN:
        _, point, lp_solution = lp.solve_maxmin_linear(item_rows, _simplex_region(k, n))
    elif measure.kind is MeasureKind.SUM_K_MIN:
        _, point, lp_solution = lp.sum_k_smallest_epigraph(item_rows, measure.k, _simplex_region(k, n))
    else:
        res = nash_concave_solve(LogObjective(item_rows.toarray()), SimplexProduct(k, n))
        if not res.converged:
            raise NonConvergenceError("item-side Nash optimization hit the iteration cap")
        point, gap = res.point, res.gap
    rows = RecommendationPolicy.from_solver(point.reshape(k, n)).rows
    value = measure_value((a * rows).sum(axis=0), measure)
    result = IfStarResult(value, rows, red, measure, model.delta, lp_solution, gap)
    if len(_IF_STAR_CACHE) > 256:
        _IF_STAR_CACHE.clear()
    _IF_STAR_CACHE[key] = result
    return result


@dataclass(frozen=True)
class UfStarResult:
    """Constrained user-fairness optimum for one gamma.

    The policy is held in type space, one row per type of ``reduction``;
    ``policy`` expands it to one row per user on first access.
    """

    value: float
    rows_by_type: np.ndarray
    reduction: TypeReduction
    gamma: float
    if_star: float | None
    if_target: float
    measure: FairnessMeasure
    delta: float

    @cached_property
    def policy(self) -> RecommendationPolicy:
        return RecommendationPolicy(expand_policy(self.rows_by_type, self.reduction))


def _argmax_mixing_rows(wt: np.ndarray) -> np.ndarray:
    """Uniform mixture over each type's tied favorite items."""
    ties = wt >= wt.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    return ties / ties.sum(axis=1, keepdims=True)


def min_norm_face_point(
    target: np.ndarray, face: lp.Region, point: np.ndarray, gamma: float
) -> np.ndarray:
    """Nearest point to ``target`` of ``face``, with the variables past
    ``target`` (the epigraph t) held at their values in ``point``.

    An orthonormal null-space basis N (by SVD) of the face's equalities on
    the free entries writes their affine set as ``point + N z``.  An empty N
    means the face is the vertex ``point``.  If the projection of ``target``
    onto the affine set meets every inequality, it is the answer; otherwise
    one HiGHS QP in z finds it.  A QP answer must be optimal, violate the
    face by at most lp.FACE_TOL and have a KKT residual of at most
    SWEEP_TOL, or LPSolverError with status FAILED is raised.
    """
    n = target.size
    free = np.flatnonzero(face.lb[:n] < face.ub[:n])
    eq = face.a_eq.tocsc()[:, free].toarray()
    basis = np.linalg.svd(eq)[2][np.linalg.matrix_rank(eq) :].T
    x, proj = np.array(point, dtype=float), np.array(point, dtype=float)
    proj[free] += basis @ (basis.T @ (target[free] - x[free]))
    if basis.shape[1] == 0 or lp._violation(face, proj) <= lp.FACE_TOL:
        return proj[:n]
    # The inequality rows and the free entries' lower bounds, in z.
    g = np.vstack([face.a_ub.tocsc()[:, free] @ basis, -basis])
    h = np.concatenate([face.b_ub - face.a_ub @ x, x[free] - face.lb[free]])
    sol, kkt = lp.solve_qp(basis.T @ (x[free] - target[free]), g, h)
    viol = np.inf
    if sol.status is lp.LPStatus.OPTIMAL:
        x[free] += basis @ sol.point
        viol = lp._violation(face, x)
    if not (viol <= lp.FACE_TOL and kkt <= SWEEP_TOL):
        raise lp.LPSolverError(
            lp.LPStatus.FAILED,
            f"canonical face point at gamma = {gamma} is not certified: face dimension {basis.shape[1]}, "
            f"QP {sol.message}, residual {viol:.3e}, KKT residual {kkt:.3e}",
        )
    return x[:n]


def compute_uf_star(
    w: UtilityMatrix,
    gamma: float,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
    if_star: IfStarResult | None = None,
    tie_break: TieBreak = TieBreak.SOLVER,
    *,
    _program: lp.WarmLP | None = None,
) -> UfStarResult:
    """Best attainable user fairness when the item side must keep a gamma
    fraction of its optimum.  gamma = 0 drops the item constraint entirely.

    ``_program`` is ``tradeoff_sweep``'s UF* program for this instance and
    an LP measure, re-solved warm; without it a fresh program is built and
    solved cold."""
    (gamma,) = check_gamma_grid([gamma])
    model = item_model or ItemUtilityModel()
    tie_break = TieBreak(tie_break)
    _validate_measure(measure, w.m, w.n, tie_break)
    if gamma > 0 and if_star is None:
        if_star = compute_if_star(w, model, measure)
    red = if_star.reduction if if_star is not None else reduce_by_types(w)
    k, n = red.k, w.n
    b = _user_norm_rows(red.matrix.values)
    a = _item_share_rows(red.matrix.values, red.counts, model)
    user_rows = _user_rows(b)
    item_rows = _item_rows(a)
    if_value = if_star.value if if_star is not None else None

    if measure.kind is MeasureKind.NASH_WELFARE:
        if_target = (if_value / gamma) if gamma > 0 else -np.inf
        rows = _nash_uf_rows(red, user_rows.toarray(), item_rows.toarray(), gamma, if_target, k, n)
    else:
        if_target = gamma * if_value if gamma > 0 else 0.0
        program = _program if _program is not None else _uf_program(user_rows, item_rows, red.counts, measure)
        point = _solve_uf(program, gamma, if_target, measure, n)
        rows = point[: k * n].reshape(k, n)
        if tie_break is TieBreak.CANONICAL and gamma == 0:
            rows = _argmax_mixing_rows(red.matrix.values)
        elif tie_break is TieBreak.CANONICAL:
            # The point of the exact optimal face nearest the uniform policy.
            # A symmetry of the instance permutes the face and fixes the
            # uniform policy; the projection is unique, so it inherits every
            # such symmetry, and tied supports end up uniformly mixed.
            rows = min_norm_face_point(np.full(k * n, 1.0 / n), program.optimal_face(), point, gamma)
            rows = rows.reshape(k, n)

    policy_rows = RecommendationPolicy.from_solver(rows).rows
    value = measure_value((b * policy_rows).sum(axis=1), measure, weights=red.counts)
    return UfStarResult(value, policy_rows, red, gamma, if_value, if_target, measure, model.delta)


def _nash_uf_rows(red, user_rows, item_rows, gamma, target, k, n):
    """Lagrangian bisection for the Nash path.

    The inner problem max U_NW + mu * I_NW is an unconstrained weighted
    log-sum over the simplex product; the achieved item welfare increases
    with mu, so bisection finds the multiplier where the constraint just
    binds.  gamma = 0 needs no multiplier at all.
    """
    region = SimplexProduct(k, n)
    counts = red.counts.astype(float)
    user_obj = LogObjective(user_rows, counts)

    def inw(x) -> float:
        vals = item_rows @ x
        if np.any(vals <= 0):
            return -np.inf
        return float(np.log(vals).sum())

    res = nash_concave_solve(user_obj, region)
    if not res.converged:
        raise NonConvergenceError("user-side Nash optimization hit the iteration cap")
    if gamma == 0 or inw(res.point) >= target - SLACK:
        return res.point.reshape(k, n)

    stacked = np.vstack([user_rows, item_rows])

    def inner(mu, x0):
        obj = LogObjective(stacked, np.concatenate([counts, np.full(n, mu)]))
        # Warm starts can sit on the boundary of the log domain; pull them
        # toward the uniform policy until strictly feasible.
        for t in (0.0, 1e-6, 1e-3, 1e-1, 1.0):
            start = (1.0 - t) * x0 + t * region.uniform()
            if np.isfinite(obj.value(start)):
                break
        out = nash_concave_solve(obj, region, start=start)
        if not out.converged:
            raise NonConvergenceError(f"Nash inner solve stalled at multiplier {mu}")
        return out

    lo, hi = 0.0, 1.0
    res_hi = inner(hi, res.point)
    while inw(res_hi.point) < target - SLACK:
        if hi >= 1e12:
            raise NonConvergenceError("item constraint unreachable within the multiplier range")
        lo, hi = hi, hi * 10.0
        res_hi = inner(hi, res_hi.point)
    slack_tol = SLACK * (1.0 + abs(target))
    for _ in range(120):
        if inw(res_hi.point) - target <= slack_tol:
            break
        mid = 0.5 * (lo + hi)
        res_mid = inner(mid, res_hi.point)
        if inw(res_mid.point) >= target - SLACK:
            hi, res_hi = mid, res_mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
    return res_hi.point.reshape(k, n)


def require_price_measure(measure: FairnessMeasure, price: str) -> None:
    """Raise ValueError for a measure under which the named price is undefined.

    The prices are ratios of welfare values.  The unconstrained Nash optimum
    gives every user a favorite item, so its log-welfare is exactly 0, and a
    ratio of log-welfares has no meaningful sign anyway.
    """
    if measure.kind is MeasureKind.NASH_WELFARE:
        raise ValueError(
            f"the {price} is undefined for the Nash measure: its welfare is a sum of logs, "
            "0 at the unconstrained optimum"
        )


def price_of_fairness(
    w: UtilityMatrix,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
) -> float:
    """Relative loss in optimal user fairness caused by maximal item fairness."""
    require_price_measure(measure, "price of fairness")
    uf0 = compute_uf_star(w, 0.0, item_model, measure).value
    if abs(uf0) < 1e-12:
        raise ValueError("price of fairness is undefined when the unconstrained optimum is 0")
    uf1 = compute_uf_star(w, 1.0, item_model, measure).value
    return (uf0 - uf1) / uf0


def misestimated_users(w: UtilityMatrix, w_hat: UtilityMatrix) -> np.ndarray:
    if w.values.shape != w_hat.values.shape:
        raise ValueError("true and estimated matrices must have identical shape")
    return np.where(np.any(w.values != w_hat.values, axis=1))[0]


def price_of_misestimation(
    w: UtilityMatrix,
    w_hat: UtilityMatrix,
    gammas,
    scope: Scope,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
    tie_break: TieBreak = TieBreak.SOLVER,
) -> list[float]:
    """Relative user-fairness loss from optimizing against estimated
    utilities, one value per gamma of a strictly increasing grid in [0, 1].

    At each gamma the estimated-optimal and the true-optimal policy (same
    tie-break) are evaluated on the true matrix, over the misestimated users
    when scope says so.  The grid, scope, measure and tie-break, and a sum-k
    ``k`` above the scope's size, are checked before any solve.  The
    misestimated users, each side's IF* and reduction, and the class
    partition are computed once per grid.  The UF* solves stay cold on
    purpose: the estimated optimal face is not a point (ROADMAP item 6), and
    a warm start from the previous gamma lands on another of its vertices.

    A user's utility under both policies depends only on their type in
    ``w`` and their type in ``w_hat``, so the scope's users are grouped by
    that pair and each class is evaluated once, on one representative,
    and weighted by its size.  The multiset of user utilities is the
    per-user one, so the measure takes the same value.
    """
    require_price_measure(measure, "price of misestimation")
    scope = Scope(scope)
    gammas = check_gamma_grid(gammas)
    users = misestimated_users(w, w_hat)
    if scope is Scope.ALL_USERS:
        users = np.arange(w.m)
    elif users.size == 0:
        raise ValueError("no users are misestimated; the group scope is undefined")
    _validate_measure(measure, w.m, w.n, tie_break)
    if measure.kind is MeasureKind.SUM_K_MIN and measure.k > users.size:
        raise ValueError(f"k = {measure.k} exceeds the {users.size} users of the {scope.value} scope")
    model = item_model or ItemUtilityModel()
    solve_if = bool(gammas) and gammas[-1] > 0
    if_ref = compute_if_star(w, model, measure) if solve_if else None
    if_est = compute_if_star(w_hat, model, measure) if solve_if else None
    poms = []
    for g in gammas:
        ref = compute_uf_star(w, g, model, measure, if_star=if_ref, tie_break=tie_break)
        est = compute_uf_star(w_hat, g, model, measure, if_star=if_est, tie_break=tie_break)
        if not poms:  # the reductions are the same at every gamma
            t_ref, t_est = ref.reduction.user_to_type[users], est.reduction.user_to_type[users]
            _, first, counts = np.unique(
                t_ref * est.reduction.k + t_est, return_index=True, return_counts=True
            )
            t_ref, t_est, w_rep = t_ref[first], t_est[first], UtilityMatrix(w.values[users[first]])
        u_ref = user_utility_vector(RecommendationPolicy(ref.rows_by_type[t_ref]), w_rep)
        u_est = user_utility_vector(RecommendationPolicy(est.rows_by_type[t_est]), w_rep)
        ref_val = measure_value(u_ref, measure, weights=counts)
        est_val = measure_value(u_est, measure, weights=counts)
        if abs(ref_val) < 1e-12:
            raise ValueError("price of misestimation is undefined when the reference optimum is 0")
        poms.append((ref_val - est_val) / ref_val)
    return poms


@dataclass(frozen=True)
class TradeoffRow:
    gamma: float
    if_target: float
    uf_achieved: float
    if_achieved: float
    status: str
    solve_ms: float


@dataclass(frozen=True)
class TradeoffCurve:
    """Sweep of the constrained optimum over a gamma grid."""

    rows: tuple[TradeoffRow, ...]
    if_star: float
    measure: FairnessMeasure
    delta: float
    provenance: dict


def tradeoff_sweep(
    w: UtilityMatrix,
    gammas,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
    tie_break: TieBreak = TieBreak.SOLVER,
) -> TradeoffCurve:
    """Solve the constrained problem across a gamma grid.

    The grid must be strictly increasing inside [0, 1] (ValueError
    otherwise, before anything is solved).  The item-side optimum is
    computed once and shared by every row; for the LP measures so is one
    UF* program, re-solved warm from the previous gamma's optimal basis.  A
    failing gamma is recorded in its row and the sweep continues.  The
    user-fairness column is checked to be nonincreasing; a violation means
    the solver contract is broken and raises LPSolverError with status
    FAILED.
    """
    model = item_model or ItemUtilityModel()
    gammas = check_gamma_grid(gammas)
    ifres = compute_if_star(w, model, measure)
    red = ifres.reduction
    a = _item_share_rows(red.matrix.values, red.counts, model)
    program = None
    if measure.kind is not MeasureKind.NASH_WELFARE:
        user_rows = _user_rows(_user_norm_rows(red.matrix.values))
        program = _uf_program(user_rows, _item_rows(a), red.counts, measure)
    rows = []
    prev_ok = np.inf
    for g in gammas:
        start = time.perf_counter()
        try:
            r = compute_uf_star(w, g, model, measure, if_star=ifres, tie_break=tie_break, _program=program)
        except (lp.LPSolverError, NonConvergenceError) as exc:
            elapsed = (time.perf_counter() - start) * 1000.0
            rows.append(TradeoffRow(g, np.nan, np.nan, np.nan, f"error: {exc}", elapsed))
            continue
        elapsed = (time.perf_counter() - start) * 1000.0
        i_vals = (a * r.rows_by_type).sum(axis=0)
        if measure.kind is MeasureKind.NASH_WELFARE and np.any(i_vals <= 0.0):
            # a starved item puts the log-welfare at its floor
            if_achieved = -np.inf
        else:
            if_achieved = measure_value(i_vals, measure)
        if r.value > prev_ok + SWEEP_TOL * (1.0 + abs(prev_ok)):
            raise lp.LPSolverError(
                lp.LPStatus.FAILED,
                f"user fairness increased along the sweep at gamma = {g}: {r.value} after {prev_ok}",
            )
        prev_ok = r.value
        rows.append(TradeoffRow(g, r.if_target, r.value, if_achieved, "ok", elapsed))
    provenance = {
        "tool": "fairrec",
        "measure": measure.kind.value,
        "k": measure.k,
        "delta": model.delta,
        "tie_break": TieBreak(tie_break).value,
        "matrix_sha256": hashlib.sha256(w.values.data).hexdigest()[:16],
        "feasibility_tol": lp.FEAS_TOL,
        "optimality_tol": lp.OPT_TOL,
        "nash_gap_tol": GAP_TOL,
    }
    return TradeoffCurve(tuple(rows), ifres.value, measure, model.delta, provenance)
