"""Optimal recommendation policies under item-fairness constraints.

The central problem: maximize a fairness measure of the users' normalized
utilities subject to the item side retaining at least a fraction gamma of
its own best attainable fairness.  Policies have one row per user type of
the matrix, in its numbering; averaging the rows of any feasible policy
within a type changes no item utility and never hurts the worst-off user,
so the reduction is lossless.

A ``Problem`` is one instance assembled once: its type counts, the
per-type user rows and item rows, and its IF*, solved on first use.  Every
solve and price reads them from it.  Max-min is the sum of the k smallest
with k = 1, so the LP measures share one path: sparse programs over the
flattened K x n policy from ``lp.sum_k_lift`` and ``lp.sum_k_smallest_floor``,
which alone choose the layout from k.  IF* is the lift of the n item rows,
solved cold, with its optimal face; UF*(1) is the user lift over that face.
Below 1 the UF* program is the item floor plus the user lift, one row per
type weighted by its user count, so its size depends on the types alone.
The floor rows have right-hand side +inf at gamma = 0 and alone depend on
gamma: the ``Problem`` builds the program once as an ``lp.WarmLP``, and each
gamma < 1 solve on it starts from the previous optimal basis.  The
gamma = 0 optimum puts every type on its favourite item; when each type has
exactly one, that solve starts at its optimal basis and takes no iteration.
For max-min the canonical tie-break projects the uniform policy onto that
solve's exact optimal face, read from its duals.
Nash welfare (sum of logs) takes one log-barrier Newton solve per value
(``numerics.nash_concave_solve``): IF* is the item welfare over the simplex,
and UF*(gamma > 0) the user welfare under the item welfare's floor, started
inside it from the IF* point; UF*(0) is the closed form that puts every type
on its favorite items.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array

from . import lp, numerics
from .core import (
    MAX_MIN,
    FairnessMeasure,
    ItemUtilityModel,
    MeasureKind,
    RecommendationPolicy,
    UtilityMatrix,
    first_occurrence,
    measure_value,
    user_utility_vector,
)
from .numerics import LogObjective, NonConvergenceError, nash_concave_solve

# Backoff applied when an optimal value is reused as a constraint threshold,
# so that floating-point optima stay feasible.
SLACK = 1e-9
# Relative certificate tolerance of the Nash IF* solve.  UF*(1)'s floor sits
# SLACK below IF*, so IF* is solved to a gap of the same order as SLACK.
NASH_IF_TOL = 1e-10
# Tolerance for sweep monotonicity and constraint satisfaction checks.
SWEEP_TOL = 1e-6
# An item within this fraction of a type's best utility ties as its favourite.
FAVOURITE_TIE = 1e-12


class TieBreak(str, Enum):
    SOLVER = "solver"
    CANONICAL = "canonical"


class Scope(str, Enum):
    ALL_USERS = "all"
    MISESTIMATED_GROUP = "misest-group"


def reduce_by_types(w: UtilityMatrix) -> np.ndarray:
    """The user count of each of ``w``'s types, in the matrix's numbering."""
    return np.bincount(w.type_of)


def expand_policy(rows_by_type: np.ndarray, w: UtilityMatrix) -> np.ndarray:
    """One policy row per user of ``w`` from one per type; preserves every
    user and item utility.  No solve path calls it, as results stay in type
    space; it stays only while the benchmark under ``perfbench/`` wraps it by
    name (ROADMAP item 14)."""
    return np.asarray(rows_by_type, dtype=float)[w.type_of]


def _coefficient_rows(coef: np.ndarray, by_item: bool = False) -> coo_array:
    """Sparse rows over the flattened K x n policy holding the K x n
    coefficients: one row per type, (K, K*n), or with ``by_item`` one row
    per item, (n, K*n)."""
    k, n = coef.shape
    idx = np.arange(k * n)
    row, num_rows = (idx % n, n) if by_item else (idx // n, k)
    return coo_array((coef.ravel(), (row, idx)), shape=(num_rows, k * n))


def _tie_break(tie_break, measure: FairnessMeasure) -> TieBreak:
    tie_break = TieBreak(tie_break)
    if tie_break is TieBreak.CANONICAL and measure.kind is not MeasureKind.MAX_MIN:
        raise ValueError("the canonical tie-break is defined for the max-min measure only")
    return tie_break


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
    """Item-fairness optimum IF* and an attaining policy, one row per type of
    the ``Problem`` that solved it."""

    value: float
    rows_by_type: np.ndarray
    lp_solution: lp.LPSolution | None = None
    gap: float | None = None


@dataclass(frozen=True)
class UfStarResult:
    """Constrained user-fairness optimum for one gamma and an attaining
    policy, one row per type of the ``Problem`` that solved it.  For the Nash
    measure ``gap`` bounds UF* minus ``value``, computed from that policy."""

    value: float
    rows_by_type: np.ndarray
    if_target: float
    gap: float | None = None


@dataclass(frozen=True, eq=False)
class Problem:
    """One instance, assembled once in type space for every solve on it.

    The constructor checks the measure against the shape and counts the
    users of each of ``w``'s K types, its rows ``w.rows``.  ``b`` holds each
    type's row-normalized user utilities and ``a`` each item's utility
    shares on the delta-transformed matrix, K x n, so that U_k = sum_j
    b[k, j] x[k, j] and I_j = sum_k a[k, j] x[k, j]; ``user_rows`` (K, K*n)
    and ``item_rows`` (n, K*n) are the same as sparse rows over the flattened
    policy, ``simplex`` is the row-stochastic region, and ``favourite_rows``
    each type's uniform mixture over its tied favourite items.  ``if_star``
    and the LP measures' two UF* programs, ``uf_program`` for gamma < 1 and
    ``face_program`` for gamma = 1, are built on first access and shared by
    every solve on the problem.
    """

    w: UtilityMatrix
    model: ItemUtilityModel | None = None
    measure: FairnessMeasure = MAX_MIN
    counts: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    a: np.ndarray = field(init=False)
    user_rows: coo_array = field(init=False)
    item_rows: coo_array = field(init=False)
    simplex: lp.Region = field(init=False)
    favourite_rows: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.measure.k > self.w.m:
            raise ValueError(f"k = {self.measure.k} exceeds the population of {self.w.m} users")
        if self.measure.k > self.w.n:
            raise ValueError(f"k = {self.measure.k} exceeds the catalog of {self.w.n} items")
        model = self.model or ItemUtilityModel()
        counts = reduce_by_types(self.w)
        wt, (k, n) = self.w.rows, self.w.rows.shape
        weighted = counts[:, None] * (model.delta + (1.0 - model.delta) * wt)
        b, a = wt / wt.max(axis=1, keepdims=True), weighted / weighted.sum(axis=0, keepdims=True)
        simplex = lp.Region(k * n, a_eq=_coefficient_rows(np.ones((k, n))), b_eq=np.ones(k))
        derived = dict(model=model, counts=counts, b=b, a=a, simplex=simplex, favourite_rows=_argmax_mixing_rows(wt))
        derived.update(user_rows=_coefficient_rows(b), item_rows=_coefficient_rows(a, by_item=True))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @cached_property
    def if_star(self) -> IfStarResult:
        """Best attainable item fairness: the measure's lift of the item
        rows over the simplex, solved cold, or the Nash item welfare."""
        (k, n), measure = self.b.shape, self.measure
        lp_solution = gap = None
        if measure.kind is MeasureKind.NASH_WELFARE:
            res = nash_concave_solve(LogObjective(self.item_rows.toarray()), (k, n), tol=NASH_IF_TOL)
            _require_certified(res, "item phase (IF*, shared by every gamma > 0)", k, n)
            point, gap = res.point, res.gap
        else:
            _, point, lp_solution = lp.sum_k_smallest_epigraph(self.item_rows, measure.k, self.simplex)
        rows = RecommendationPolicy.from_solver(point.reshape(k, n)).rows
        value = measure_value((self.a * rows).sum(axis=0), measure)
        return IfStarResult(value, rows, lp_solution, gap)

    @cached_property
    def uf_floor(self) -> lp.Region:
        """The simplex and an LP measure's item floor at bound -inf: the floor
        rows are its ``<=`` rows of right-hand side +inf."""
        return lp.sum_k_smallest_floor(self.item_rows, self.measure.k, -np.inf, self.simplex)

    @cached_property
    def uf_program(self) -> lp.WarmLP:
        """The gamma < 1 UF* program of an LP measure: ``uf_floor``, its floor
        rows set per gamma to SLACK - target, then the user lift, its t the
        column just past ``uf_floor``'s variables."""
        return self._user_lift(self.uf_floor)

    @cached_property
    def face_program(self) -> lp.WarmLP:
        """UF*(1)'s program of an LP measure: the user lift over IF*'s optimal
        face, read from the IF* solve's duals, with no floor to back off.  The
        face fixes all but about K + n columns, so the model is that small."""
        return self._user_lift(self.if_star.lp_solution.face)

    def _start_at_favourites(self) -> None:
        """Start ``uf_program``'s next solve from its gamma = 0 optimal basis,
        every type on its one favourite item; with tied favourites that
        optimum is no single point, so leave the start cold.  The carriers,
        the first types whose counts reach the measure's k, hold the user
        lift's multipliers.  Basic: the favourites, t, the s of each carrier
        but the last (none for k = 1), the floor rows' slacks and the other
        types' simplex-row slacks; for k > 1 the item-side t and s sit at 0."""
        k, program, floor = self.b.shape[0], self.uf_program, self.uf_floor
        if np.any(np.count_nonzero(self.favourite_rows, axis=1) > 1):
            return
        carriers = int(np.searchsorted(np.cumsum(self.counts), self.measure.k)) + 1
        t, ub = floor.num_vars, program.region.b_ub.size  # ub: the floor rows, then one lift row per type
        program.start_from(np.r_[np.flatnonzero(self.favourite_rows), t : t + carriers],
                           np.r_[: floor.b_ub.size, ub + carriers : ub + k])

    def _user_lift(self, region: lp.Region) -> lp.WarmLP:
        rows = self.user_rows
        # The user rows read x, the region's first K*n variables, only.
        rows = coo_array((rows.data, (rows.row, rows.col)), shape=(rows.shape[0], region.num_vars))
        return lp.WarmLP(*lp.sum_k_lift(rows, self.measure.k, region, weights=self.counts))


_IF_STAR_CACHE: dict[bytes, IfStarResult] = {}


def _cache_key(w: UtilityMatrix, model: ItemUtilityModel, measure: FairnessMeasure) -> bytes:
    h = hashlib.sha256()
    # Both arrays are frozen contiguous copies, so their buffers hash as is;
    # the shape of the rows tells where the ids begin.
    h.update(w.rows.data)
    h.update(w.type_of.data)
    h.update(f"|{w.rows.shape}|{model.delta!r}|{measure.kind.value}|{measure.k}".encode())
    return h.digest()


def clear_caches() -> None:
    _IF_STAR_CACHE.clear()


def compute_if_star(
    w: UtilityMatrix,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
) -> IfStarResult:
    """``Problem(w, item_model, measure).if_star``, memoized per (matrix,
    delta, measure) under a sha256 key of the whole matrix.

    No solve path calls it; they read the IF* of their ``Problem``.  The
    memo and its three names (``_IF_STAR_CACHE``, ``_cache_key``,
    ``clear_caches``) stay only because the benchmark under ``perfbench/``
    reads them, and go once it stops (ROADMAP item 1)."""
    model = item_model or ItemUtilityModel()
    key = _cache_key(w, model, measure)
    if key not in _IF_STAR_CACHE:
        if len(_IF_STAR_CACHE) > 256:
            _IF_STAR_CACHE.clear()
        _IF_STAR_CACHE[key] = Problem(w, model, measure).if_star
    return _IF_STAR_CACHE[key]


def _argmax_mixing_rows(wt: np.ndarray) -> np.ndarray:
    """Uniform mixture over each type's tied favorite items."""
    ties = wt >= wt.max(axis=1, keepdims=True) * (1.0 - FAVOURITE_TIE)
    return ties / ties.sum(axis=1, keepdims=True)


def _null_space(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis of a's null space by one SVD, at np.linalg.matrix_rank's default tolerance."""
    _, sv, vt = np.linalg.svd(a)
    return vt[np.count_nonzero(sv > sv.max(initial=0.0) * (max(a.shape) * np.finfo(float).eps)) :].T


def min_norm_face_point(
    target: np.ndarray, face: lp.Region, point: np.ndarray, gamma: float
) -> np.ndarray:
    """Nearest point to ``target`` of ``face``, with the variables past
    ``target`` (the epigraph t) held at their values in ``point``.

    An orthonormal null-space basis N (by one SVD) of the face's equalities on
    the free entries writes their affine set as ``point + N z``.  An empty N
    means the face is the vertex ``point``.  If the projection of ``target``
    onto the affine set meets every inequality, it is the answer; otherwise
    one HiGHS QP in z finds it.  A QP answer must be optimal, violate the
    face by at most lp.FACE_TOL and have a KKT residual of at most
    SWEEP_TOL, or LPSolverError with status FAILED is raised.
    """
    n = target.size
    free = np.flatnonzero(face.lb[:n] < face.ub[:n])
    a, column = face.a_eq, np.full(face.num_vars, -1)
    column[free] = np.arange(free.size)
    on = column[a.col] >= 0
    eq = np.zeros((a.shape[0], free.size))
    np.add.at(eq, (a.row[on], column[a.col[on]]), a.data[on])
    basis = _null_space(eq)
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


def compute_uf_star(problem: Problem, gamma: float, tie_break: TieBreak = TieBreak.SOLVER) -> UfStarResult:
    """Best attainable user fairness when the item side must keep a gamma
    fraction of its optimum.  gamma = 0 drops the item constraint entirely.

    Calls on one problem share its type counts, rows, IF* and LP
    programs: a gamma < 1 solve starts ``uf_program`` from the last basis
    left in it, cold on a new problem or after ``clear_basis``, except that
    gamma = 0 starts at its optimum when favourites are unique (every type
    on its one favourite item; with ties the solve is cold).  Gamma = 1
    solves ``face_program`` cold, and its point must keep the item measure
    within lp.FACE_TOL (1 + IF*) of IF* (else LPSolverError, FAILED)."""
    (gamma,) = check_gamma_grid([gamma])
    measure = problem.measure
    tie_break = _tie_break(tie_break, measure)
    k, n = problem.b.shape
    if_value = problem.if_star.value if gamma > 0 else None
    gap = None

    if measure.kind is MeasureKind.NASH_WELFARE:
        if_target = (if_value / gamma) if gamma > 0 else -np.inf
        rows, gap = _nash_uf_rows(problem, gamma, if_target)
    else:
        if_target = gamma * if_value if gamma > 0 else 0.0
        if gamma == 1.0:
            program, b_ub = problem.face_program, problem.face_program.region.b_ub
            program.clear_basis()
        else:
            program = problem.uf_program
            # Only the item floor moves with gamma: its rows of right-hand side +inf at build.
            b_ub = program.region.b_ub.copy()
            b_ub[np.flatnonzero(np.isposinf(problem.uf_floor.b_ub))] = SLACK - if_target if gamma > 0 else np.inf
            if gamma == 0:
                problem._start_at_favourites()
        sol = lp._require_optimal(program.solve(b_ub))
        rows = sol.point[: k * n].reshape(k, n)
        if tie_break is TieBreak.CANONICAL and gamma == 0:
            rows = problem.favourite_rows
        elif tie_break is TieBreak.CANONICAL:
            # The point of the exact optimal face nearest the uniform policy.
            # A symmetry of the instance permutes the face and fixes the
            # uniform policy; the projection is unique, so it inherits every
            # such symmetry, and tied supports end up uniformly mixed.
            rows = min_norm_face_point(np.full(k * n, 1.0 / n), program.optimal_face(), sol.point, gamma)
            rows = rows.reshape(k, n)
        if gamma == 1.0:
            shortfall = if_value - measure_value((problem.a * rows).sum(axis=0), measure)
            if shortfall > lp.FACE_TOL * (1.0 + abs(if_value)):
                raise lp.LPSolverError(lp.LPStatus.FAILED, f"UF*(1), {k}x{n}: its point misses IF* by {shortfall:.3e}")

    policy_rows = RecommendationPolicy.from_solver(rows).rows
    value = measure_value((problem.b * policy_rows).sum(axis=1), measure, weights=problem.counts)
    return UfStarResult(value, policy_rows, if_target, gap)


def _nash_uf_rows(p: Problem, gamma: float, target: float) -> tuple[np.ndarray, float]:
    """The Nash UF* rows and their certificate, the bound on UF* minus
    their welfare.

    At gamma = 0 every type on its favorite items puts each log term at 0,
    the maximum; the certificate is the Frank-Wolfe gap there, 0 unless
    near-ties were mixed.  At gamma > 0 it is one barrier solve of the user
    welfare under the item floor G(x) >= target - SLACK, G the item Nash
    welfare.  The start is the IF* point moved toward the uniform policy by
    theta = min(1/2, (G(x_IF) - tau) / (2 (G(x_IF) - G(uniform)))).  G is
    concave, so the start keeps at least half the IF* point's slack and is
    strictly feasible for every gamma <= 1; at gamma = 1 theta is of order
    SLACK, the IF* point itself.  Below gamma = 1 it keeps every entry away
    from 0, which spares the barrier the Newton steps that only double tiny
    entries.
    """
    if gamma == 0:
        rows = p.favourite_rows
        u = (p.b * rows).sum(axis=1)
        return rows, float(p.counts @ ((1.0 - u) / u))
    k, n = p.b.shape
    item, tau = LogObjective(p.item_rows.toarray()), target - SLACK
    x_if, uniform = p.if_star.rows_by_type.ravel(), np.full(k * n, 1.0 / n)
    g_if = item.value(x_if)
    gain = g_if - item.value(uniform)
    theta = 0.5 if gain <= 0 else min(0.5, 0.5 * (g_if - tau) / gain)
    res = nash_concave_solve(
        LogObjective(p.user_rows.toarray(), p.counts.astype(float)),
        (k, n),
        start=(1.0 - theta) * x_if + theta * uniform,
        constraint=(item, tau),
    )
    _require_certified(res, f"user phase at gamma = {gamma}", k, n)
    return res.point.reshape(k, n), res.gap


def _require_certified(res, phase: str, k: int, n: int) -> None:
    """NonConvergenceError with the solve's context unless ``res`` is certified."""
    if not res.converged:
        raise NonConvergenceError(
            f"Nash {phase}, {k}x{n}: not certified after {res.iterations} Newton steps "
            f"(cap {numerics.MAX_ITER}), last gap {res.gap:.3e}, t = {res.t:.3e}"
        )


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


def price_of_fairness(problem: Problem) -> tuple[float, float, float]:
    """UF*(0), UF*(1) and the price of fairness ``(UF*(0) - UF*(1)) / UF*(0)``.

    UF*(0) is the closed form that puts every type on a favorite item: the
    measure of all-ones user utilities, 1 for max-min and k for sum-k, so no
    program is built for it.  UF*(1) is solved on IF*'s optimal face as a
    sweep solves it, so it equals a sweep's gamma = 1 row."""
    require_price_measure(problem.measure, "price of fairness")
    uf0 = measure_value(np.ones(problem.counts.size), problem.measure, weights=problem.counts)
    uf1 = compute_uf_star(problem, 1.0).value
    return uf0, uf1, (uf0 - uf1) / uf0


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
    ``k`` above the scope's size, are checked before any solve.  Each side's
    ``Problem`` and UF* programs, and the class partition, are built once per
    grid; a side's IF* is solved only if some gamma > 0.  Each UF* solve is
    cold, on purpose, on one program (at gamma = 1 the one on IF*'s face):
    the estimated optimal face is not a point (ROADMAP item 6), and a warm
    start from the previous gamma lands on another of its vertices.

    A user's two rows, and utility under both policies, depend only on their
    type in ``w`` and their type in ``w_hat``, so users are grouped by that
    pair; each class is compared (misestimated or not) and evaluated once,
    on one representative, and weighted by its size.  The multiset of user
    utilities is the per-user one, so the measure takes the same value.
    """
    require_price_measure(measure, "price of misestimation")
    scope = Scope(scope)
    gammas = check_gamma_grid(gammas)
    if (w.m, w.n) != (w_hat.m, w_hat.n):
        raise ValueError("true and estimated matrices must have identical shape")
    tie_break = _tie_break(tie_break, measure)
    ref_p, est_p = Problem(w, item_model, measure), Problem(w_hat, item_model, measure)
    first, user_to_class = first_occurrence(len(w_hat.rows) * w.type_of + w_hat.type_of)
    counts, t_ref, t_est = np.bincount(user_to_class), w.type_of[first], w_hat.type_of[first]
    w_rep = UtilityMatrix(w.rows, type_of=t_ref)
    scoped = misestimated_users(w_rep, UtilityMatrix(w_hat.rows, type_of=t_est))
    if scope is Scope.ALL_USERS:
        scoped = slice(None)
    elif scoped.size == 0:
        raise ValueError("no users are misestimated; the group scope is undefined")
    counts = counts[scoped]
    if measure.k > counts.sum():
        raise ValueError(f"k = {measure.k} exceeds the {counts.sum()} users of the {scope.value} scope")
    poms = []
    for g in gammas:
        for p in (ref_p, est_p):
            p.uf_program.clear_basis()
        ref = compute_uf_star(ref_p, g, tie_break)
        est = compute_uf_star(est_p, g, tie_break)
        u_ref = user_utility_vector(RecommendationPolicy(ref.rows_by_type[t_ref]), w_rep)[scoped]
        u_est = user_utility_vector(RecommendationPolicy(est.rows_by_type[t_est]), w_rep)[scoped]
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


def tradeoff_sweep(
    w: UtilityMatrix,
    gammas,
    item_model: ItemUtilityModel | None = None,
    measure: FairnessMeasure = MAX_MIN,
    tie_break: TieBreak = TieBreak.SOLVER,
) -> TradeoffCurve:
    """Solve the constrained problem across a gamma grid.

    The grid must be strictly increasing inside [0, 1], and the tie-break
    one the measure supports (ValueError otherwise, before anything is
    solved).  The item-side optimum is computed once and shared by every
    row; for the LP measures so is one UF* program, re-solved warm from the
    previous gamma's optimal basis.  A failing gamma is recorded in its row
    and the sweep continues.  The user-fairness column is checked to be
    nonincreasing; a violation means the solver contract is broken and
    raises LPSolverError with status FAILED.
    """
    gammas = check_gamma_grid(gammas)
    tie_break = _tie_break(tie_break, measure)
    p = Problem(w, item_model, measure)
    if_star = p.if_star.value
    rows = []
    prev_ok = np.inf
    for g in gammas:
        start = time.perf_counter()
        try:
            r = compute_uf_star(p, g, tie_break)
        except (lp.LPSolverError, NonConvergenceError) as exc:
            elapsed = (time.perf_counter() - start) * 1000.0
            rows.append(TradeoffRow(g, np.nan, np.nan, np.nan, f"error: {exc}", elapsed))
            continue
        elapsed = (time.perf_counter() - start) * 1000.0
        i_vals = (p.a * r.rows_by_type).sum(axis=0)
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
    return TradeoffCurve(tuple(rows), if_star)
