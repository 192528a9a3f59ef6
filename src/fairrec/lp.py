"""Sparse linear programs with deterministic, vertex-producing solvers.

A feasible set is one ``Region``: sparse equality and ``<=`` rows plus
per-variable bounds, [0, inf) by default.  Programs maximize a linear
objective over a region.  ``sum_k_lift`` lifts the sum of the k smallest
of linear functionals, each row weighted by how often its value occurs, to
a linear program by appending an epigraph block (new variables and ``<=``
rows) to the region, and ``sum_k_smallest_floor`` keeps that sum above a
bound.  Max-min is k = 1, for which both keep t alone, with no slacks and no
certificate row: that layout more than halves the dual simplex iterations of
a warm sweep's first gamma > 0 step (5158 to 2435 on six 100 x 100 sweeps).
The backend is HiGHS, deterministic for a fixed instance; both LP paths
return basic feasible solutions, so optimal points are vertices of the
feasible polyhedron, and both read their optimal face from the duals.

There are two paths.  ``solve_lp`` is the cold one: each call hands one
program to scipy's ``linprog``, which runs HiGHS's interior point method
(IPX), without presolve, with crossover to a basis; the item-fairness
optimum uses it.
``WarmLP`` keeps one HiGHS model alive and re-solves it after its ``<=``
right-hand sides change, starting dual simplex from the previous optimal
basis, or from a basis its caller names (``start_from``), such as a known
optimum; the user-fairness programs use it.
``solve_qp`` solves the small identity-Hessian QPs of the canonical
tie-break.  These two are the only users of scipy's private HiGHS binding,
and hand it each model as arrays through ``passModel``'s array form (and
the Hessian through ``passHessian``'s), not entry by entry.
Both LP paths re-check optimal points against the region before reporting
them; a check failure is surfaced as a distinct FAILED status rather than a
silent wrong answer.  Each solution carries the iterations HiGHS took.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import coo_array, csc_array, issparse, vstack

# Feasibility and optimality tolerances of the solver contract.
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
# A dual or reduced cost above this in magnitude marks an active row or bound,
# and a point that violates a face by at most this lies on it.
FACE_TOL = 1e-9


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


def _coo(a: Any, num_cols: int) -> coo_array:
    if a is None:
        return coo_array((0, num_cols))
    if isinstance(a, coo_array):
        return a
    if issparse(a):
        return coo_array(a)
    return coo_array(np.atleast_2d(np.asarray(a, dtype=float)))


@dataclass(frozen=True)
class Region:
    """{x : a_eq @ x == b_eq, a_ub @ x <= b_ub, lb <= x <= ub}.

    Constraint blocks may be given dense or sparse and are stored as COO
    arrays; ``lb`` and ``ub`` broadcast to one entry per variable.
    """

    num_vars: int
    a_eq: Any = None
    b_eq: Any = ()
    a_ub: Any = None
    b_ub: Any = ()
    lb: Any = 0.0
    ub: Any = np.inf

    def __post_init__(self):
        nv = self.num_vars
        for a_key, b_key in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
            a = _coo(getattr(self, a_key), nv)
            b = np.asarray(getattr(self, b_key), dtype=float)
            if a.shape[1] != nv:
                raise ValueError(f"{a_key} has {a.shape[1]} columns in a region with {nv} variables")
            if b.shape != (a.shape[0],):
                raise ValueError(f"{b_key} has shape {b.shape}, expected ({a.shape[0]},)")
            object.__setattr__(self, a_key, a)
            object.__setattr__(self, b_key, b)
        for key in ("lb", "ub"):
            bound = np.asarray(getattr(self, key), dtype=float)
            if bound.ndim and bound.shape != (nv,):
                raise ValueError(f"{key} has shape {bound.shape}, expected ({nv},)")
            object.__setattr__(self, key, np.broadcast_to(bound, (nv,)))

    def extend(self, a_ub: Any, b_ub: Any, lb: Any = (), ub: Any = ()) -> Region:
        """This region with ``len(lb)`` new variables, bounded by ``lb`` and
        ``ub``, and the rows ``a_ub @ x <= b_ub`` over old and new variables."""
        nv = self.num_vars + len(lb)
        old, new = self.a_ub, _coo(a_ub, nv)
        a = coo_array(
            (
                np.concatenate([old.data, new.data]),
                (np.concatenate([old.row, new.row + old.shape[0]]), np.concatenate([old.col, new.col])),
            ),
            shape=(old.shape[0] + new.shape[0], nv),
        )
        eq = self.a_eq
        if nv > self.num_vars:
            eq = coo_array((eq.data, (eq.row, eq.col)), shape=(eq.shape[0], nv))
        return Region(
            nv,
            eq,
            self.b_eq,
            a,
            np.concatenate([self.b_ub, np.asarray(b_ub, dtype=float)]),
            np.concatenate([self.lb, np.asarray(lb, dtype=float)]),
            np.concatenate([self.ub, np.asarray(ub, dtype=float)]),
        )


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    point: np.ndarray | None = None
    value: float | None = None
    is_vertex: bool = False
    message: str = ""
    face: Region | None = None
    # Simplex or IPX iterations HiGHS took, where the path reports them.
    iterations: int | None = None


class LPSolverError(RuntimeError):
    """Raised by the convenience wrappers when a program has no optimum."""

    def __init__(self, status: LPStatus, message: str = ""):
        self.status = status
        super().__init__(f"LP solve failed with status {status.value}: {message}")


def _violation(region: Region, x: np.ndarray) -> float:
    """Largest constraint or bound violation at x."""
    return float(
        max(
            np.max(region.a_ub @ x - region.b_ub, initial=0.0),
            np.max(np.abs(region.a_eq @ x - region.b_eq), initial=0.0),
            np.max(region.lb - x, initial=0.0),
            np.max(x - region.ub, initial=0.0),
        )
    )


def _check_objective(objective: Any, region: Region) -> np.ndarray:
    objective = np.asarray(objective, dtype=float)
    if objective.shape != (region.num_vars,):
        raise ValueError(f"objective has shape {objective.shape}, expected ({region.num_vars},)")
    return objective


def optimal_face(region: Region, row_dual: Any, col_dual: Any) -> Region:
    """The optimal face of a maximization over ``region``, from one optimal
    dual signed for the minimized negation: ``row_dual`` starting with the
    ``<=`` rows', ``col_dual`` the reduced costs.  By complementary slackness
    it is the feasible set with each ``<=`` row of nonzero dual made an
    equality and each variable of nonzero reduced cost fixed at its bound.
    A zero dual read as nonzero would cut the face, so FACE_TOL stays small."""
    tight = np.abs(np.asarray(row_dual)[: region.b_ub.size]) > FACE_TOL
    cost = np.asarray(col_dual)
    bound = np.where(cost > 0, region.lb, region.ub)
    fixed = (np.abs(cost) > FACE_TOL) & np.isfinite(bound)
    a_ub = region.a_ub.tocsr()
    return Region(
        region.num_vars, vstack((region.a_eq, a_ub[tight])), np.concatenate([region.b_eq, region.b_ub[tight]]),
        a_ub[~tight], region.b_ub[~tight], np.where(fixed, bound, region.lb), np.where(fixed, bound, region.ub),
    )


def solve_lp(objective: np.ndarray, region: Region) -> LPSolution:
    """Maximize ``objective @ x`` over the region; the solution holds its
    optimal face.  Deterministic: identical programs give identical points."""
    objective = _check_objective(objective, region)
    res = linprog(
        -objective,
        A_ub=region.a_ub,
        b_ub=region.b_ub,
        A_eq=region.a_eq,
        b_eq=region.b_eq,
        bounds=np.column_stack([region.lb, region.ub]),
        method="highs-ipm",
        # Presolve removes nothing from these programs; it only costs time.
        options={"presolve": False, "primal_feasibility_tolerance": FEAS_TOL, "dual_feasibility_tolerance": OPT_TOL},
    )
    if res.status == 2:
        return LPSolution(LPStatus.INFEASIBLE, message=res.message)
    if res.status == 3:
        return LPSolution(LPStatus.UNBOUNDED, message=res.message)
    if res.status != 0 or res.x is None:
        return LPSolution(LPStatus.FAILED, message=res.message)
    x = np.asarray(res.x, dtype=float)
    viol = _violation(region, x)
    if not viol <= FEAS_TOL:
        return LPSolution(LPStatus.FAILED, message=f"reported optimum violates constraints by {viol:.3e}")
    value = float(objective @ x)
    # IPX's crossover (on by default) returns a basic feasible solution.
    face = optimal_face(region, res.ineqlin.marginals, res.lower.marginals + res.upper.marginals)
    return LPSolution(LPStatus.OPTIMAL, x, value, is_vertex=True, message=res.message, face=face, iterations=res.nit)


# The model statuses linprog reports as infeasible (2) or unbounded (3);
# every other non-optimal status is a failure.
_HIGHS_STATUS = {
    highs.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    highs.HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
}

# A start basis's statuses by code: at the lower bound, basic, at the upper
# bound, and free at zero.
_BASIS_STATUS = (highs.HighsBasisStatus.kLower, highs.HighsBasisStatus.kBasic,
                 highs.HighsBasisStatus.kUpper, highs.HighsBasisStatus.kZero)


def _highs_lp(cost, a: csc_array, lb, ub, row_lower, row_upper) -> tuple:
    """HiGHS model of ``min cost @ x``, ``row_lower <= a @ x <= row_upper``,
    ``lb <= x <= ub``, as the arguments of ``passModel``'s array form: column-wise
    (1), minimized (1), no offset, every column continuous.  Handing HiGHS
    arrays spares the per-entry copy into a ``HighsLp``."""
    num_row, num_col = a.shape
    floats = [np.ascontiguousarray(v, dtype=np.float64) for v in (cost, lb, ub, row_lower, row_upper, a.data)]
    starts, index = (np.ascontiguousarray(v, dtype=np.int32) for v in (a.indptr, a.indices))
    return (num_col, num_row, a.nnz, 1, 1, 0.0, *floats[:5], starts, index, floats[5], np.zeros(num_col, dtype=np.int32))


def _silent_highs(model: tuple, **options) -> Any:
    """A HiGHS instance holding ``model``, silenced first: HiGHS logs to fd 1."""
    solver = highs._Highs()
    for key, value in {"output_flag": False, "log_to_console": False, **options}.items():
        solver.setOptionValue(key, value)
    if solver.passModel(*model) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejected the model")
    return solver


class WarmLP:
    """One HiGHS dual simplex model of ``max objective @ x`` over a region,
    re-solved from the previous optimal basis after its ``<=`` right-hand
    sides change.

    The model is the one ``solve_lp`` hands to ``linprog``: rows are
    ``[a_ub; a_eq]``, the ``<=`` rows ranged ``(-inf, b_ub]`` and the
    equality rows ``[b_eq, b_eq]``, with each column the region fixes
    (lb == ub) substituted out.  HiGHS's primal feasibility tolerance is
    FEAS_TOL, the bound its optimal points are then checked against, and its
    dual feasibility tolerance OPT_TOL.
    """

    def __init__(self, objective: np.ndarray, region: Region):
        self.objective = objective = _check_objective(objective, region)
        keep = self._keep = region.lb < region.ub
        self.region, self._base = region, np.where(keep, 0.0, region.lb)
        a = csc_array(vstack((region.a_ub, region.a_eq)))
        self._shift = a @ self._base
        lower = np.concatenate([np.full(region.b_ub.size, -np.inf), region.b_eq]) - self._shift
        upper = np.concatenate([region.b_ub, region.b_eq]) - self._shift
        model = _highs_lp(-objective[keep], a[:, keep], region.lb[keep], region.ub[keep], lower, upper)
        self._highs = _silent_highs(model, solver="simplex", simplex_strategy=1,
                                    primal_feasibility_tolerance=FEAS_TOL, dual_feasibility_tolerance=OPT_TOL)

    def solve(self, b_ub: Any) -> LPSolution:
        """Maximize over the region with its ``<=`` right-hand sides set to b_ub."""
        region = replace(self.region, b_ub=np.array(b_ub, dtype=float))
        for row in np.flatnonzero(region.b_ub != self.region.b_ub):
            self._highs.changeRowBounds(int(row), -np.inf, float(region.b_ub[row] - self._shift[row]))
        self.region = region
        self._highs.run()
        status = self._highs.getModelStatus()
        message = self._highs.modelStatusToString(status)
        iterations = self._highs.getInfo().simplex_iteration_count
        if status != highs.HighsModelStatus.kOptimal:
            solution = LPSolution(_HIGHS_STATUS.get(status, LPStatus.FAILED), message=message)
        else:
            x = self._base.copy()
            x[self._keep] = self._highs.getSolution().col_value
            viol = _violation(self.region, x)
            if viol <= FEAS_TOL:
                return LPSolution(LPStatus.OPTIMAL, x, float(self.objective @ x), True, message, iterations=iterations)
            solution = LPSolution(
                LPStatus.FAILED, message=f"reported optimum violates constraints by {viol:.3e}"
            )
        # A basis that ended anywhere but at a checked optimum is no start.
        self.clear_basis()
        return replace(solution, iterations=iterations)

    def clear_basis(self) -> None:
        """Drop the last basis, so that the next solve starts cold."""
        self._highs.clearSolver()

    def start_from(self, basic_cols: Any, basic_rows: Any) -> None:
        """Start the next solve from the basis in which the listed region
        variables and rows of ``[a_ub; a_eq]`` are basic.  Every other row
        sits at its bound (a ``<=`` row at b_ub), every other variable at its
        lower bound, or at zero if that is -inf.  Raises LPSolverError with
        status FAILED if HiGHS rejects the basis."""
        cols = np.where(np.isfinite(self.region.lb), 0, 3)
        rows = np.repeat([2, 0], [self.region.b_ub.size, self.region.b_eq.size])
        cols[basic_cols], rows[basic_rows] = 1, 1
        cols = cols[self._keep]
        basis = highs.HighsBasis()
        basis.col_status, basis.row_status = ([_BASIS_STATUS[s] for s in v.tolist()] for v in (cols, rows))
        basis.valid, basis.alien = True, False
        if self._highs.setBasis(basis) == highs.HighsStatus.kError:
            basic = np.sum(cols == 1) + np.sum(rows == 1)
            raise LPSolverError(LPStatus.FAILED, f"HiGHS rejected a start basis of {basic} basic variables, "
                                                 f"{rows.size} rows and {cols.size} columns")

    def optimal_face(self) -> Region:
        """The optimal face of the last solve, which must have been optimal."""
        duals = self._highs.getSolution()
        cost = np.zeros(self.region.num_vars)
        cost[self._keep] = duals.col_dual
        return optimal_face(self.region, duals.row_dual, cost)


def solve_qp(c: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple[LPSolution, float]:
    """Minimize ``0.5 |z|^2 + c @ z`` over free z subject to ``g @ z <= h``
    by HiGHS's QP solver, then exactly on the rows its duals y hold active
    (and any row z then violates): HiGHS meets rows only to 1e-7.  Also
    returns the KKT residual of (z, y), the largest stationarity
    |z + c - g.T @ y|, sign max(y, 0) or complementarity |y (g @ z - h)| error."""
    d = c.size
    inf = np.full(d, np.inf)
    model = _highs_lp(c, csc_array(g), -inf, inf, np.full(h.size, -np.inf), h)
    # The identity Hessian (lower-triangular, format 1) is positive definite,
    # so HiGHS's default 1e-7 regularization would only move the answer.
    solver = _silent_highs(model, qp_regularization_value=0.0)
    diagonal = np.arange(d + 1, dtype=np.int32)
    solver.passHessian(d, d, 1, diagonal, diagonal[:d], np.ones(d))
    solver.run()
    status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if status != highs.HighsModelStatus.kOptimal:
        return LPSolution(_HIGHS_STATUS.get(status, LPStatus.FAILED), message=message), np.inf
    y = np.array(solver.getSolution().row_dual, dtype=float)
    active = y < -FACE_TOL
    while True:
        z = np.linalg.lstsq(g[active], h[active] + g[active] @ c, rcond=None)[0] - c
        violated = (g @ z - h > 1e-12) & ~active
        if not violated.any():
            break
        active |= violated
    kkt = np.max(np.concatenate([np.abs(z + c - g.T @ y), y, np.abs(y * (g @ z - h)), [0.0]]))
    return LPSolution(LPStatus.OPTIMAL, point=z, message=message), float(kkt)


def _require_optimal(solution: LPSolution) -> LPSolution:
    if solution.status is not LPStatus.OPTIMAL:
        raise LPSolverError(solution.status, solution.message)
    return solution


def _check_rows(rows: Any, region: Region):
    rows = rows if issparse(rows) else np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != region.num_vars:
        raise ValueError(f"rows have {rows.shape[1]} coefficients, region has {region.num_vars} variables")
    return rows


def _epigraph_rows(rows: Any, nv: int, slacks: bool) -> coo_array:
    """Rows ``t - row_r . x (- s_r) <= 0`` over (x, t[, s]), t at column nv."""
    r = _coo(rows, nv)
    m = r.shape[0]
    idx = np.arange(m)
    data, row, col = [-r.data, np.ones(m)], [r.row, idx], [r.col, np.full(m, nv)]
    if slacks:
        data.append(-np.ones(m))
        row.append(idx)
        col.append(nv + 1 + idx)
    return coo_array(
        (np.concatenate(data), (np.concatenate(row), np.concatenate(col))),
        shape=(m, nv + 1 + (m if slacks else 0)),
    )


def sum_k_lift(rows: Any, k: int, region: Region, weights: Any = None) -> tuple[np.ndarray, Region]:
    """Epigraph lift of the sum of the k smallest of ``rows @ x``, row r
    counted ``weights[r]`` times (once by default): the objective and region
    of ``max k*t - sum_r weights_r s_r`` over (x, t, s) with
    t - row_r . x - s_r <= 0 appended after the region's own ``<=`` rows,
    t free and s >= 0.  It is exact for any multiplicities: the sum of the k
    smallest of a multiset holding U_r c_r times is
    ``max_t k*t - sum_r c_r (t - U_r)_+``, attained at its k-th smallest.
    For k = 1 it is ``max t`` with no s: a minimum ignores multiplicities."""
    rows = _check_rows(rows, region)
    nv, m = region.num_vars, rows.shape[0]
    weights = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if not 1 <= k <= weights.sum():
        raise ValueError(f"k must lie in [1, {weights.sum():g}], got {k}")
    s = m if k > 1 else 0
    lb = np.concatenate([[-np.inf], np.zeros(s)])
    lifted = region.extend(_epigraph_rows(rows, nv, slacks=s > 0), np.zeros(m), lb, np.full(1 + s, np.inf))
    objective = np.concatenate([np.zeros(nv), [float(k)], -weights[:s]])
    return objective, lifted


def sum_k_smallest_epigraph(rows: Any, k: int, region: Region) -> tuple[float, np.ndarray, LPSolution]:
    """Maximize the sum of the k smallest of the given linear functionals
    through ``sum_k_lift``.  Returns (value, point, solution): the value the
    point attains, exactly achievable as a later bound, the point's
    region.num_vars entries and the lifted program's LPSolution."""
    rows = _check_rows(rows, region)
    sol = _require_optimal(solve_lp(*sum_k_lift(rows, k, region)))
    point = sol.point[: region.num_vars]
    # One row makes ``rows @ point`` 0-d.
    return float(np.sort(np.atleast_1d(rows @ point))[:k].sum()), point, sol


def solve_maxmin_linear(rows: Any, region: Region) -> tuple[float, np.ndarray, LPSolution]:
    """``sum_k_smallest_epigraph`` with k = 1.  No solve path calls it; it
    stays while the benchmark under ``perfbench/`` wraps it by name."""
    return sum_k_smallest_epigraph(rows, 1, region)


def sum_k_smallest_floor(rows: Any, k: int, bound: float, region: Region) -> Region:
    """The region with rows keeping the sum of the k smallest of ``rows @ x``
    at or above ``bound``: for k = 1 the rows ``-row_r . x <= -bound``, else
    ``sum_k_lift``'s with the certificate row ``-(k*t - sum_r s_r) <= -bound``."""
    if k == 1:
        rows = _check_rows(rows, region)
        return region.extend(-rows, np.full(rows.shape[0], -bound))
    objective, lifted = sum_k_lift(rows, k, region)
    return lifted.extend(-objective[None, :], [-bound])
