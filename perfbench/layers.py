"""Which fairrec names the traced run wraps, and the per-layer metrics.

Layers are fairrec's modules.  Each wrapped name is replaced in the
namespace its caller reads it from: ``lp.solve_lp`` calls ``linprog`` through
``fairrec.lp``, the CLI calls I/O and optimizer functions through the names
``fairrec.cli`` imported, ``min_norm_face_point`` imports
``scipy.optimize.minimize`` at call time, and so on.

Times, counts and byte figures are per op (the mean over the traced ops);
latencies are per call.  ``*_bytes`` figures are computed: the LP matrices'
rows x cols x 8, the expanded policy's ``nbytes``, and CSV file sizes.
"""
from __future__ import annotations

import os
import statistics

import numpy as np

from spans import Tracer

_LINPROG_POSITIONAL = {1: "A_ub", 3: "A_eq"}


def _lp_after(info, ctx, args, kwargs, out):
    cells = nnz = 0
    mats = dict(kwargs)
    for pos, key in _LINPROG_POSITIONAL.items():
        if len(args) > pos:
            mats[key] = args[pos]
    for key in ("A_ub", "A_eq"):
        a = mats.get(key)
        if a is None:
            continue
        rows, cols = a.shape
        cells += rows * cols
        nnz += int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))
    info.update(cells=cells, nnz=nnz, iters=int(getattr(out, "nit", 0) or 0))


def _iters_after(info, ctx, args, kwargs, out):
    info["iters"] = int(getattr(out, "nit", 0) or 0)


def _nash_after(info, ctx, args, kwargs, out):
    info.update(iters=int(out.iterations), converged=bool(out.converged))


def _nbytes_after(info, ctx, args, kwargs, out):
    info["bytes"] = int(np.asarray(out).nbytes)


def _file_bytes_after(info, ctx, args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    info["bytes"] = os.path.getsize(path)


def install(tracer: Tracer, fairrec) -> None:
    """Wrap every layer boundary of the imported ``fairrec`` package."""
    import scipy.optimize

    cli, core, lp, numerics, optimizer = (
        fairrec.cli, fairrec.core, fairrec.lp, fairrec.numerics, fairrec.optimizer,
    )
    w = tracer.wrap

    def home_and_cli(home, name, span, before=None, after=None):
        # The CLI imports names into its own namespace; a name it stops
        # importing is no loss, because the home module still has it wrapped.
        w(home, name, span, before=before, after=after)
        if name in vars(cli):
            w(cli, name, span, before=before, after=after)

    w(lp, "linprog", "lp.highs", after=_lp_after)
    w(lp, "_violation", "lp.check")
    for name in ("solve_lp", "solve_maxmin_linear", "sum_k_smallest_epigraph"):
        w(lp, name, "lp.entry")

    cache = getattr(optimizer, "_IF_STAR_CACHE", None)
    if cache is None:
        tracer.missing.append(("fairrec.optimizer._IF_STAR_CACHE", "optimizer.if_star_hit"))

    def if_star_before(args, kwargs):
        return None if cache is None else {id(v) for v in cache.values()}

    def if_star_after(info, ctx, args, kwargs, out):
        if ctx is not None:
            info["hit"] = id(out) in ctx

    home_and_cli(optimizer, "compute_if_star", "optimizer.if_star", if_star_before, if_star_after)
    home_and_cli(optimizer, "compute_uf_star", "optimizer.uf_star")
    home_and_cli(optimizer, "tradeoff_sweep", "optimizer.sweep")
    home_and_cli(optimizer, "price_of_misestimation", "optimizer.sweep")
    w(optimizer, "reduce_by_types", "optimizer.reduce")
    w(optimizer, "expand_policy", "optimizer.expand", after=_nbytes_after)
    w(optimizer, "_cache_key", "optimizer.cache_key")
    w(optimizer, "min_norm_face_point", "numerics.face_point")
    w(optimizer, "nash_concave_solve", "numerics.nash", after=_nash_after)
    w(optimizer, "user_utility_vector", "core.user_utility")
    w(numerics, "dykstra_project", "numerics.dykstra")
    w(scipy.optimize, "minimize", "numerics.slsqp", after=_iters_after)
    w(core.RecommendationPolicy, "__post_init__", "core.policy_check")
    w(core.UtilityMatrix, "__post_init__", "core.matrix_check")

    home_and_cli(fairrec.io, "load_utility_csv", "io.csv_read", after=_file_bytes_after)
    home_and_cli(fairrec.io, "save_utility_csv", "io.csv_write", after=_file_bytes_after)
    home_and_cli(fairrec.io, "write_rows_csv", "io.csv_write", after=_file_bytes_after)
    home_and_cli(fairrec.io, "provenance_lines", "io.format")
    home_and_cli(fairrec.io, "tradeoff_csv_rows", "io.format")
    for name in ("gen_misestimation", "gen_two_type", "gen_homogeneous"):
        home_and_cli(fairrec.populations, name, "populations.gen")
    home_and_cli(fairrec.svg, "save_line_chart", "svg.chart")
    w(cli, "main", "cli.command")
    for name in ("cmd_generate", "cmd_tradeoff", "cmd_misest", "cmd_pof"):
        w(cli, name, "cli.command")


# metric name -> (unit, span names it reads)
PER_LAYER = {
    "lp.solves": ("count/op", ("lp.highs",)),
    "lp.highs_s": ("s/op", ("lp.highs",)),
    "lp.highs_iters": ("count/op", ("lp.highs",)),
    "lp.assembly_s": ("s/op", ("lp.entry", "lp.highs", "lp.check")),
    "lp.check_s": ("s/op", ("lp.check",)),
    "lp.dense_bytes": ("B/op", ("lp.highs",)),
    "lp.nnz": ("count/op", ("lp.highs",)),
    "lp.fill": ("ratio", ("lp.highs",)),
    "optimizer.if_star_s": ("s/op", ("optimizer.if_star",)),
    "optimizer.if_star_calls": ("count/op", ("optimizer.if_star",)),
    "optimizer.if_star_hit_ratio": ("ratio", ("optimizer.if_star", "optimizer.if_star_hit")),
    "optimizer.cache_key_s": ("s/op", ("optimizer.cache_key",)),
    "optimizer.uf_star_ms_p50": ("ms", ("optimizer.uf_star",)),
    "optimizer.uf_star_ms_p90": ("ms", ("optimizer.uf_star",)),
    "optimizer.uf_star_self_s": ("s/op", ("optimizer.uf_star",)),
    "optimizer.reduce_s": ("s/op", ("optimizer.reduce",)),
    "optimizer.reduce_calls": ("count/op", ("optimizer.reduce",)),
    "optimizer.expand_s": ("s/op", ("optimizer.expand",)),
    "optimizer.expand_bytes": ("B/op", ("optimizer.expand",)),
    "core.policy_check_s": ("s/op", ("core.policy_check",)),
    "core.matrix_check_s": ("s/op", ("core.matrix_check",)),
    "core.user_utility_s": ("s/op", ("core.user_utility",)),
    "numerics.face_point_s": ("s/op", ("numerics.face_point",)),
    "numerics.face_point_calls": ("count/op", ("numerics.face_point",)),
    "numerics.slsqp_iters": ("count/op", ("numerics.slsqp",)),
    "numerics.slsqp_accept_ratio": ("ratio", ("numerics.face_point", "numerics.dykstra")),
    "numerics.dykstra_s": ("s/op", ("numerics.dykstra",)),
    "numerics.nash_s": ("s/op", ("numerics.nash",)),
    "numerics.nash_solves": ("count/op", ("numerics.nash",)),
    "numerics.nash_iters": ("count/op", ("numerics.nash",)),
    "numerics.nash_converged_ratio": ("ratio", ("numerics.nash",)),
    "populations.gen_s": ("s/op", ("populations.gen",)),
    "io.csv_write_s": ("s/op", ("io.csv_write",)),
    "io.csv_write_bytes": ("B/op", ("io.csv_write",)),
    "io.csv_read_s": ("s/op", ("io.csv_read",)),
    "io.csv_read_bytes": ("B/op", ("io.csv_read",)),
    "svg.chart_s": ("s/op", ("svg.chart",)),
    "cli.self_s": ("s/op", ("cli.command",)),
    "trace.overhead": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    """Share of successes; with no attempts nothing failed, so the share is 1."""
    return num / den if den else 1.0


def per_layer(tracer: Tracer, ops: list[int], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced ops, and the names reported absent."""
    chosen = set(ops)
    n = len(ops)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if s.op in chosen:
            by_name.setdefault(s.name, []).append(s)
    kids = tracer.children()

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.dur for s in spans(name)) / n

    def self_total(name):
        return sum(s.self_s for s in spans(name)) / n

    def count(name):
        return len(spans(name)) / n

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans(name))

    uf_ms = sorted(s.dur * 1000.0 for s in spans("optimizer.uf_star"))
    face = spans("numerics.face_point")
    accepted = sum(
        1 for s in face if not any(c.name == "numerics.dykstra" for c in kids.get(s.sid, ()))
    )
    nash = spans("numerics.nash")
    if_star = spans("optimizer.if_star")
    values = {
        "lp.solves": count("lp.highs"),
        "lp.highs_s": total("lp.highs"),
        "lp.highs_iters": info_sum("lp.highs", "iters") / n,
        "lp.assembly_s": self_total("lp.entry"),
        "lp.check_s": total("lp.check"),
        "lp.dense_bytes": 8.0 * info_sum("lp.highs", "cells") / n,
        "lp.nnz": info_sum("lp.highs", "nnz") / n,
        "lp.fill": info_sum("lp.highs", "nnz") / max(info_sum("lp.highs", "cells"), 1),
        "optimizer.if_star_s": total("optimizer.if_star"),
        "optimizer.if_star_calls": count("optimizer.if_star"),
        "optimizer.if_star_hit_ratio": _ratio(
            sum(1 for s in if_star if s.info.get("hit")), len(if_star)
        ),
        "optimizer.cache_key_s": total("optimizer.cache_key"),
        "optimizer.uf_star_ms_p50": statistics.median(uf_ms) if uf_ms else None,
        "optimizer.uf_star_ms_p90": _p90(uf_ms),
        "optimizer.uf_star_self_s": self_total("optimizer.uf_star"),
        "optimizer.reduce_s": total("optimizer.reduce"),
        "optimizer.reduce_calls": count("optimizer.reduce"),
        "optimizer.expand_s": total("optimizer.expand"),
        "optimizer.expand_bytes": info_sum("optimizer.expand", "bytes") / n,
        "core.policy_check_s": total("core.policy_check"),
        "core.matrix_check_s": total("core.matrix_check"),
        "core.user_utility_s": total("core.user_utility"),
        "numerics.face_point_s": total("numerics.face_point"),
        "numerics.face_point_calls": count("numerics.face_point"),
        "numerics.slsqp_iters": info_sum("numerics.slsqp", "iters") / n,
        "numerics.slsqp_accept_ratio": _ratio(accepted, len(face)),
        "numerics.dykstra_s": total("numerics.dykstra"),
        "numerics.nash_s": total("numerics.nash"),
        "numerics.nash_solves": count("numerics.nash"),
        "numerics.nash_iters": info_sum("numerics.nash", "iters") / n,
        "numerics.nash_converged_ratio": _ratio(
            sum(1 for s in nash if s.info.get("converged")), len(nash)
        ),
        "populations.gen_s": total("populations.gen"),
        "io.csv_write_s": total("io.csv_write"),
        "io.csv_write_bytes": info_sum("io.csv_write", "bytes") / n,
        "io.csv_read_s": total("io.csv_read"),
        "io.csv_read_bytes": info_sum("io.csv_read", "bytes") / n,
        "svg.chart_s": total("svg.chart"),
        "cli.self_s": self_total("cli.command"),
        "trace.overhead": overhead,
    }
    gone = {span for _, span in tracer.missing}
    metrics, absent = {}, []
    for name, (unit, needs) in PER_LAYER.items():
        if gone.intersection(needs) or values[name] is None:
            absent.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent


def _p90(sorted_ms: list[float]) -> float | None:
    if len(sorted_ms) < 2:
        return sorted_ms[0] if sorted_ms else None
    return statistics.quantiles(sorted_ms, n=10)[8]


def layer_self_share(tracer: Tracer, ops: list[int], op_seconds: float) -> dict[str, float]:
    """Share of traced op time spent in each layer's own code (self time)."""
    chosen = set(ops)
    out: dict[str, float] = {}
    covered = 0.0
    for s in tracer.spans:
        if s.op not in chosen:
            continue
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s.self_s
        if s.parent is None:
            covered += s.dur
    out["unwrapped"] = op_seconds - covered
    return {k: round(v / op_seconds, 4) for k, v in sorted(out.items())}
