"""Command line driver for the fairness-constrained recommendation experiments.

Subcommands cover population generation, tradeoff sweeps, the two prices
(fairness and misestimation), closed-form validation against the LP path,
and the alpha sweep of the mirrored two-type curve.

Exit codes: 0 success, 2 configuration error, 3 solver or validation
failure, 4 input/output error.  Failures also drop an ``error.json``
record next to the requested output, or in the working directory, so
batch runs can be triaged without scraping stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .analytic import TwoTypeSpec, two_type_pof_curve, two_type_solution
from .core import FairnessMeasure, ItemUtilityModel, MeasureKind
from .io import (
    WRITE_BLOCK,
    MatrixFormatError,
    load_utility_csv,
    provenance_lines,
    save_utility_csv,
    tradeoff_csv_rows,
    write_rows_csv,
)
from .lp import LPSolverError, LPStatus
from .numerics import NonConvergenceError
from .optimizer import (
    Problem,
    Scope,
    TieBreak,
    check_gamma_grid,
    compute_uf_star,
    price_of_fairness,
    price_of_misestimation,
    require_price_measure,
    tradeoff_sweep,
)
from .populations import gen_homogeneous, gen_misestimation, gen_two_type
from .svg import save_line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# validate-closed-form fails when LP and closed form disagree by this much
VALIDATE_TOL = 1e-6


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma separated list of numbers, got {text!r}") from None


def _parse_grid(text: str, name: str, min_count: int, count_grid) -> list[float]:
    """Explicit values, or an integer count that ``count_grid`` spreads out;
    ValueError for an empty grid."""
    if text.strip().isdigit():
        count = int(text)
        if count < min_count:
            raise ValueError(f"a {name} count must be at least {min_count}, got {count}")
        grid = count_grid(count)
    else:
        grid = sorted(set(_parse_float_list(text)))
    if not grid:
        raise ValueError(f"empty {name} grid")
    return grid


def parse_gamma_grid(text: str) -> list[float]:
    """Either an integer count (linspace over [0, 1]) or explicit values."""
    return check_gamma_grid(_parse_grid(text, "gamma", 2, lambda c: list(np.linspace(0.0, 1.0, c))))


def parse_alpha_grid(text: str) -> list[float]:
    """Integer count -> interior grid i/(count+1); otherwise explicit values."""
    grid = _parse_grid(text, "alpha", 1, lambda c: [i / (c + 1.0) for i in range(1, c + 1)])
    for a in grid:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha values must lie strictly in (0, 1), got {a}")
    return grid


def _values(args) -> np.ndarray:
    if args.values is None:
        raise ValueError("this command needs --values (comma separated, e.g. 3,2,1)")
    return np.asarray(_parse_float_list(args.values))


def _measure(args) -> FairnessMeasure:
    return FairnessMeasure(MeasureKind(args.measure), k=getattr(args, "k", 1))


def _load_instance(args):
    """Matrix file wins; otherwise build the population the flags describe."""
    if args.matrix is not None:
        return load_utility_csv(args.matrix)
    v = _values(args)
    if args.users is None:
        raise ValueError("recipe mode needs --users")
    if getattr(args, "alpha", None) is not None:
        return gen_two_type(v, float(args.alpha), args.users)
    if getattr(args, "beta", None) is not None:
        return gen_misestimation(v, args.beta, args.users, seed=args.seed).w
    return gen_homogeneous(v, args.users)


def _config_echo(args, keys) -> dict:
    # A flag the run ignores leaves no trace: the recipe flags, which --matrix
    # overrides, and k beyond what the measure uses.
    if getattr(args, "matrix", None) is not None:
        keys = [key for key in keys if key not in ("values", "alpha", "beta", "users")]
    cfg = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    if "k" in cfg:
        cfg["k"] = _measure(args).k
    return cfg


def _write_csv(args, command: str, header, rows, keys, seed=None) -> None:
    """Write the command's CSV, headed by its provenance, when --out is given."""
    if args.out:
        write_rows_csv(args.out, header, rows, provenance_lines(command, _config_echo(args, keys), seed))
        print(f"wrote {args.out}")


def _write_chart(args, xs, series: dict, **labels) -> None:
    """Write the command's line chart when --svg is given."""
    if args.svg:
        save_line_chart(args.svg, xs, series, **labels)
        print(f"chart -> {args.svg}")


def cmd_generate(args) -> int:
    v = _values(args)
    if args.kind == "misest":
        # two coupled matrices, true and estimated
        if args.beta is None:
            raise ValueError("generate misest needs --beta")
        data = gen_misestimation(v, args.beta, args.users, seed=args.seed)
        base = args.out.removesuffix(".csv")
        cfg = _config_echo(args, ["values", "beta", "users"])
        misest_note = "# misestimated_users: " + ",".join(map(str, data.misestimated.tolist()))
        save_utility_csv(base + ".true.csv", data.w, provenance_lines("generate misest", cfg, args.seed))
        save_utility_csv(
            base + ".hat.csv",
            data.w_hat,
            provenance_lines("generate misest", cfg, args.seed) + [misest_note],
        )
        print(f"wrote {base}.true.csv and {base}.hat.csv ({data.misestimated.size} misestimated users)")
        return EXIT_OK
    if args.kind == "two-type":
        if args.alpha is None:
            raise ValueError("generate two-type needs --alpha")
        w, keys, shape = gen_two_type(v, float(args.alpha), args.users), ["values", "alpha", "users"], "two types"
    else:
        w, keys, shape = gen_homogeneous(v, args.users), ["values", "users"], "homogeneous"
    save_utility_csv(args.out, w, provenance_lines(f"generate {args.kind}", _config_echo(args, keys)))
    print(f"wrote {args.out} ({w.m} users x {w.n} items, {shape})")
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    w = _load_instance(args)
    gammas = parse_gamma_grid(args.gammas)
    model = ItemUtilityModel(args.delta)
    curve = tradeoff_sweep(w, gammas, model, _measure(args), tie_break=TieBreak(args.tie_break))
    cfg = _config_echo(
        args, ["matrix", "values", "alpha", "beta", "users", "gammas", "measure", "k", "delta", "tie_break"]
    )
    # The digest of the m x n float64 bytes, fed a block of users at a time.
    digest = hashlib.sha256()
    for s in range(0, w.m, WRITE_BLOCK):
        digest.update(w.rows[w.type_of[s : s + WRITE_BLOCK]])
    cfg["matrix_sha256"] = digest.hexdigest()[:16]
    header, rows = tradeoff_csv_rows(curve)
    write_rows_csv(args.out, header, rows, provenance_lines("tradeoff", cfg, getattr(args, "seed", None)))
    bad = [r for r in curve.rows if r.status != "ok"]
    print(f"IF* = {curve.if_star:.9g}; {len(curve.rows)} gamma points -> {args.out}"
          + (f" ({len(bad)} failed)" if bad else ""))
    series = {
        "user fairness": [r.uf_achieved for r in curve.rows],
        "item fairness": [r.if_achieved for r in curve.rows],
    }
    if len(bad) < len(curve.rows):  # a run whose every gamma failed has nothing to draw
        _write_chart(args, [r.gamma for r in curve.rows], series, title="Fairness tradeoff",
                     x_label="gamma", y_label="normalized fairness")
    if bad:
        raise LPSolverError(
            LPStatus.FAILED, "tradeoff failed at gamma = " + ", ".join(f"{r.gamma:g}" for r in bad)
        )
    return EXIT_OK


def cmd_pof(args) -> int:
    measure = _measure(args)
    require_price_measure(measure, "price of fairness")
    problem = Problem(_load_instance(args), ItemUtilityModel(args.delta), measure)
    uf0, uf1, pof = price_of_fairness(problem)
    print(f"uf_unconstrained = {uf0:.9g}")
    print(f"uf_full_fairness = {uf1:.9g}")
    print(f"pof = {pof:.9g}")
    _write_csv(args, "pof", ["measure", "delta", "uf_unconstrained", "uf_full_fairness", "pof"],
               [[measure.kind.value, args.delta, uf0, uf1, pof]],
               ["matrix", "values", "alpha", "beta", "users", "measure", "k", "delta"])
    return EXIT_OK


def cmd_misest(args) -> int:
    measure = _measure(args)
    require_price_measure(measure, "price of misestimation")
    gammas = parse_gamma_grid(args.gammas)
    scope = Scope(args.scope)
    model = ItemUtilityModel(args.delta)
    data = gen_misestimation(_values(args), args.beta, args.users, seed=args.seed)
    poms = price_of_misestimation(data.w, data.w_hat, gammas, scope, model, measure, TieBreak(args.tie_break))
    rows = [[g, pom] for g, pom in zip(gammas, poms)]
    for g, pom in rows:
        print(f"pom(gamma={g:g}) = {pom:.9g}")
    keys = ["values", "beta", "users", "gammas", "scope", "measure", "k", "delta", "tie_break"]
    _write_csv(args, "misest", ["gamma", "pom"], rows, keys, args.seed)
    _write_chart(args, [r[0] for r in rows], {"price of misestimation": [r[1] for r in rows]},
                 title=f"Price of misestimation ({scope.value})", x_label="gamma", y_label="relative loss")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Cross-check the two-type closed form against the LP on an alpha grid."""
    v = _values(args)
    alphas = parse_alpha_grid(args.alpha)
    m = args.users
    rows = []
    max_if_err = 0.0
    max_uf_err = 0.0
    for a in alphas:
        problem = Problem(gen_two_type(v, a, m))
        realized = float(np.sum(problem.w.type_of == 0)) / m
        sol = two_type_solution(TwoTypeSpec(v, realized))
        if_lp = problem.if_star.value
        uf_lp = compute_uf_star(problem, 1.0).value
        if_err = abs(if_lp - sol.if_star)
        uf_err = abs(uf_lp - sol.uf1)
        max_if_err = max(max_if_err, if_err)
        max_uf_err = max(max_uf_err, uf_err)
        rows.append([a, realized, sol.t, sol.if_star, if_lp, if_err, sol.uf1, uf_lp, uf_err])
    header = ["alpha", "alpha_realized", "pivot", "if_analytic", "if_lp", "if_abs_err",
              "uf1_analytic", "uf1_lp", "uf1_abs_err"]
    _write_csv(args, "validate-closed-form", header, rows, ["values", "alpha", "users"])
    print(f"max |IF*_lp - IF*_analytic| = {max_if_err:.3g} over {len(alphas)} alphas")
    print(f"max |UF*(1)_lp - UF*(1)_analytic| = {max_uf_err:.3g}")
    if max_if_err >= VALIDATE_TOL or max_uf_err >= VALIDATE_TOL:
        print(f"FAIL: deviation exceeds {VALIDATE_TOL:g}", file=sys.stderr)
        raise LPSolverError(
            LPStatus.FAILED,
            f"closed-form validation failed: if_err={max_if_err:.3g} uf_err={max_uf_err:.3g}"
        )
    print("closed form and LP agree")
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    v = _values(args)
    alphas = parse_alpha_grid(args.alpha)
    curve = two_type_pof_curve(v, alphas)
    _write_csv(args, "sweep-alpha", ["alpha", "pivot", "if_star", "uf1", "pof"], curve.tolist(), ["values", "alpha"])
    print(f"{len(alphas)} alphas; pof range [{curve[:, 4].min():.6g}, {curve[:, 4].max():.6g}]")
    series = {"price of fairness": list(curve[:, 4]), "item fairness optimum": list(curve[:, 2])}
    _write_chart(args, list(curve[:, 0]), series, title="Two-type population sweep", x_label="alpha", y_label="value")
    return EXIT_OK


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="utility matrix CSV (overrides recipe flags)")
    p.add_argument("--values", help="item value vector, comma separated")
    p.add_argument("--alpha", type=float, help="two-type population share")
    p.add_argument("--beta", type=float, help="recognized share per type (misest recipe)")
    p.add_argument("--users", type=int, help="population size")
    p.add_argument("--seed", type=int, default=0, help="row permutation seed (misest recipe)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", choices=[m.value for m in MeasureKind], default="maxmin")
    p.add_argument("--k", type=int, default=1,
                   help="tail size for the sumkmin measure; maxmin is sumkmin with k = 1, nash ignores it")
    p.add_argument("--delta", type=float, default=0.0, help="item-side popularity weight")


def _add_tie_break_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tie-break",
        choices=[t.value for t in TieBreak],
        default="solver",
        help="canonical picks the symmetric optimum instead of an arbitrary vertex",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrec",
        description="Max-min recommendation policies under item-fairness constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic population matrices")
    p.add_argument("kind", choices=["two-type", "homogeneous", "misest"])
    p.add_argument("--values", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tradeoff", help="sweep the constrained optimum over gamma")
    _add_instance_flags(p)
    _add_solver_flags(p)
    _add_tie_break_flag(p)
    p.add_argument("--gammas", default="11", help="count (linspace on [0,1]) or comma list")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="also write a line chart here")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("pof", help="price of full item fairness")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pof)

    p = sub.add_parser("misest", help="price of misestimation over gamma")
    p.add_argument("--values", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    _add_tie_break_flag(p)
    p.add_argument("--gammas", default="0,1")
    p.add_argument(
        "--scope",
        choices=[s.value for s in Scope],
        required=True,
        help="evaluate the loss over everyone or only the misestimated users",
    )
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_misest)

    p = sub.add_parser("validate-closed-form", help="LP vs closed form on an alpha grid")
    p.add_argument("--values", default="3,2,1")
    p.add_argument("--alpha", default="9", help="count (interior grid) or comma list")
    p.add_argument("--users", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep-alpha", help="closed-form tradeoff curve over alpha")
    p.add_argument("--values", required=True)
    p.add_argument("--alpha", default="19")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_sweep_alpha)

    return parser


def _error_record(args, exc: Exception, code: int) -> None:
    """Write ``error.json`` beside ``--out``, or in the working directory if that is missing."""
    directory = os.path.dirname(getattr(args, "out", None) or "")
    if not os.path.isdir(directory):
        directory = "."
    record = {
        "command": getattr(args, "command", None),
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    try:
        with open(os.path.join(directory, "error.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        _error_record(args, exc, EXIT_IO)
        return EXIT_IO
    except (LPSolverError, NonConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        _error_record(args, exc, EXIT_SOLVER)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _error_record(args, exc, EXIT_CONFIG)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
