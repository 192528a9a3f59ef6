"""CSV serialization for utility matrices and experiment outputs.

Matrix format: header row "user_id,<item ids>", one row per user, strictly
positive decimals, UTF-8 with LF endings.  Lines starting with '#' are
provenance comments and are skipped on load.  Numbers are written with 12
significant digits, enough to verify 1e-6 tolerances without false diffs.
"""
from __future__ import annotations

import numpy as np

from . import __version__
from .core import UtilityMatrix


class MatrixFormatError(ValueError):
    """Raised when a utility CSV violates the format contract."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def provenance_lines(command: str, config: dict, seed: int | None = None) -> list[str]:
    """Comment block embedded at the top of every output file.

    Deliberately contains no timestamps or host details: rerunning the same
    command must reproduce output files byte for byte (timing columns are
    the documented exception).
    """
    from . import lp
    from .numerics import GAP_TOL

    items = " ".join(f"{k}={config[k]}" for k in sorted(config))
    lines = [
        f"# fairrec {__version__}",
        f"# command: {command}",
        f"# config: {items}",
        f"# tolerances: feasibility={lp.FEAS_TOL:g} optimality={lp.OPT_TOL:g} nash_gap={GAP_TOL:g}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return lines


def save_utility_csv(path, w: UtilityMatrix, provenance: list[str] | None = None) -> None:
    m, n = w.m, w.n
    users = w.user_labels if w.user_labels is not None else [f"u{i}" for i in range(m)]
    items = w.item_labels if w.item_labels is not None else [f"i{j}" for j in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in provenance or []:
            fh.write(line + "\n")
        fh.write("user_id," + ",".join(items) + "\n")
        for i in range(m):
            fh.write(users[i] + "," + ",".join(_fmt(v) for v in w.values[i]) + "\n")


def load_utility_csv(path) -> UtilityMatrix:
    """Parse and validate a utility matrix; errors name the offending cell."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MatrixFormatError(f"{path}: no content rows")
    header = lines[0].split(",")
    if header[0] != "user_id":
        raise MatrixFormatError(f"{path}: header must start with 'user_id', got {header[0]!r}")
    if len(header) < 2:
        raise MatrixFormatError(f"{path}: header names no items")
    item_labels = header[1:]
    n = len(item_labels)
    user_labels = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise MatrixFormatError(
                f"{path}: line {lineno} has {len(cells) - 1} values, expected {n}"
            )
        uid = cells[0]
        row = np.empty(n)
        for j, cell in enumerate(cells[1:]):
            try:
                row[j] = float(cell)
            except ValueError:
                raise MatrixFormatError(
                    f"{path}: cell (user {uid!r}, item {item_labels[j]!r}) is not a number: {cell!r}"
                ) from None
            if not row[j] > 0:
                raise MatrixFormatError(
                    f"{path}: cell (user {uid!r}, item {item_labels[j]!r}) must be strictly "
                    f"positive, got {cell}"
                )
        user_labels.append(uid)
        rows.append(row)
    if not rows:
        raise MatrixFormatError(f"{path}: no user rows")
    return UtilityMatrix(
        np.asarray(rows), user_labels=tuple(user_labels), item_labels=tuple(item_labels)
    )


def write_rows_csv(path, header: list[str], rows, provenance: list[str] | None = None) -> None:
    """Generic tidy-CSV writer: one observation per row, 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in provenance or []:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else _fmt(float(cell)) for cell in row]
            fh.write(",".join(cells) + "\n")


def tradeoff_csv_rows(curve) -> tuple[list[str], list[list]]:
    header = ["gamma", "if_star", "if_target", "uf_achieved", "if_achieved", "status", "solve_ms"]
    rows = []
    for r in curve.rows:
        rows.append(
            [r.gamma, curve.if_star, r.if_target, r.uf_achieved, r.if_achieved, r.status, r.solve_ms]
        )
    return header, rows
