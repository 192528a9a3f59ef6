"""CSV serialization for utility matrices and experiment outputs.

Matrix format: header row "user_id,<item ids>", one row per user, strictly
positive decimals, UTF-8 with LF endings.  Lines starting with '#' are
provenance comments and are skipped on load.  Numbers are written with 12
significant digits, enough to verify 1e-6 tolerances without false diffs.

Populations repeat a few type rows many times, so each type row of the
matrix is formatted once on save, and users are written, labels made, a
block at a time.  The loader reads a line at a time and parses and checks
each distinct value string once, into one type row per distinct row.
Neither makes an m x n array.  Files and error messages are those of a
per-row pass: every bad cell, infinite ones too, names the file, its first
user and item.
"""
from __future__ import annotations

import numpy as np

from . import __version__
from .core import UtilityMatrix

# Users written per block, so that the file is never held whole in memory.
WRITE_BLOCK = 4096


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
    """Write ``w`` in the matrix format; labels that would not load back
    raise MatrixFormatError before the file is opened."""
    for kind, labels in (("user", w.user_labels or ()), ("item", w.item_labels or ())):
        for label in labels:
            if "," in label or "\n" in label or "\r" in label or kind == "user" and label.startswith("#"):
                raise MatrixFormatError(f"{path}: {kind} label {label!r} would not load back; labels may not "
                                        f"hold ',', '\\n' or '\\r', and user labels may not start with '#'")
    items = w.item_labels if w.item_labels is not None else [f"i{j}" for j in range(w.n)]
    tails = [f",{','.join(map(_fmt, row))}\n".encode() for row in w.rows]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in [*(provenance or []), "user_id," + ",".join(items)]).encode())
        for s in range(0, w.m, WRITE_BLOCK):
            stop = min(s + WRITE_BLOCK, w.m)
            users = w.user_labels[s:stop] if w.user_labels is not None else [f"u{i}" for i in range(s, stop)]
            parts = [b""] * (2 * (stop - s))
            parts[::2] = map(str.encode, users)
            parts[1::2] = map(tails.__getitem__, w.type_of[s:stop].tolist())
            fh.write(b"".join(parts))


def _parse_row(path, lineno: int, line: str, item_labels: list[str]) -> np.ndarray:
    """Values of one user line; errors name the offending cell."""
    n = len(item_labels)
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
        if not 0 < row[j] < np.inf:
            rule = "strictly positive" if row[j] <= 0 else "finite"
            raise MatrixFormatError(f"{path}: cell (user {uid!r}, item {item_labels[j]!r}) must be {rule}, got {cell}")
    return row


def load_utility_csv(path) -> UtilityMatrix:
    """Parse and validate a utility matrix; errors name the offending cell.
    The file is read a line at a time; line numbers count content lines."""
    with open(path, encoding="utf-8") as fh:
        lines = (ln for ln in fh if not ln.isspace() and not ln.startswith("#"))
        header = next(lines, None)
        if header is None:
            raise MatrixFormatError(f"{path}: no content rows")
        header = header.rstrip("\n").split(",")
        if header[0] != "user_id":
            raise MatrixFormatError(f"{path}: header must start with 'user_id', got {header[0]!r}")
        if len(header) < 2:
            raise MatrixFormatError(f"{path}: header names no items")
        item_labels = header[1:]
        user_labels, type_of = [], []
        # Each distinct value string is parsed and checked once, and tails that
        # parse to the same row share its type; a repeat of a tail that passed
        # needs no check, so the first bad line still raises.
        tails: dict[str, int] = {}
        rows: dict[bytes, int] = {}
        for lineno, line in enumerate(lines, start=2):
            uid, comma, tail = line.partition(",")
            t = tails.get(tail) if comma else None
            if t is None:
                row = _parse_row(path, lineno, line.rstrip("\n"), item_labels)
                t = tails[tail] = rows.setdefault(row.tobytes(), len(rows))
            user_labels.append(uid)
            type_of.append(t)
    if not type_of:
        raise MatrixFormatError(f"{path}: no user rows")
    values = np.frombuffer(b"".join(rows)).reshape(len(rows), len(item_labels))
    return UtilityMatrix(values, tuple(user_labels), tuple(item_labels), type_of=type_of)


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
