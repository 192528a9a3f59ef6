"""Static SVG line charts, written directly with no rendering dependency.

Just enough for the experiment CLI: axes, min/mid/max ticks, one polyline
per series, a small legend.  Output is deterministic for identical input.
"""
from __future__ import annotations

from itertools import groupby
from math import isfinite

W, H = 640, 420
ML, MR, MT, MB = 62, 20, 42, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
# xml.sax.saxutils.escape's three entities; importing that module loads urllib, http and ssl.
_ENTITIES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _span(values):
    lo = min(values)
    hi = max(values)
    if hi - lo < 1e-12:
        pad = 0.5 if abs(hi) < 1e-12 else abs(hi) * 0.05
        return lo - pad, hi + pad
    return lo, hi


def line_chart(
    x,
    series: dict,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render series {name: ys} over shared xs into an SVG document string.

    Non-finite entries break the polyline and stay out of the y-range.
    """
    x = [float(v) for v in x]
    if not x or not series:
        raise ValueError("line_chart needs at least one point and one series")
    ys_all = [float(v) for ys in series.values() for v in ys if isfinite(v)]
    if not ys_all:
        raise ValueError("line_chart has no finite y values")
    x0, x1 = _span(x)
    y0, y1 = _span(ys_all)

    def px(v):
        return ML + (v - x0) / (x1 - x0) * (W - ML - MR)

    def py(v):
        return H - MB - (v - y0) / (y1 - y0) * (H - MT - MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
            f"{title.translate(_ENTITIES)}</text>"
        )
    # axes
    out.append(
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>'
    )
    out.append(f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xp, yp = px(xv), py(yv)
        out.append(f'<line x1="{xp:.1f}" y1="{H - MB}" x2="{xp:.1f}" y2="{H - MB + 5}" stroke="black"/>')
        out.append(
            f'<text x="{xp:.1f}" y="{H - MB + 18}" text-anchor="middle">{xv:.3g}</text>'
        )
        out.append(f'<line x1="{ML - 5}" y1="{yp:.1f}" x2="{ML}" y2="{yp:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{ML - 8}" y="{yp + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{(ML + W - MR) / 2:.1f}" y="{H - 12}" text-anchor="middle">'
            f"{x_label.translate(_ENTITIES)}</text>"
        )
    if y_label:
        out.append(
            f'<text x="16" y="{(MT + H - MB) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(MT + H - MB) / 2:.1f})">{y_label.translate(_ENTITIES)}</text>'
        )
    for idx, (name, ys) in enumerate(series.items()):
        color = COLORS[idx % len(COLORS)]
        for finite, run in groupby(zip(x, ys), key=lambda p: isfinite(p[1])):
            if not finite:
                continue
            chunk = [f"{px(xv):.2f},{py(float(yv)):.2f}" for xv, yv in run]
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
            else:
                out.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"/>'
                )
        ly = MT + 16 * idx
        out.append(f'<line x1="{W - MR - 130}" y1="{ly}" x2="{W - MR - 108}" y2="{ly}" stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{W - MR - 102}" y="{ly + 4}">{str(name).translate(_ENTITIES)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_line_chart(path, x, series: dict, **kw) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_chart(x, series, **kw))
