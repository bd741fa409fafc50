"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: identical input must give byte-identical output, so
every coordinate is formatted with a fixed precision and elements are emitted
in a fixed order. No external renderer gets a say.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

WIDTH = 640
HEIGHT = 400
MARGIN_L = 56
MARGIN_R = 150
MARGIN_T = 34
MARGIN_B = 42

PALETTE = ("#2563eb", "#dc2626", "#059669", "#9333ea", "#d97706", "#0891b2", "#4b5563")


def escape(text: str) -> str:
    """Escape &, > and < for XML character data, in that order, as
    xml.sax.saxutils.escape does by default; importing that module would
    load urllib, http and email with it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class SeriesPoint(NamedTuple):
    x: float
    y: float
    ci: float = 0.0


class Series(NamedTuple):
    label: str
    points: tuple[SeriesPoint, ...]


def _f(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _ranges(series: Sequence[Series]) -> tuple[float, float, float, float]:
    xs = [p.x for s in series for p in s.points]
    ys = [p.y + p.ci for s in series for p in s.points]
    ys += [p.y - p.ci for s in series for p in s.points]
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = min(0.0, min(ys))
    y_hi = max(1.0, max(ys))
    return x_lo, x_hi, y_lo, y_hi


def render_chart(title: str, series: Sequence[Series]) -> str:
    """One line chart: markers and a line per series, a translucent interval
    band around each series, fixed axes spanning at least [0, 1] on y."""
    x_lo, x_hi, y_lo, y_hi = _ranges(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{MARGIN_L}" y="20" font-size="14" fill="#111111">{escape(title)}</text>'
    )
    # axes
    ax_bottom = HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{ax_bottom}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{ax_bottom}" x2="{WIDTH - MARGIN_R}" y2="{ax_bottom}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    # y ticks at 5 even divisions
    for i in range(6):
        y_val = y_lo + (y_hi - y_lo) * i / 5
        y_pix = py(y_val)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_f(y_pix)}" x2="{MARGIN_L}" y2="{_f(y_pix)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_f(y_pix + 4)}" text-anchor="end" '
            f'fill="#333333">{_f(y_val)}</text>'
        )
    # x ticks at the distinct point positions (bounded to 12 labels)
    xs = sorted({p.x for s in series for p in s.points})
    step = max(1, (len(xs) + 11) // 12)
    for x_val in xs[::step]:
        x_pix = px(x_val)
        parts.append(
            f'<line x1="{_f(x_pix)}" y1="{ax_bottom}" x2="{_f(x_pix)}" y2="{ax_bottom + 4}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        label = f"{x_val:g}"
        parts.append(
            f'<text x="{_f(x_pix)}" y="{ax_bottom + 18}" text-anchor="middle" '
            f'fill="#333333">{escape(label)}</text>'
        )
    # series bands, lines, markers
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = s.points
        if len(pts) >= 2 and any(p.ci > 0 for p in pts):
            upper = [f"{_f(px(p.x))},{_f(py(p.y + p.ci))}" for p in pts]
            lower = [f"{_f(px(p.x))},{_f(py(p.y - p.ci))}" for p in reversed(pts)]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
        for p in pts:
            if p.ci > 0:
                x_pix = _f(px(p.x))
                parts.append(
                    f'<line x1="{x_pix}" y1="{_f(py(p.y - p.ci))}" x2="{x_pix}" '
                    f'y2="{_f(py(p.y + p.ci))}" stroke="{color}" stroke-width="1"/>'
                )
        if len(pts) >= 2:
            path = " ".join(f"{_f(px(p.x))},{_f(py(p.y))}" for p in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for p in pts:
            parts.append(
                f'<circle cx="{_f(px(p.x))}" cy="{_f(py(p.y))}" r="3" fill="{color}"/>'
            )
    # legend
    legend_x = WIDTH - MARGIN_R + 12
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y_pix = MARGIN_T + 10 + idx * 18
        parts.append(
            f'<rect x="{legend_x}" y="{y_pix - 8}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="{y_pix + 1}" fill="#111111">{escape(s.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
