"""Minimal deterministic SVG line charts.

No timestamps, no randomness, fixed float formatting: the same data always
produces the same bytes.
"""

from html import escape
from math import isfinite

from .errors import EmptyData

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 62
_MARGIN_R = 18
_MARGIN_T = 34
_MARGIN_B = 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_TICKS = 5


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.4g}"


def emit_svg(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render named (x, y) series as one SVG line chart.

    ``series`` is a sequence of (name, points) pairs, points being (x, y)
    tuples.  Points with a NaN or infinite coordinate are left out; a
    series left with none keeps only its legend entry, marked "(no finite
    points)".  The title, axis labels and series names are escaped as XML
    text (html.escape, which loads far less than xml.sax.saxutils).  Raises
    EmptyData when there is nothing to draw.
    """
    series = [(name, [(float(x), float(y)) for x, y in pts]) for name, pts in series]
    series = [(name, [pt for pt in pts if isfinite(pt[0]) and isfinite(pt[1])]) for name, pts in series]
    all_pts = [pt for _, pts in series for pt in pts]
    if not all_pts:
        raise EmptyData("no finite points to plot")
    xs = [pt[0] for pt in all_pts]
    ys = [pt[1] for pt in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    # frame and ticks
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for k in range(_TICKS + 1):
        fx = x_lo + (x_hi - x_lo) * k / _TICKS
        px = sx(fx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_label(fx)}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * k / _TICKS
        py = sy(fy)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_label(fy)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(py)}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#eee"/>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(xlabel, quote=False)}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.0f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {cy:.0f})">{escape(ylabel, quote=False)}</text>'
        )
    for i, (name, pts) in enumerate(series):
        ly = _MARGIN_T + 16 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        label = escape(str(name), quote=False)
        if not pts:  # an undefined series keeps its legend entry, and says so
            parts.append(
                f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">'
                f"{label} (no finite points)</text>"
            )
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" fill="{color}"/>')
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
