"""Minimal deterministic SVG writers (presentation output only).

Hand-rolled so that identical inputs give byte-identical files; nothing here
is acceptance-relevant beyond producing well-formed SVG.
"""

from __future__ import annotations

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78")
_SATURATE = 0.5  # |delta| at which the heatmap ramp reaches full colour
_CELL = 5  # heatmap cell side
_NCOL, _PANEL_W, _PANEL_H = 3, 260, 170  # small-multiple grid: columns, panel size


def _escape(text: str) -> str:
    """Text as SVG character data: '&', '<' and '>' as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _diverging_color(value: float, white_band: float) -> str:
    """White within the band, then a red/blue ramp saturating at _SATURATE.

    Anything outside the band gets at least one tint step, so only in-band
    cells render pure white.
    """
    if not np.isfinite(value) or abs(value) <= white_band:
        return "#ffffff"
    span = max(_SATURATE - white_band, 1e-12)
    t = min(1.0, (abs(value) - white_band) / span)
    c = min(254, int(round(255 * (1.0 - t))))
    return f"#ff{c:02x}{c:02x}" if value > 0 else f"#{c:02x}{c:02x}ff"


def heatmap_svg(values, row_values, col_values, white_band: float, title: str) -> str:
    """Grid heatmap; rows ascend upward (first row at the bottom)."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    left, top, bottom = 50, 28, 30
    width = left + n_cols * _CELL + 10
    height = top + n_rows * _CELL + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="16" font-family="sans-serif" font-size="12">{_escape(title)}</text>',
    ]
    # one colour per distinct value: a tree's delta takes few values
    distinct, which = np.unique(values, return_inverse=True)
    colors = [_diverging_color(v, white_band) for v in distinct.tolist()]
    for r, row in enumerate(which.reshape(values.shape).tolist()):
        y = top + (n_rows - 1 - r) * _CELL
        parts.extend(
            f'<rect x="{left + c * _CELL}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{colors[k]}"/>'
            for c, k in enumerate(row)
        )
    row_step = max(1, n_rows // 8)
    for r in range(0, n_rows, row_step):
        y = top + (n_rows - 1 - r) * _CELL + _CELL
        parts.append(
            f'<text x="4" y="{y}" font-family="sans-serif" font-size="9">{row_values[r]}</text>'
        )
    col_step = max(1, n_cols // 8)
    for c in range(0, n_cols, col_step):
        parts.append(
            f'<text x="{left + c * _CELL}" y="{height - 10}" font-family="sans-serif" '
            f'font-size="9">{col_values[c]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _drawn(ys: np.ndarray, y_log: bool) -> np.ndarray:
    """Which y values a panel draws: finite ones, and only positive ones on a
    log axis."""
    keep = np.isfinite(ys)
    return keep & (ys > 0) if y_log else keep


def _panel(title, x, lines, dots, x0, y0, y_log):
    """One line/scatter panel as SVG fragments (fixed margins inside the box)."""
    ml, mr, mt, mb = 34, 6, 16, 18
    pw, ph = _PANEL_W - ml - mr, _PANEL_H - mt - mb
    dot_x, dot_y = dots
    keep_lines, keep_dots = _drawn(lines, y_log), _drawn(dot_y, y_log)
    all_y = np.concatenate([lines[keep_lines], dot_y[keep_dots]])
    if y_log:
        all_y = np.log10(all_y)
    # Python's min and max keep the first of equal values (0.0 before -0.0)
    all_y = all_y.tolist() or [0.0]
    y_min, y_max = min(all_y), max(all_y)
    if y_max <= y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(x.min()), float(x.max())
    if x_max <= x_min:
        x_max = x_min + 1.0

    def coords(xs, ys):
        if y_log:
            ys = np.log10(ys)
        sx = x0 + ml + (xs - x_min) / (x_max - x_min) * pw
        sy = y0 + mt + (y_max - ys) / (y_max - y_min) * ph
        return sx.tolist(), sy.tolist()

    parts = [
        f'<rect x="{x0 + ml}" y="{y0 + mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#cccccc"/>',
        f'<text x="{x0 + ml}" y="{y0 + 12}" font-family="sans-serif" font-size="10">'
        f"{_escape(title)}</text>",
        f'<text x="{x0 + 2}" y="{y0 + mt + 8}" font-family="sans-serif" font-size="8">'
        f"{y_max:.3g}</text>",
        f'<text x="{x0 + 2}" y="{y0 + mt + ph}" font-family="sans-serif" font-size="8">'
        f"{y_min:.3g}</text>",
    ]
    for idx, (ys, keep) in enumerate(zip(lines, keep_lines)):
        if keep.any():
            pts = " ".join(map("{:.2f},{:.2f}".format, *coords(x[keep], ys[keep])))
            # series 12k + i: colour i, solid for k = 0 and dashes 3k long after
            k, color = divmod(idx, len(_PALETTE))
            dash = f' stroke-dasharray="{3 * k},2"' if k else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{_PALETTE[color]}" stroke-width="1"{dash}/>'
            )
    parts.extend(
        map(
            '<circle cx="{:.2f}" cy="{:.2f}" r="1.4" fill="#333333"/>'.format,
            *coords(dot_x[keep_dots], dot_y[keep_dots]),
        )
    )
    return parts


def panels_svg(titles, x, lines, dots, y_log: bool) -> str:
    """Small multiples over one x axis, every y axis log10 when y_log. The
    panel titled titles[i] draws each row of lines[i], a (series, len(x))
    array, as a polyline and the (x, y) arrays of dots[i] as points; a panel
    without lines or dots gets empty arrays."""
    nrow = (len(titles) + _NCOL - 1) // _NCOL
    width, height = _NCOL * _PANEL_W, nrow * _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, title in enumerate(titles):
        x0, y0 = (i % _NCOL) * _PANEL_W, (i // _NCOL) * _PANEL_H
        parts.extend(_panel(title, x, lines[i], dots[i], x0, y0, y_log))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
