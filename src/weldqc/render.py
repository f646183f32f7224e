"""Minimal static SVG renderings of the standard report graphics.

These are intentionally bare-bones data sketches (no plotting engine, no
styling system): ranked boxplots, a histogram, the rework control chart, and
the cluster dendrogram.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .rework import IN_CONTROL

W, H = 720, 420
MARGIN = 60


def _svg(elements: list[str], width: int = W, height: int = H) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def _line(x1, y1, x2, y2, color="#333", width=1.0) -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{color}" stroke-width="{width}"/>'
    )


def _rect(x, y, w, h, fill="#9ecae1") -> str:
    return f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" fill="{fill}" stroke="#333"/>'


def _text(x, y, s, size=10, anchor="middle") -> str:
    # what xml.sax.saxutils.escape does, without the 7 MB of modules that importing it loads
    s = str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" text-anchor="{anchor}">{s}</text>'


def _scale(lo: float, hi: float, pixel_lo: float, pixel_hi: float):
    span = hi - lo if hi > lo else 1.0

    def to_pixel(v: float) -> float:
        return pixel_lo + (v - lo) / span * (pixel_hi - pixel_lo)

    return to_pixel


def boxplot_svg(labels: Sequence[str], summaries) -> str:
    """Side-by-side boxes from five-number summaries, in the given order."""
    values = [v for s in summaries for v in (s.whisker_low, s.whisker_high, *s.outliers)]
    to_y = _scale(min(values), max(values), H - MARGIN, MARGIN)
    slot = (W - 2 * MARGIN) / max(len(labels), 1)
    box_w = min(30.0, slot * 0.6)
    parts = [_line(MARGIN, H - MARGIN, W - MARGIN, H - MARGIN)]
    for i, (label, s) in enumerate(zip(labels, summaries)):
        cx = MARGIN + slot * (i + 0.5)
        parts.append(_line(cx, to_y(s.whisker_low), cx, to_y(s.q1)))
        parts.append(_line(cx, to_y(s.q3), cx, to_y(s.whisker_high)))
        parts.append(_rect(cx - box_w / 2, to_y(s.q3), box_w, to_y(s.q1) - to_y(s.q3)))
        parts.append(_line(cx - box_w / 2, to_y(s.median), cx + box_w / 2, to_y(s.median), width=2))
        for v in s.outliers:
            parts.append(f'<circle cx="{cx:.1f}" cy="{to_y(v):.1f}" r="2" fill="#333"/>')
        parts.append(_text(cx, H - MARGIN + 14, str(label), size=9))
    return _svg(parts)


def histogram_svg(samples, bins: int = 20) -> str:
    data = np.asarray(samples, dtype=float)
    counts, edges = np.histogram(data, bins=bins)
    to_x = _scale(edges[0], edges[-1], MARGIN, W - MARGIN)
    to_y = _scale(0, max(counts.max(), 1), H - MARGIN, MARGIN)
    parts = [_line(MARGIN, H - MARGIN, W - MARGIN, H - MARGIN)]
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        x = to_x(lo)
        parts.append(_rect(x, to_y(count), to_x(hi) - x, (H - MARGIN) - to_y(count)))
    parts.append(_text(MARGIN, H - MARGIN + 14, f"{edges[0]:.4f}", anchor="start"))
    parts.append(_text(W - MARGIN, H - MARGIN + 14, f"{edges[-1]:.4f}", anchor="end"))
    return _svg(parts)


def control_chart_svg(series) -> str:
    points = series.points
    limits = series.limits
    ys = [limits.lcl, limits.ucl] + [p.band_low for p in points] + [p.band_high for p in points]
    to_y = _scale(min(ys), max(ys), H - MARGIN, MARGIN)
    to_x = _scale(points[0].state, max(points[-1].state, points[0].state + 1), MARGIN, W - MARGIN)
    parts = [_line(MARGIN, H - MARGIN, W - MARGIN, H - MARGIN)]
    for value, name, color in (
        (limits.ucl, "UCL", "#b30000"),
        (limits.cl, "CL", "#555"),
        (limits.lcl, "LCL", "#b30000"),
    ):
        parts.append(_line(MARGIN, to_y(value), W - MARGIN, to_y(value), color=color))
        parts.append(_text(W - MARGIN + 4, to_y(value) + 3, name, size=9, anchor="start"))
    previous = None
    for p in points:
        x = to_x(p.state)
        parts.append(_line(x, to_y(p.band_low), x, to_y(p.band_high), color="#888"))
        dot = "#b30000" if p.flag != IN_CONTROL else "#08519c"
        parts.append(f'<circle cx="{x:.1f}" cy="{to_y(p.median):.1f}" r="3" fill="{dot}"/>')
        if previous is not None:
            parts.append(_line(previous[0], previous[1], x, to_y(p.median), color="#08519c"))
        previous = (x, to_y(p.median))
        parts.append(_text(x, H - MARGIN + 14, str(p.state), size=9))
    return _svg(parts)


def dendrogram_svg(tree) -> str:
    from .complexity import dendrogram_segments, leaf_order

    order = leaf_order(tree)
    segments = dendrogram_segments(tree, order)
    to_x = _scale(-0.5, len(order) - 0.5, MARGIN, W - MARGIN)
    # the top merge sets the scale; _scale spans 1.0 when it is not above 0
    to_y = _scale(0.0, max((m.height for m in tree.merges), default=0.0), H - MARGIN, MARGIN)
    # one template for every segment: "%.1f" % v prints what _line's f"{v:.1f}" does
    line = '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333" stroke-width="1.0"/>'
    parts = [line % (to_x(x1), to_y(y1), to_x(x2), to_y(y2)) for (x1, y1), (x2, y2) in segments]
    for pos, leaf in enumerate(order):
        parts.append(_text(to_x(pos), H - MARGIN + 14, tree.labels[leaf], size=8))
    return _svg(parts)
