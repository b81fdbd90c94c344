"""Proportional-area Venn rendering of the variance regions.

For two predictors without suppression the regions admit an exact
two-circle layout: each circle's area is the predictor's unique SS plus
the common SS (its marginal simple-regression SS), and the center
distance is solved so the lens area equals the common SS. The residual
appears as a separate disc on the same area scale, so every disc and the
lens are proportional to their sums of squares. With more than two
predictors, or a negative common region, no faithful two-circle geometry
exists and the renderer falls back to a text panel of the aggregates.

Output is plain SVG 1.1 text, deterministic for identical inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decomposition import OVERLAP_NOISE, VennRegions
from .textfmt import fmt2

# Fill colors: predictor circles, residual disc.
_PALETTE = ("#4e79a7", "#f28e2b", "#76b7b2")
_STROKE = ("#31506f", "#a85f16", "#4b7d79")
_FONT = "Helvetica, Arial, sans-serif"

_DRAW_W = 600.0
_DRAW_H = 300.0
_MARGIN = 20.0
_ROW_H = 18.0


class CirclePlacement(NamedTuple):
    label: str
    cx: float
    cy: float
    r: float


def _lens_area(d: float, r: float, s: float) -> float:
    """Area of intersection of circles with radii r, s at center distance d."""
    if d <= abs(r - s):
        m = min(r, s)
        return math.pi * m * m
    if d >= r + s:
        return 0.0
    # clamp guards acos against last-ulp excursions outside [-1, 1]
    a = max(-1.0, min(1.0, (d * d + r * r - s * s) / (2.0 * d * r)))
    b = max(-1.0, min(1.0, (d * d + s * s - r * r) / (2.0 * d * s)))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r + s) * (d + r - s) * (d - r + s) * (d + r + s))
    )
    return r * r * math.acos(a) + s * s * math.acos(b) - tri


def solve_center_distance(r: float, s: float, lens: float) -> float:
    """Center distance at which two circles overlap in exactly ``lens`` area.

    Valid for 0 <= lens <= area of the smaller circle; the lens area is
    strictly decreasing in the distance, so the root is unique and
    bisection brackets it to 1e-13 (or to adjacent floats).
    """
    m = min(r, s)
    cap = math.pi * m * m
    if not 0.0 <= lens <= cap * (1.0 + 1e-12):
        raise ValueError(f"lens area {lens} outside [0, {cap}]")
    lens = min(lens, cap)
    lo, hi = abs(r - s), r + s
    for end in (lo, hi):
        if _lens_area(end, r, s) == lens:
            return end
    while hi - lo > 1e-13 and lo < (mid := 0.5 * (lo + hi)) < hi:
        excess = _lens_area(mid, r, s) - lens
        if excess == 0.0:
            return mid
        lo, hi = (mid, hi) if excess > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def two_circle_layout(
    v: VennRegions, names: tuple[str, str]
) -> tuple[CirclePlacement, CirclePlacement, CirclePlacement]:
    """Positions and radii, in pixels, for the p=2 proportional layout.

    Returns the two predictor circles and the residual disc. All three
    share one area scale, so pixel areas are proportional to SS.
    """
    # float-noise overlap counts as zero; the unique and residual SS are
    # clamped the same way before taking sqrt
    common = v.common_total if v.common_total > OVERLAP_NOISE * v.ss_total else 0.0
    a1 = max(0.0, v.unique[names[0]] + common)
    a2 = max(0.0, v.unique[names[1]] + common)
    r1, r2 = math.sqrt(a1 / math.pi), math.sqrt(a2 / math.pi)
    rr = math.sqrt(max(0.0, v.residual) / math.pi)
    if common > 0.0:
        dd = solve_center_distance(r1, r2, common)
    else:
        dd = 1.15 * (r1 + r2)  # orthogonal predictors: visibly disjoint
    gap = 0.4 * max(r1, r2, rr, 1e-300)

    width = r1 + dd + r2 + gap + 2.0 * rr
    height = 2.0 * max(r1, r2, rr)
    scale = min(_DRAW_W / width, _DRAW_H / height)

    cy = _MARGIN + _DRAW_H / 2.0
    x0 = _MARGIN + (_DRAW_W - width * scale) / 2.0
    c1 = CirclePlacement(names[0], x0 + r1 * scale, cy, r1 * scale)
    c2 = CirclePlacement(names[1], x0 + (r1 + dd) * scale, cy, r2 * scale)
    cr = CirclePlacement(
        "residual", x0 + (r1 + dd + r2 + gap + rr) * scale, cy, rr * scale
    )
    return c1, c2, cr


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _legend_doc(v: VennRegions, names: tuple[str, ...], title: str, body: list[str], y0: float) -> str:
    """The document: ``body``, which ends inside the opened legend group,
    then a legend row per region from ``y0`` down, and the group closed."""
    common = "common (overlap, suppression)" if v.suppression else "common (overlap)"
    rows = [
        *(f"unique {nm} = {fmt2(v.unique[nm])}" for nm in names),
        f"{common} = {fmt2(v.common_total)}",
        f"residual = {fmt2(v.residual)}",
        f"missing from total = {fmt2(v.missing)}"
        f" (fraction {fmt2(v.missing_fraction)} of {fmt2(v.ss_total)})",
    ]
    width, height = 2 * _MARGIN + _DRAW_W, y0 + len(rows) * _ROW_H + _MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"  <title>{_esc(title)}</title>",
        *body,
        *(_text(_MARGIN, y0 + i * _ROW_H, row) for i, row in enumerate(rows)),
        "  </g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _text(x: float, y: float, s: str, size: int = 13, anchor: str = "start") -> str:
    return (
        f'    <text x="{x:.4f}" y="{y:.4f}" font-family="{_FONT}" '
        f'font-size="{size}" text-anchor="{anchor}" fill="#222222">{_esc(s)}</text>'
    )


def render_venn_svg(
    v: VennRegions, names: tuple[str, ...], response: str
) -> str:
    """SVG for the region accounting; geometric when p=2 and no suppression."""
    title = f"Variance regions: {response} ~ {', '.join(names)}"
    if len(names) == 2 and not v.suppression:
        return _render_geometric(v, (names[0], names[1]), title)
    return _render_aggregate(v, names, title)


def _render_geometric(
    v: VennRegions, names: tuple[str, str], title: str
) -> str:
    placements = two_circle_layout(v, names)
    body = ['  <g id="regions">']
    common = fmt2(max(0.0, v.common_total))
    tips = [f"{nm}: unique {fmt2(v.unique[nm])} + common {common}" for nm in names]
    tips.append(f"residual: {fmt2(v.residual)}")
    for c, fill, stroke, tip in zip(placements, _PALETTE, _STROKE, tips):
        body.append(
            f'    <circle id="region-{_esc(c.label)}" cx="{c.cx:.4f}" '
            f'cy="{c.cy:.4f}" r="{c.r:.4f}" fill="{fill}" fill-opacity="0.45" '
            f'stroke="{stroke}" stroke-width="1.5">'
        )
        body.append(f"      <title>{_esc(tip)}</title>")
        body.append("    </circle>")
    body.append("  </g>")

    # spread the two circle captions outward so they stay readable when
    # the circles overlap heavily
    c1, c2, cr = placements
    caption_y = _MARGIN + _DRAW_H + 16.0
    body.append('  <g id="captions">')
    body.append(_text(c1.cx - 0.5 * c1.r, caption_y, c1.label, anchor="middle"))
    body.append(_text(c2.cx + 0.5 * c2.r, caption_y, c2.label, anchor="middle"))
    body.append(_text(cr.cx, caption_y, cr.label, anchor="middle"))
    body += ["  </g>", '  <g id="legend">']
    return _legend_doc(v, names, title, body, _MARGIN + _DRAW_H + 40.0)


def _render_aggregate(
    v: VennRegions, names: tuple[str, ...], title: str
) -> str:
    if v.suppression:
        note = (
            "common region is negative (suppression):"
            " no proportional-area layout exists"
        )
    elif len(names) == 1:
        note = "one predictor: its regression SS is all unique, regions listed"
    else:
        note = "more than two predictors: aggregate regions listed"
    body = [
        '  <g id="legend">',
        _text(_MARGIN, _MARGIN + 16.0, title, size=15),
        _text(_MARGIN, _MARGIN + 16.0 + _ROW_H, note),
    ]
    return _legend_doc(v, names, title, body, _MARGIN + 16.0 + 2.5 * _ROW_H)
