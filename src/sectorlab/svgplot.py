"""Deterministic SVG rendering of zero configurations.

Everything is emitted as hand-built strings with fixed 4-decimal coordinate
formatting and a fixed element order (frame, axes, sector rays, discs,
zeros, legend), so a given scene always serializes to identical bytes.
"""

from __future__ import annotations

import math

__all__ = ["render_scene"]

_SIZE = 800
_HALF = _SIZE / 2.0

_STYLE = {
    "axis": 'stroke="#888888" stroke-width="1"',
    "sector": 'stroke="#1f6f43" stroke-width="1.5"',
    "predicted": 'stroke="#b05a00" stroke-width="1.5" stroke-dasharray="6 4"',
    "disc": ('fill="#4477aa" fill-opacity="0.15" stroke="#4477aa" '
             'stroke-width="1"'),
    "before": ('fill="none" stroke="#202020" stroke-width="1.5"'),
    "after": 'fill="#c02020" stroke="none"',
}


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Canvas:
    def __init__(self, world_limit: float):
        self.limit = world_limit
        self.parts: list[str] = []

    def px(self, x: float, y: float) -> tuple[str, str]:
        # world -> pixel with the y axis flipped
        sx = _HALF + (x / self.limit) * (_HALF - 20.0)
        sy = _HALF - (y / self.limit) * (_HALF - 20.0)
        return _fmt(sx), _fmt(sy)

    def scale(self, r: float) -> str:
        return _fmt((r / self.limit) * (_HALF - 20.0))

    def line(self, x1, y1, x2, y2, style: str):
        a, b = self.px(x1, y1)
        c, d = self.px(x2, y2)
        self.parts.append(
            f'<line x1="{a}" y1="{b}" x2="{c}" y2="{d}" {style} />')

    def circle(self, cx, cy, r, style: str):
        a, b = self.px(cx, cy)
        self.parts.append(
            f'<circle cx="{a}" cy="{b}" r="{r}" {style} />')

    def text(self, x, y, content: str):
        a, b = self.px(x, y)
        self.parts.append(
            f'<text x="{a}" y="{b}" font-family="monospace" '
            f'font-size="13" fill="#202020">{content}</text>')


def _ray(canvas: _Canvas, angle: float, style: str):
    reach = canvas.limit * 1.5
    canvas.line(0.0, 0.0, reach * math.cos(angle), reach * math.sin(angle),
                style)


def render_scene(before=(), after=(), discs=(), sector_angle=None,
                 predicted_angle=None, double_sector=False,
                 annotations=()) -> str:
    """Compose one SVG document.

    ``before``/``after`` are iterables of complex zero locations, ``discs``
    of SectorDisc (empty ones are skipped), angles are sector half-angles in
    radians drawn as rays from the origin (mirrored into the left half plane
    when ``double_sector`` is set).
    """
    biggest = 1.0
    for z in list(before) + list(after):
        biggest = max(biggest, abs(z))
    for d in discs:
        if not d.empty:
            biggest = max(biggest, abs(d.center) + d.radius)
    limit = 1.2 * biggest
    cv = _Canvas(limit)

    cv.parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                    f'width="{_SIZE}" height="{_SIZE}" '
                    f'viewBox="0 0 {_SIZE} {_SIZE}">')
    cv.parts.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff" />')
    cv.line(-limit, 0.0, limit, 0.0, _STYLE["axis"])
    cv.line(0.0, -limit, 0.0, limit, _STYLE["axis"])

    def rays(angle: float, style: str):
        _ray(cv, angle, style)
        _ray(cv, -angle, style)
        if double_sector:
            _ray(cv, math.pi - angle, style)
            _ray(cv, angle - math.pi, style)

    if sector_angle is not None:
        rays(sector_angle, _STYLE["sector"])
    if predicted_angle is not None:
        rays(predicted_angle, _STYLE["predicted"])

    for d in discs:
        if not d.empty:
            cv.circle(d.center.real, d.center.imag, cv.scale(d.radius),
                      _STYLE["disc"])

    for z in before:
        cv.circle(z.real, z.imag, "5.0", _STYLE["before"])
    for z in after:
        cv.circle(z.real, z.imag, "3.5", _STYLE["after"])

    ty = limit * 0.92
    for i, note in enumerate(annotations):
        cv.text(-limit * 0.95, ty - i * (limit * 0.06), str(note))

    cv.parts.append("</svg>")
    return "\n".join(cv.parts) + "\n"
