"""Deterministic SVG pictures of based edge paths in the upper half plane.

Edges between finite vertices are semicircles on the real axis; edges to
1/0 are vertical segments clipped at a height cap.  Finite vertices are
labelled under the axis; 1/0, however often the path visits it, gets one
label above the first edge, 1/0 -> 0/1, which is vertical at x = 0.  All
geometry is exact Fraction arithmetic; each pixel coordinate is printed
once, with 12 decimal places rounded half-even from its exact value, in
integer arithmetic, so equal inputs give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .words import endpoints

# str(int) refuses more digits than sys.get_int_max_str_digits(), which is
# at least 640, so the integer part is printed in 600-digit chunks
_CHUNK = 10**600


def _fmt(x) -> str:
    """x to 12 decimals, rounded half-even from its exact value."""
    units = round(Fraction(x) * 10**12)  # Fraction.__round__ is exact half-even
    whole, part = divmod(abs(units), 10**12)
    chunks = []
    while whole >= _CHUNK:
        whole, low = divmod(whole, _CHUNK)
        chunks.append(f"{low:0600d}")
    return f"{'-' if units < 0 else ''}{whole}{''.join(reversed(chunks))}.{part:012d}"


def _x_range(xs: list[Fraction | None], x_min, x_max) -> tuple[Fraction, Fraction]:
    finite = [x for x in xs if x is not None]
    lo = min(finite)
    hi = max(finite)
    pad = max((hi - lo) / 4, Fraction(1, 4))
    x_min = x_min if x_min is not None else lo - pad
    x_max = x_max if x_max is not None else hi + pad
    if x_min >= x_max:
        raise ParseError("x_min must be strictly less than x_max")
    return x_min, x_max


def render_svg(
    word,
    *,
    x_min: Fraction | None = None,
    x_max: Fraction | None = None,
    height_cap: Fraction | None = None,
    width_px: int = 800,
    height_px: int = 560,
    stroke_width: Fraction = Fraction(3, 2),
    font_size: Fraction = Fraction(14),
    label_vertices: bool = True,
) -> bytes:
    """SVG of the path of word; x range and cap are plane units, None
    means derive from the path."""
    if width_px <= 0 or height_px <= 0:
        raise ParseError("pixel dimensions must be positive")
    if stroke_width <= 0 or font_size <= 0:
        raise ParseError("stroke width and font size must be positive")
    if height_cap is not None and height_cap <= 0:
        raise ParseError("height cap must be positive")
    vertices = endpoints(word)
    xs = [None if v.is_infinity else Fraction(v.n, v.d) for v in vertices]
    x_min, x_max = _x_range(xs, x_min, x_max)
    cap = height_cap if height_cap is not None else (x_max - x_min) * Fraction(5, 8)

    scale = Fraction(width_px) / (x_max - x_min)
    axis_y = Fraction(height_px) - 2 * Fraction(font_size)

    def px(x: Fraction) -> Fraction:
        return (x - x_min) * scale

    top_y = axis_y - cap * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="#ffffff"/>',
        f'<line x1="0" y1="{_fmt(axis_y)}" x2="{width_px}" y2="{_fmt(axis_y)}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]

    stroke = f'stroke="#1a1a1a" stroke-width="{_fmt(stroke_width)}" fill="none"'
    for xu, xv in zip(xs, xs[1:]):
        if xu is None or xv is None:
            x = px(xv if xu is None else xu)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
                f'y2="{_fmt(top_y)}" {stroke}/>'
            )
        else:
            left, right = (xu, xv) if xu < xv else (xv, xu)
            r = (right - left) * scale / 2
            parts.append(
                f'<path d="M {_fmt(px(left))} {_fmt(axis_y)} A {_fmt(r)} {_fmt(r)} '
                f'0 0 1 {_fmt(px(right))} {_fmt(axis_y)}" {stroke}/>'
            )

    if label_vertices:
        label_y = axis_y + font_size * Fraction(5, 4)
        font = f'font-family="sans-serif" font-size="{_fmt(font_size)}"'
        seen = set()
        for v, x in zip(vertices, xs):
            if v in seen:
                continue
            seen.add(v)
            # endpoints_signed starts (1, 0), (0, 1): the first edge is vertical at x = 0
            tx, ty = (px(0), top_y - font_size / 4) if x is None else (px(x), label_y)
            parts.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" text-anchor="middle" {font}>{v}</text>'
            )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")
