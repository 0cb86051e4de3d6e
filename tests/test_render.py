import hashlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rademacher.errors import ParseError
from rademacher.render import _fmt, render_svg

GOLDEN = Path(__file__).parent / "golden" / "figure_path.svg"


def test_golden_figure_path():
    assert render_svg((-2, 1, -2)) == GOLDEN.read_bytes()


def test_byte_determinism():
    opts = dict(x_min=Fraction(-1, 2), x_max=Fraction(1), height_cap=Fraction(2, 3))
    a = render_svg((-2, 1, -2), **opts)
    b = render_svg((-2, 1, -2), **opts)
    assert a == b
    assert a != render_svg((-2, 1, -2))


def test_empty_word_single_vertical_edge():
    svg = render_svg(()).decode("ascii")
    assert svg.count("<path") == 0
    assert svg.count("<line") == 2  # axis plus the base edge
    assert ">1/0<" in svg and ">0/1<" in svg


def test_figure_word_structure():
    svg = render_svg((-2, 1, -2)).decode("ascii")
    assert svg.count("<path") == 3
    assert svg.count("<line") == 2
    for label in ("1/0", "0/1", "1/2", "1/3", "3/8"):
        assert f">{label}<" in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_interior_infinity_vertical_edges():
    # (-1,-1,-3) revisits 1/0: edges (1/0,0/1), (1/1,1/0), (1/0,-2/1) are
    # all vertical, plus the axis line; one arc; the 1/0 label appears once
    svg = render_svg((-1, -1, -3)).decode("ascii")
    assert svg.count("<line") == 1 + 3
    assert svg.count("<path") == 1
    assert svg.count(">1/0<") == 1
    # that label sits over the first vertical line after the axis, the base
    # edge 1/0 -> 0/1, so at x = px(0), where 0/1 is labelled too
    rng = random.Random(9)
    words = [(-1, -1, -3)] + [
        tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 8))) for _ in range(200)
    ]
    revisits = 0
    for word in words:
        svg = render_svg(word).decode("ascii")
        lines = re.findall(r'<line x1="([^"]*)"', svg)
        labels = re.findall(r'<text x="([^"]*)"[^>]*>([^<]*)</text>', svg)
        assert [x for x, v in labels if v == "1/0"] == [lines[1]], word
        assert [x for x, v in labels if v == "0/1"] == [lines[1]], word
        revisits += len(lines) > 2
    assert revisits >= 20


def test_no_labels():
    svg = render_svg((2,), label_vertices=False).decode("ascii")
    assert "<text" not in svg


def test_all_ascii_and_fixed_places():
    data = render_svg((0, 3))
    data.decode("ascii")
    # every coordinate carries exactly 12 decimal places
    for token in ("x1=", "y1=", "x2=", "y2="):
        for chunk in _attr_values(data.decode("ascii"), token):
            whole, _, frac = chunk.partition(".")
            assert frac == "" or len(frac) == 12, chunk


@pytest.mark.parametrize("x, text", [
    (Fraction(1, 10**7), "0.000000100000"),
    (Fraction(-1, 10**7), "-0.000000100000"),
    (Fraction(-1, 10**13), "0.000000000000"),
])
def test_fmt_tiny_values_stay_fixed_point(x, text):
    assert _fmt(x) == text


@pytest.mark.parametrize("x, text", [
    # just above and just below a tie, the ties themselves, signs
    (Fraction(5, 10**13) + Fraction(1, 10**80), "0.000000000001"),
    (Fraction(15, 10**13) - Fraction(1, 10**75), "0.000000000001"),
    (Fraction(5, 10**13), "0.000000000000"),
    (Fraction(15, 10**13), "0.000000000002"),
    (-(Fraction(5, 10**13) + Fraction(1, 10**80)), "-0.000000000001"),
    (Fraction(-1, 10**20), "0.000000000000"),
    # above 2^150: 22517775512654521469689639024228784140263439306.2817558022734681...
    (Fraction(8496159360904164841207128010592738315178658021213863, 377309),
     "22517775512654521469689639024228784140263439306.281755802273"),
    # more integer digits than str(int) allows
    (Fraction(10**5000) + Fraction(1, 3), "1" + "0" * 5000 + ".333333333333"),
    (-7 * Fraction(10**1200) - Fraction(2, 3), "-7" + "0" * 1200 + ".666666666667"),
])
def test_fmt_rounds_half_even_from_the_exact_value(x, text):
    assert _fmt(x) == text


def test_render_corpus_digest():
    # every word of length <= 4 over [-3, 3] under three option sets, 8403
    # renders: the bytes a change to the renderer must leave as they are
    options = ({}, dict(label_vertices=False),
               dict(x_min=Fraction(-1), height_cap=Fraction(1, 3)))
    digest = hashlib.sha256()
    for k in range(5):
        for word in itertools.product(range(-3, 4), repeat=k):
            for opts in options:
                digest.update(render_svg(word, **opts))
    assert digest.hexdigest() == (
        "f2ca5c2260dd8c337097dec088ae16c1853109572cdc87733c9a6f7695075d5e"
    )


def test_tiny_x_min_keeps_fixed_places():
    # a vertex at the left edge used to print as 0E-12
    svg = render_svg((2,), x_min=Fraction(-1, 10**4300), label_vertices=False).decode("ascii")
    for token in ("x1=", "y1=", "x2=", "y2="):
        for chunk in _attr_values(svg, token):
            assert "E" not in chunk and "e" not in chunk, chunk
            whole, _, frac = chunk.partition(".")
            assert frac == "" or len(frac) == 12, chunk


def _attr_values(svg, key):
    out = []
    pos = 0
    while True:
        i = svg.find(key + '"', pos)
        if i < 0:
            return out
        j = svg.index('"', i + len(key) + 1)
        out.append(svg[i + len(key) + 1 : j])
        pos = j


def test_option_validation():
    with pytest.raises(ParseError):
        render_svg((2,), x_min=Fraction(1), x_max=Fraction(1))
    with pytest.raises(ParseError):
        render_svg((2,), width_px=0)
    with pytest.raises(ParseError):
        render_svg((2,), stroke_width=Fraction(0))
    with pytest.raises(ParseError):
        render_svg((2,), height_cap=Fraction(-1))


def test_explicit_range_respected():
    svg = render_svg((2,), x_min=Fraction(-2), x_max=Fraction(2)).decode("ascii")
    # scale 200 px per unit; vertex 0/1 sits at x = 400
    assert 'x1="400.000000000000"' in svg
