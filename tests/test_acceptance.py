"""End-to-end acceptance checks.

Ten criteria, one test each, every test printing a single line

    criterion NN: PASS|FAIL - detail

on the real stdout so the verdicts survive pytest's capture.  The heavy
exhaustive word sweep is shared by criteria 2 and 9 through a session
fixture; everything else is independent.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
from conftest import round_trip_matrices, word_matrix_roundtrip
from oracles import dedekind_sum_literal

from rademacher.cli import run
from rademacher.dedekind import dedekind_sum, rademacher_phi
from rademacher.eta import GUARD_DIGITS, verify_eta_transform, verify_theorem1
from rademacher.fricke import phi_p, phi_p_geometric, random_gamma0
from rademacher.inertia import km_phi
from rademacher.matrices import (
    FrickeElement,
    UnimodularMatrix,
    fricke_involution,
    sgn,
    t_power,
)
from rademacher.render import render_svg
from rademacher.words import endpoints, reconstruct, turns_from_endpoints

GOLDEN = Path(__file__).parent / "golden" / "figure_path.svg"
PRIMES = (3, 5, 7, 11, 13)

# length <= 7, exponents in [-4, 4], no interior zeros
SWEEP_MAX_LEN = 7
SWEEP_CAP = 4
SWEEP_EXPECTED = 3_033_379


@pytest.fixture
def announce(capsys):
    """Printer that bypasses pytest's fd capture, then asserts."""

    def _finish(n, ok, detail):
        with capsys.disabled():
            # leading newline: under -v the in-progress test id has no newline yet
            print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
                  file=sys.__stdout__, flush=True)
        assert ok, f"criterion {n}: {detail}"

    return _finish


# ---------------------------------------------------------------- sweep

@pytest.fixture(scope="session")
def sweep():
    """One pass over the exhaustive word set, feeding criteria 2 and 9."""
    count = km_bad = turn_bad = 0
    word = []
    mats = [(0, -1, 1, 0)]
    pts = [(1, 0), (0, 1)]
    letters = range(-SWEEP_CAP, SWEEP_CAP + 1)
    t0 = time.perf_counter()

    def visit():
        nonlocal count, km_bad, turn_bad
        count += 1
        a, b, c, d = mats[-1]
        m = UnimodularMatrix(a, b, c, d)
        if km_phi(word) != rademacher_phi(m):
            km_bad += 1
        if turns_from_endpoints(pts) != tuple(word):
            turn_bad += 1

    def go():
        visit()
        if len(word) == SWEEP_MAX_LEN or (len(word) >= 2 and word[-1] == 0):
            return
        a, b, c, d = mats[-1]
        for x in letters:
            word.append(x)
            child = (a * x + b, -a, c * x + d, -c)
            mats.append(child)
            pts.append((child[0], child[2]))
            go()
            word.pop()
            mats.pop()
            pts.pop()

    go()
    return {
        "count": count,
        "km_bad": km_bad,
        "turn_bad": turn_bad,
        "seconds": time.perf_counter() - t0,
    }


# ------------------------------------------------------------ criterion 1

def test_criterion_01_figure_reproduction(announce):
    t0 = time.perf_counter()
    w = (-2, 1, -2)
    pts = [str(v) for v in endpoints(w)]
    m = reconstruct(w)
    ok = (
        pts == ["1/0", "0/1", "1/2", "1/3", "3/8"]
        and m == UnimodularMatrix(3, 1, 8, 3)
        and km_phi(w) == 0
        and rademacher_phi(m) == 0
    )
    ms = (time.perf_counter() - t0) * 1000
    announce(1, ok, f"figure word (-2,1,-2): endpoints/matrix/km/phi all exact ({ms:.2f} ms)")


# ------------------------------------------------------------ criterion 2

def test_criterion_02_km_equivalence_exhaustive(sweep, announce):
    ok = sweep["count"] == SWEEP_EXPECTED and sweep["km_bad"] == 0
    announce(
        2, ok,
        f"km_phi == rademacher_phi on {sweep['count']} words "
        f"(len <= {SWEEP_MAX_LEN}, |a| <= {SWEEP_CAP}, no interior zeros), "
        f"{sweep['km_bad']} mismatches ({sweep['seconds']:.0f}s shared sweep)",
    )


# ------------------------------------------------------------ criterion 3

def test_criterion_03_cocycle(announce):
    t0 = time.perf_counter()
    rng = random.Random(3003)
    pool = []
    for _ in range(1500):
        w = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6)))
        m = reconstruct(w)
        pool.append(-m if rng.random() < 0.5 else m)
    pool += [t_power(n) for n in range(-8, 9)]  # c = 0 members
    pool += [-t_power(n) for n in range(-3, 4)]
    tagged = [(m, rademacher_phi(m)) for m in pool]
    bad = 0
    zero_c_pairs = 0
    for _ in range(100_000):
        g1, f1 = rng.choice(tagged)
        g2, f2 = rng.choice(tagged)
        g3 = g1 * g2
        if g1.c == 0 or g2.c == 0 or g3.c == 0:
            zero_c_pairs += 1
        if rademacher_phi(g3) != f1 + f2 - 3 * sgn(g1.c * g2.c * g3.c):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and zero_c_pairs > 100
    announce(3, ok, f"cocycle law on 100000 pairs ({zero_c_pairs} with a zero c), "
                   f"{bad} mismatches ({dt:.0f}s)")


# ------------------------------------------------------------ criterion 4

def test_criterion_04_dedekind_oracles(announce):
    t0 = time.perf_counter()
    bad = 0
    pairs = 0
    for k in range(1, 401):
        coprime_h = [h for h in range(k) if gcd(h, k) == 1]
        for h0 in coprime_h:
            base = dedekind_sum_literal(h0, k)
            if base != dedekind_sum(h0, k):
                bad += 1
            pairs += 1
            # every |h| <= 400 with this residue, via the literal evaluator
            for h in range(h0 - k * ((400 + h0) // k), 401, k):
                if h == h0:
                    continue
                pairs += 1
                if dedekind_sum_literal(h, k) != base or dedekind_sum(h, k) != base:
                    bad += 1
                    break
    recip_bad = 0
    for k in range(1, 401):
        for h in range(1, 401):
            if gcd(h, k) == 1:
                lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
                if lhs != Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k):
                    recip_bad += 1
    closed_bad = sum(
        dedekind_sum(1, k) != Fraction((k - 1) * (k - 2), 12 * k) for k in range(1, 401)
    )
    dt = time.perf_counter() - t0
    ok = bad == 0 and recip_bad == 0 and closed_bad == 0
    announce(4, ok, f"literal == dedekind_sum on {pairs} pairs (k <= 400, |h| <= 400), "
                   f"reciprocity and s(1,k) closed form exact ({dt:.0f}s)")


# ------------------------------------------------------------ criterion 5

def test_criterion_05_geometric_equals_dedekind_route(announce):
    t0 = time.perf_counter()
    rng = random.Random(5005)
    bad = 0
    checked = 0
    for p in PRIMES:
        wp = fricke_involution(p)
        for _ in range(1000):
            e = random_gamma0(p, rng)
            if phi_p_geometric(e) != phi_p(e):
                bad += 1
            c = wp * e
            if phi_p_geometric(c) != phi_p(c):
                bad += 1
            checked += 2
    dt = time.perf_counter() - t0
    announce(5, bad == 0, f"phi_p_geometric == phi_p on {checked} elements "
                         f"(1000 per p per coset, p in {PRIMES}), {bad} mismatches ({dt:.0f}s)")


# ----------------------------------------------------- criteria 6/7 helpers

def _unit_circle_point(rng, prec):
    th = rng.uniform(math.pi / 3, 2 * math.pi / 3)
    with mpmath.workdps(prec + GUARD_DIGITS):
        return mpmath.mpc(mpmath.cos(th), mpmath.sin(th))


def _z_for_gamma0(q, rng, prec):
    # |cz + d| = 1 keeps Im(gz) = Im(z); the sgn factor keeps Im(z) > 0
    a, b, c, d = q
    with mpmath.workdps(prec + GUARD_DIGITS):
        if c == 0:
            return mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.3))
        return (sgn(c) * _unit_circle_point(rng, prec) - d) / c


def _z_for_coset(p, q, rng, prec):
    # |sqrt(p) (gamma z + delta)| = 1; gamma != 0 on the coset
    al, be, ga, de = q
    with mpmath.workdps(prec + GUARD_DIGITS):
        return (sgn(ga) * _unit_circle_point(rng, prec) / mpmath.sqrt(p) - de) / ga


# ------------------------------------------------------------ criterion 6

def test_criterion_06_theorem1_certification(announce):
    t0 = time.perf_counter()
    rng = random.Random(6006)
    prec = 100
    bound = mpmath.mpf(10) ** -85
    bad = 0
    cases = 0
    for p in PRIMES:
        wp = fricke_involution(p)
        for _ in range(100):
            e = random_gamma0(p, rng, steps=2, entry_cap=30)
            z = _z_for_gamma0(e.q, rng, prec)
            if verify_theorem1(e, z, prec=prec).residual >= bound:
                bad += 1
            cases += 1
        for _ in range(100):
            c = wp * random_gamma0(p, rng, steps=2, entry_cap=30)
            z = _z_for_coset(p, c.q, rng, prec)
            if verify_theorem1(c, z, prec=prec).residual >= bound:
                bad += 1
            cases += 1
        with mpmath.workdps(prec + GUARD_DIGITS):
            zfix = mpmath.mpc(0, 1) / mpmath.sqrt(p)
        if verify_theorem1(wp, zfix, prec=prec).residual >= bound:
            bad += 1
        cases += 1
    dt = time.perf_counter() - t0
    announce(6, bad == 0, f"theorem-1 law residual < 1e-85 at P=100 on {cases} cases "
                         f"(100 per p per coset plus W_p fixed points), "
                         f"{bad} failures ({dt:.0f}s)")


# ------------------------------------------------------------ criterion 7

def test_criterion_07_classical_law_certification(announce):
    t0 = time.perf_counter()
    rng = random.Random(7007)
    prec = 100
    bound = mpmath.mpf(10) ** -85
    bad = 0
    zero_c = 0
    for i in range(500):
        if i % 10 == 0:
            g = t_power(rng.randint(-6, 6))
            if rng.random() < 0.5:
                g = -g
        else:
            while True:
                w = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
                g = reconstruct(w)
                if rng.random() < 0.5:
                    g = -g
                if abs(g.c) <= 40:
                    break
        if g.c == 0:
            zero_c += 1
        z = _z_for_gamma0(g.entries(), rng, prec)
        if verify_eta_transform(g, z, prec=prec).residual >= bound:
            bad += 1
    dt = time.perf_counter() - t0
    announce(7, bad == 0 and zero_c > 0,
            f"classical law residual < 1e-85 at P=100 on 500 pairs "
            f"({zero_c} with c = 0), {bad} failures ({dt:.0f}s)")


# ------------------------------------------------------------ criterion 8

PANEL_CLASSICAL = (
    # (matrix entries, theta on the isometric circle) or (entries, None, fixed z)
    ((3, 1, 8, 3), 1.2),
    ((0, -1, 1, 0), 1.4),
    ((1, 0, -1, 1), 1.7),
    ((2, 1, 7, 4), 1.9),
    ((5, 2, 2, 1), 2.0),
    ((4, 1, 11, 3), 1.05),
    ((-3, 1, -10, 3), 1.5),
    ((8, 3, 21, 8), 1.35),
    ((1, 5, 0, 1), None),
    ((-1, 3, 0, -1), None),
)

PANEL_THEOREM1 = (
    # (p, gamma0 entries or None for a coset quadruple, quadruple, theta)
    (3, "g", (1, 0, 3, 1), 1.25),
    (5, "g", (1, 0, 5, 1), 1.45),
    (5, "g", (4, 1, 15, 4), 1.65),
    (7, "g", (1, 1, 7, 8), 1.85),
    (11, "g", (1, 0, 11, 1), 2.0),
    (13, "g", (1, 0, 13, 1), 1.1),
    (13, "g", (1, 1, 0, 1), None),
    (5, "c", (0, -1, 1, 0), 1.3),
    (7, "c", (-1, -1, 1, 0), 1.55),
    (11, "c", (0, -1, 1, 1), 1.75),
)


def _panel_z(c, d, theta, prec, scale=1):
    with mpmath.workdps(prec + GUARD_DIGITS):
        if theta is None:
            return mpmath.mpc("0.2", "1.1")
        w = sgn(c) * mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta))
        if scale != 1:
            w = w / mpmath.sqrt(scale)
        return (w - d) / c


def _panel_max_residual(prec):
    worst = mpmath.mpf(0)
    for entries, theta in PANEL_CLASSICAL:
        g = UnimodularMatrix(*entries)
        z = _panel_z(g.c, g.d, theta, prec)
        worst = max(worst, verify_eta_transform(g, z, prec=prec).residual)
    for p, kind, q, theta in PANEL_THEOREM1:
        if kind == "g":
            e = FrickeElement.gamma0(p, UnimodularMatrix(*q))
            z = _panel_z(q[2], q[3], theta, prec)
        else:
            e = FrickeElement.coset(p, *q)
            z = _panel_z(q[2], q[3], theta, prec, scale=p)
        worst = max(worst, verify_theorem1(e, z, prec=prec).residual)
    return worst


def test_criterion_08_precision_scaling(announce):
    t0 = time.perf_counter()
    max_100 = _panel_max_residual(100)
    max_200 = _panel_max_residual(200)
    ok = max_200 <= max_100 * mpmath.mpf(10) ** -80 and max_100 < mpmath.mpf(10) ** -85
    dt = time.perf_counter() - t0
    announce(8, ok, f"20-case panel: max residual {mpmath.nstr(max_100, 3)} at P=100, "
                   f"{mpmath.nstr(max_200, 3)} at P=200 (ratio well under 1e-80) ({dt:.0f}s)")


# ------------------------------------------------------------ criterion 9

def test_criterion_09_round_trips(sweep, announce):
    t0 = time.perf_counter()
    # reconstruct(decompose(.)) on every matrix from words of length <= 6
    # over [-3, 3] (interior zeros included) plus random matrices
    bad_a = 0
    count_a = 0
    for m in round_trip_matrices():
        count_a += 1
        if not word_matrix_roundtrip(m):
            bad_a += 1
    dt = time.perf_counter() - t0
    ok = bad_a == 0 and sweep["turn_bad"] == 0
    announce(9, ok, f"reconstruct . decompose == id (PSL) on {count_a} matrices, "
                   f"turns . endpoints == id on the {sweep['count']}-word sweep "
                   f"({sweep['turn_bad']} turn mismatches) ({dt:.0f}s + shared sweep)")


# ----------------------------------------------------------- criterion 10

def test_criterion_10_cli_and_golden(tmp_path, capsys, announce):
    results = []
    for argv, want in (
        (["phi", "--matrix", "3,1,8,3"], {"phi": 0}),
        (["phi-p", "--p", "5", "--matrix", "1,0,5,1"], {"phi_p": "0"}),
        (["decompose", "--matrix", "0,-1,1,0"], {"word": [], "endpoints": ["1/0", "0/1"]}),
    ):
        code = run(argv)
        payload = json.loads(capsys.readouterr().out)
        results.append(code == 0 and payload == want)

    golden = GOLDEN.read_bytes()
    results.append(render_svg((-2, 1, -2)) == golden)
    target = tmp_path / "fig.svg"
    code = run(["render", "--word=-2,1,-2", "--out", str(target)])
    capsys.readouterr()
    results.append(code == 0 and target.read_bytes() == golden)

    announce(10, all(results),
            "three CLI examples return the stated JSON; figure SVG is "
            "byte-identical to the committed fixture (library and CLI)")
