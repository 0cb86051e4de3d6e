import ast
import inspect
import itertools
import json
import math
import random
import re
import sys
import textwrap
import threading
import time
from fractions import Fraction

import mpmath
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import float_log_product, log_eta_product, moebius, pentagonal_sum_mpc
from rademacher import eta
from rademacher.errors import (
    DomainError,
    ImaginaryPartError,
    NotOddPrimeError,
    NotUpperHalfPlaneError,
    ParseError,
    PointTooLargeError,
    PrimeTooLargeError,
)
from rademacher.eta import (
    GUARD_DIGITS,
    VerificationReport,
    eta_p_branch_ratio,
    log_eta,
    log_eta_p,
    verify_eta_transform,
    verify_theorem1,
)
from rademacher.fricke import k_of_p, random_gamma0
from rademacher.matrices import S, T, FrickeElement, UnimodularMatrix, fricke_involution
from rademacher.words import reconstruct


def mp(prec):
    return mpmath.workdps(prec + GUARD_DIGITS)


def test_eta_at_i_closed_form():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    for prec in (30, 50, 120):
        with mp(prec):
            value = mpmath.exp(log_eta(mpmath.mpc(0, 1), prec=prec))
            ref = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf("0.75"))
            assert abs(value - ref) < mpmath.mpf(10) ** (-(prec - 2))


def test_log_eta_at_i_value():
    # log(gamma(1/4) / (2 pi^(3/4))), digits independent of the series code
    with mp(50):
        v = log_eta(mpmath.mpc(0, 1), prec=50)
        assert abs(v.imag) < mpmath.mpf(10) ** -48
        assert abs(v.real - mpmath.mpf("-0.2636720702489179826541922")) < mpmath.mpf("1e-24")


def test_t_shift():
    with mp(60):
        z = mpmath.mpc("0.137", "0.81")
        diff = log_eta(z + 1, prec=60) - log_eta(z, prec=60)
        assert abs(diff - mpmath.pi * 1j / 12) < mpmath.mpf(10) ** -55


def test_inversion_at_2i():
    with mp(60):
        z = mpmath.mpc(0, 2)
        lhs = log_eta(-1 / z, prec=60)
        rhs = log_eta(z, prec=60) + mpmath.log(z / 1j) / 2
        assert abs(lhs - rhs) < mpmath.mpf(10) ** -55


def test_im_too_small_raises():
    with pytest.raises(ImaginaryPartError) as info:
        log_eta(mpmath.mpc(0.3, 1e-5), prec=50)
    # 2 sqrt(60 log 10 / (3 pi 1e-5)) + 1 ~ 2422 summands
    count = re.search(r"pentagonal series would need about (\d+) terms", str(info.value))
    assert count and 2400 <= int(count.group(1)) <= 2450


def test_refusal_estimate_is_sized_at_64_bits():
    # the message's summand count costs the same at any precision
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ImaginaryPartError, match="about 4424 terms"):
            log_eta(mpmath.mpc(0.3, 5e-4), prec=10_000)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.005


@pytest.mark.parametrize("re, im", [
    ("nan", "1"), ("inf", "1"), ("-inf", "1"), ("0", "inf"), ("0", "nan"),
    ("0", "-1"), ("0.3", "0"),
])
def test_points_off_the_upper_half_plane_raise(re, im):
    with mp(50):
        z = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
    _assert_refused_everywhere(z)


@pytest.mark.parametrize("z", ["abc", "0.2", None, b"0.5", [0.2, 0.8], Fraction(1, 5)])
def test_a_point_that_is_not_a_number_raises(z):
    # refused before mpmath's string reader sees text: "abc" used to end
    # in a bare ValueError, None in a TypeError
    _assert_refused_everywhere(z, "must be an int")


def _assert_refused_everywhere(z, match=None):
    for call in (
        lambda: log_eta(z),
        lambda: log_eta_p(5, z),
        lambda: verify_eta_transform(S, z),
        lambda: verify_theorem1(fricke_involution(5), z),
    ):
        with pytest.raises(NotUpperHalfPlaneError, match=match) as info:
            call()
        assert info.value.code == "not_upper_half_plane"


def test_huge_imaginary_part():
    # |q| <= exp(-2 pi 1e400) leaves S = 1 and Log S = 0: log eta_p is
    # pi i (sum m) z / 12 n, each part one product rounded once, so it is the
    # exact value correctly rounded to the side's working bits.  q is read
    # at the capped Im z, so even Im z = 10^(10^9) answers at once
    for im in ("1e400", "1e100000", "1e1000000000"):
        for p in (1, 5):
            with mp(50):
                z = mpmath.mpc("0.1", im)
            start = time.perf_counter()
            result = eta._log_eta_p_eval(p, z._mpc_, 50)
            assert time.perf_counter() - start < 1, (im, p)
            assert result.terms == 1 and result.tail_bound < mpmath.mpf(10) ** -1000
            wp = mpmath.libmp.dps_to_prec(result.working_digits)
            with mpmath.workprec(wp + 1000):
                exact = mpmath.pi * 1j * z * (1 if p == 1 else (1 + p) // 2) / 12
            assert result.value._mpc_ == tuple(mpmath.libmp.mpf_pos(t, wp, "n")
                                               for t in exact._mpc_), (im, p)


def test_q_is_the_same_at_the_cap_and_beyond(monkeypatch):
    # from Im z = 10^6 on, |q| is far below the fixed point, so each part
    # truncates to 0 or -1 by its sign wherever Im z is read
    pairs, fixed = [], eta._pentagonal_sum
    monkeypatch.setattr(eta, "_pentagonal_sum", lambda *args: pairs.append(args[0]) or fixed(*args))
    for x in ("0.1", "0.3", "-0.41", "0.6", "0.25", "0.75"):
        for p in (1, 5):
            seen = []
            for y in ("1e6", "1e400"):
                pairs.clear()
                with mp(50):
                    eta._log_eta_p_eval(p, mpmath.mpc(x, y)._mpc_, 50)
                seen.append(list(pairs))
            assert seen[0] == seen[1] and set(sum(seen[0], ())) <= {0, -1}, (x, p)


def test_log_eta_is_relative_to_its_size():
    # log_eta carries P + GUARD_DIGITS significant digits, so it is an
    # absolute 10^-P only near the origin: at z + 24 10^k, where the value is
    # about 2 pi 10^k, the shift law holds to that many digits of it
    prec = 50
    z = mpmath.mpc(0.1, 0.8)
    near = log_eta(z, prec)
    for k in (40, 62, 100):
        with mpmath.workprec(1000):
            shift = 24 * mpmath.mpf(10) ** k
            diff = log_eta(z + shift, prec) - near - 2j * mpmath.pi * 10**k
            assert abs(diff) < mpmath.mpf(10) ** -(prec + GUARD_DIGITS - 1) * 2 * mpmath.pi * 10**k


def test_huge_point_certificate_is_absolute():
    # at Im z = 1e400, S = 1 far beyond any precision, so log eta(w) is
    # pi i w / 12; values near 1e399 hold to 10^-P only with the 400 digits
    # of the magnitude guard
    prec = 50
    with mp(prec):
        z = mpmath.mpc("0.1", "1e400")
    reports = (
        (verify_eta_transform(T, z, prec=prec), 12),
        (verify_theorem1(FrickeElement.gamma0(5, T), z, prec=prec), 4),
    )
    with mpmath.workdps(prec + 500):
        for report, den in reports:
            ref = mpmath.pi * 1j * (mpmath.mpc(z) + 1) / den
            assert report.working_digits >= prec + GUARD_DIGITS + 400
            assert abs(report.lhs - ref) < mpmath.mpf(10) ** -prec
            assert abs(report.rhs - ref) < mpmath.mpf(10) ** -prec
            assert report.residual < mpmath.mpf(10) ** -prec


def test_level_p_magnitude_guard_counts_p():
    # the sides hold log eta(p z), about pi p z / 12 ~ 6e16 at p = 2^61 - 1:
    # only carrying its 18 integer digits keeps the residual below 10^-P
    prec = 50
    p = 2**61 - 1
    with mp(prec):
        z = mpmath.mpc("0.1", "1")
    report = verify_theorem1(FrickeElement.gamma0(p, T), z, prec=prec)
    assert report.residual < mpmath.mpf(10) ** -prec
    assert report.working_digits >= prec + GUARD_DIGITS + 18


def _fraction(x):
    sign, man, exp, _ = x._mpf_
    return Fraction(-int(man) if sign else int(man)) * Fraction(2) ** exp


def _assert_g_z_rounded_once(m, p, z, prec):
    # the point is the caller's z exactly, and each part of g z is the
    # Fraction value of g z rounded once, at the digits the guard sizes
    a, b, c, d = m
    x, y = _fraction(z.real), _fraction(z.imag)
    w = c * x + d
    den = w * w + c * c * y * y
    exact = (((a * x + b) * w + a * c * y * y) / den, (a * d - b * c) * y / den)
    if float(exact[1]) < eta.Y_MIN:
        with pytest.raises(ImaginaryPartError):
            eta._guarded_points(z, a, b, c, d, prec, p)
        return
    point, gz, guard, _ = eta._guarded_points(z, a, b, c, d, prec, p)
    assert point == z._mpc_, (m, z)
    top = p * max(abs(complex(z)), abs(complex(*map(float, exact))))
    assert guard == math.ceil(math.log10(max(top, 1))), (m, z)
    wp = mpmath.libmp.dps_to_prec(prec + GUARD_DIGITS + guard)
    assert gz == tuple(mpmath.libmp.from_rational(t.numerator, t.denominator, wp, "n")
                       for t in exact), (m, z)


def _random_g_z_cases(count, prec):
    # SL2(Z) words, Gamma0(p) elements and their W_p cosets, each at a free
    # point or on its isometric circle |c z + d| = 1, now and then far out
    rng = random.Random(20)
    cases = []
    for i in range(count):
        p = rng.choice((3, 5, 7, 11, 13))
        if i % 3 == 0:
            g = reconstruct(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5))))
            m, p = g.entries(), 1
        else:
            e = random_gamma0(p, rng, steps=2, entry_cap=30)
            m = (fricke_involution(p) * e if i % 3 == 2 else e).integer_matrix()[0]
        a, b, c, d = m
        with mp(prec):
            if c and i % 2:
                w = mpmath.expjpi(mpmath.mpf(rng.uniform(0.1, 0.9))) * (1 if c > 0 else -1)
                z = (w * mpmath.sqrt(a * d - b * c) - d) / c
            else:
                scale = mpmath.mpf(10) ** rng.choice((0, 0, 0, 5, 30))
                z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.05, 2)) * scale
        cases.append((m, p, z))
    return cases


def test_g_z_is_exact_rounded_once():
    from test_acceptance import PANEL_CLASSICAL, PANEL_THEOREM1, _panel_z

    prec = 100
    cases = []
    for entries, theta in PANEL_CLASSICAL:
        cases.append((entries, 1, _panel_z(entries[2], entries[3], theta, prec)))
    for p, kind, q, theta in PANEL_THEOREM1:
        e = (FrickeElement.gamma0(p, UnimodularMatrix(*q)) if kind == "g"
             else FrickeElement.coset(p, *q))
        cases.append((e.integer_matrix()[0], p, _panel_z(q[2], q[3], theta, prec,
                                                        scale=1 if kind == "g" else p)))
    cases += _random_g_z_cases(500, prec)
    assert len(cases) == 520
    for m, p, z in cases:
        _assert_g_z_rounded_once(m, p, z, prec)


def test_tiny_real_part_answers_at_once():
    # Re z = 2^-(10^7): reading z to its last bit would take integers of
    # ten million bits; z is read to a bound below any guard instead
    z = mpmath.mpc(mpmath.ldexp(1, -10**7), 0.5)
    start = time.perf_counter()
    reports = (verify_eta_transform(UnimodularMatrix(3, 1, 8, 3), z, prec=50),
               verify_theorem1(fricke_involution(5), z, prec=50))
    assert time.perf_counter() - start < 1
    assert all(report.residual < mpmath.mpf(10) ** -50 for report in reports)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_exact_zeros_stay_exact_at_w_p(p):
    # on the imaginary axis every q is real, so both sides of the W_p law
    # have imaginary part 0 exactly, the fixed point i / sqrt p included
    with mp(50):
        points = (mpmath.mpc(0, 1) / mpmath.sqrt(p), mpmath.mpc(0, "0.37"))
    for z in points:
        report = verify_theorem1(fricke_involution(p), z)
        assert report.lhs.imag == report.rhs.imag == 0, z


def test_mapped_point_near_axis_is_too_small_not_off_plane():
    # Im(g z) = Im z / |c z + d|^2 is formed directly, so it stays positive
    with mp(50):
        z = mpmath.mpc("0.3", "1e-400")
    with pytest.raises(ImaginaryPartError):
        verify_eta_transform(UnimodularMatrix(3, 1, 8, 3), z)


@pytest.mark.parametrize("g, e, z", [
    # Im z = 5e-4 is below Y_MIN, Im(g z) is not: the series at g z used
    # to run first
    (S, fricke_involution(5), ("0.3", "0.0005")),
    # Im(g z) = 0.5 / 3461, below Y_MIN
    (UnimodularMatrix(1, 0, 100, 1), FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 100, 1)),
     ("0.3", "0.5")),
])
def test_too_small_im_is_refused_before_any_series(monkeypatch, g, e, z):
    calls = []
    monkeypatch.setattr(eta, "_pentagonal_sum", lambda *args: calls.append(args))
    with mp(50):
        z = mpmath.mpc(*z)
    with pytest.raises(ImaginaryPartError):
        verify_eta_transform(g, z)
    with pytest.raises(ImaginaryPartError):
        verify_theorem1(e, z)
    assert calls == []


def test_point_beyond_the_double_range_is_too_large():
    # log10 of the sides has 401 digits: a double cannot hold it
    z = mpmath.mpc("0.1", mpmath.mpf("1e" + "9" * 400))
    with pytest.raises(PointTooLargeError) as info:
        verify_eta_transform(UnimodularMatrix(3, 1, 8, 3), z)
    assert info.value.code == "point_too_large"


def test_ambiguous_branch_raises(monkeypatch):
    # a float pass half a turn off cannot pick the branch integer
    real = eta._float_log_product
    monkeypatch.setattr(eta, "_float_log_product", lambda x, y: real(x, y) + 1j * math.pi)
    with pytest.raises(ArithmeticError):
        log_eta(mpmath.mpc("0.2", "0.7"))


@pytest.mark.parametrize("verify, g", [
    (verify_eta_transform, UnimodularMatrix(3, 1, 8, 3)),
    (verify_theorem1, FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))),
    (verify_theorem1, fricke_involution(5)),
])
def test_ambiguous_folded_branch_raises(monkeypatch, verify, g):
    # each float pass 0.2 pi off moves an unfolded branch by 0.1 (one power)
    # or 0.2 turns (two), which still rounds, but the folded one by 4 / n
    # times that, 0.4 turns, which must not
    z = mpmath.mpc("0.2", "0.9")
    real = eta._float_log_product
    monkeypatch.setattr(eta, "_float_log_product", lambda x, y: real(x, y) + 0.2j * math.pi)
    p = getattr(g, "p", 1)
    eta._log_eta_p_eval(p, z._mpc_, 50)
    with pytest.raises(ArithmeticError, match="ambiguous"):
        verify(g, z)


def test_precision_floor():
    with pytest.raises(DomainError):
        log_eta(mpmath.mpc(0, 1), prec=10)


def test_precision_ceiling(monkeypatch):
    # refused before either point is formed at that precision
    def never(*args):
        raise AssertionError("_guarded_points ran")

    monkeypatch.setattr(eta, "_guarded_points", never)
    z = mpmath.mpc("0.1", "1")
    for call in (
        lambda prec: log_eta(z, prec=prec),
        lambda prec: log_eta_p(5, z, prec=prec),
        lambda prec: verify_eta_transform(S, z, prec=prec),
        lambda prec: verify_theorem1(fricke_involution(5), z, prec=prec),
    ):
        # 10**5000 is too long to print: its message names its bit length
        for prec in (eta.MAX_PRECISION + 1, 10**9, 10**5000):
            with pytest.raises(DomainError, match="ceiling"):
                call(prec)
        for prec in (eta.MIN_PRECISION - 1, True, -10**5000):
            with pytest.raises(DomainError, match="floor"):
                call(prec)
        # 50.5 and 60.5 used to answer, "50" to end in a bare TypeError
        for prec in (50.5, 60.5, 50.0, "50", None):
            with pytest.raises(DomainError, match="must be an int"):
                call(prec)


def test_truncation_soundness():
    # value with tail bound t at prec P sits within t of a much deeper sum
    prec = 40
    with mp(2 * prec + 10):
        z = mpmath.mpc("0.41", "0.09")
        coarse = eta._log_eta_p_eval(1, z._mpc_, prec)
        fine = eta._log_eta_p_eval(1, z._mpc_, 2 * prec + 10)
        # pentagonal summands grow like sqrt(digits): 50 -> 100 digits is sqrt 2
        assert abs(fine.terms / coarse.terms - math.sqrt(2)) < 0.15
        assert (abs(coarse.value - fine.value)
                <= coarse.tail_bound + mpmath.mpf(10) ** -(2 * prec))


@pytest.mark.parametrize("prec", [100, 200])
@pytest.mark.parametrize("y", ["0.001", "0.0015"])
def test_near_cusp_matches_product_oracle(y, prec):
    # |eta(0.001 i)| ~ 6e-113: the pentagonal sum cancels about 113 digits
    # and the cancellation guard must restore them
    with mp(prec):
        z = mpmath.mpc(0, y)
    result = eta._log_eta_p_eval(1, z._mpc_, prec)
    assert result.working_digits > prec + GUARD_DIGITS + 60
    ref = log_eta_product(z, prec)
    with mp(2 * prec):
        assert abs(result.value - ref) < mpmath.mpf(10) ** -prec


def _panel_level_points(prec):
    # (p, z) and (p, e z) for every theorem-1 case of criterion 8's panel
    from test_acceptance import PANEL_THEOREM1, _panel_z

    with mp(prec):
        for p, kind, q, theta in PANEL_THEOREM1:
            if kind == "g":
                z = _panel_z(q[2], q[3], theta, prec)
                ez = moebius(*q, z)
            else:
                z = _panel_z(q[2], q[3], theta, prec, scale=p)
                ez = moebius(p * q[0], q[1], p * q[2], p * q[3], z)
            yield from ((p, z), (p, ez))


def _panel_points(prec):
    # every point at which criterion 8's panel evaluates log eta
    from test_acceptance import PANEL_CLASSICAL, _panel_z

    with mp(prec):
        for entries, theta in PANEL_CLASSICAL:
            g = UnimodularMatrix(*entries)
            z = _panel_z(g.c, g.d, theta, prec)
            yield from (z, moebius(*entries, z))
        for p, z in _panel_level_points(prec):
            yield from (z, p * z)


def test_product_oracle_on_criterion_8_panel():
    prec = 100
    points = list(_panel_points(prec))
    assert len(points) == 2 * 10 + 4 * 10
    for z in points:
        value = log_eta(z, prec=prec)
        ref = log_eta_product(z, prec)
        with mp(2 * prec):
            assert abs(value - ref) < mpmath.mpf(10) ** -prec, z


def test_level_p_product_matches_two_series():
    # one Log of S(q) S(q^p) against the mean of two log eta series, with
    # the same summands, working digits and tail bound.  The bound on the
    # values is relative to their size p |z|: at p = 2^61 - 1 the
    # two-series value is itself about 1e6 10^-P off a reference 60 digits
    # deeper on values of size ~2e17
    prec = 100
    cases = list(_panel_level_points(prec))
    assert len(cases) == 20
    with mp(prec):
        cases += [(p, mpmath.mpc(x, eta.Y_MIN)) for x in ("0", "0.3", "-0.77")
                  for p in (3, 13, 1_000_003, 2**61 - 1)]
    for p, z in cases:
        got = eta._log_eta_p_eval(p, z._mpc_, prec)
        with mp(prec):
            one = eta._log_eta_p_eval(1, z._mpc_, prec)
            other = eta._log_eta_p_eval(1, (p * z)._mpc_, prec)
        assert got.terms == max(one.terms, other.terms), (p, z)
        assert got.working_digits == max(one.working_digits, other.working_digits), (p, z)
        with mp(2 * prec):
            tail = one.tail_bound + other.tail_bound
            assert abs(got.tail_bound - tail / 2) <= tail * mpmath.ldexp(1, -40), (p, z)
            ref = (one.value + other.value) / 2
            bound = mpmath.mpf(10) ** -prec * max(1, p * abs(z))
            assert abs(got.value - ref) < bound, (p, z)


def _assert_sums_agree(monkeypatch, z, prec, p=1):
    # each fixed-point sum log_eta_p(z) runs, over q^m for m in (1,) or
    # (1, p), has one stopping test and a q^m within 2 units of
    # e^(2 pi i m w), w = z mod 1 as the library rounds it, and is within
    # its rounding budget, 2^-prec at the side's working precision, of the
    # mpc loop at m w run 64 bits finer.  Both sums share the side's one
    # fixed point: the working precision in bits, which carries the larger
    # cancellation guard, plus 3 times the larger n_bits
    calls, stops = [], []
    fixed, stopping = eta._pentagonal_sum, eta._stopping_test

    def spy(*args):
        out = fixed(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(eta, "_pentagonal_sum", spy)
    monkeypatch.setattr(eta, "_stopping_test", lambda *args: stops.append(args) or stopping(*args))
    if p == 1:
        log_eta(z, prec=prec)
    else:
        log_eta_p(p, z, prec=prec)
    monkeypatch.undo()
    powers = (1,) if p == 1 else (1, p)
    assert len(calls) == len(stops) == len(powers)
    digits = prec + GUARD_DIGITS
    with mpmath.workdps(digits):
        z = mpmath.mpc(z)
        w = mpmath.mpc(mpmath.frac(z.real), z.imag)
        ys = [min(m * w.imag, eta._Y_FLOAT_CAP) for m in powers]
    cancel = max(max(0, math.ceil(-est / math.log(10))) for (_, _, _, est), _ in calls)
    bits = mpmath.libmp.dps_to_prec(digits + cancel)
    side = bits + 3 * max(stop[3] for (_, _, stop, _), _ in calls)
    for ((q, scale, stop, est), ((re, im), terms, bound)), m, y in zip(calls, powers, ys):
        assert scale == side, (p, z)
        with mpmath.workprec(scale + 64):
            qm = mpmath.mpc(mpmath.ldexp(q[0], -scale), mpmath.ldexp(q[1], -scale))
            assert abs(qm - mpmath.expjpi(2 * m * w)) <= mpmath.ldexp(2, -scale), (p, z)
            s = mpmath.mpc(mpmath.ldexp(re, -scale), mpmath.ldexp(im, -scale))
            s_ref, terms_ref, bound_ref = pentagonal_sum_mpc(m * w, y, est, digits)
            assert terms == terms_ref, (p, z)
            assert abs(s - s_ref) <= mpmath.ldexp(1, -bits), (p, z)
            # the tail bound from the doubles of the stopping test is rounded
            # up, never below the one computed at working precision
            bound = mpmath.mpf(bound)
            assert bound_ref <= bound <= bound_ref * (1 + mpmath.ldexp(1, -20)), (p, z)


def test_fixed_point_sum_matches_mpc_loop(monkeypatch):
    prec = 100
    points = [(z, prec, 1) for z in _panel_points(prec)]
    assert len(points) == 60
    with mp(200):
        points += [(mpmath.mpc(0, y), p, 1) for y in ("0.001", "0.0015") for p in (100, 200)]
        points += [(mpmath.mpc("0.1", "1e400"), 50, 1), (mpmath.mpc("0.3", "1e6"), 50, 1)]
    with mp(prec):
        points += [(z, prec, p) for p in (3, 13, 1_000_003)
                   for z in (mpmath.mpc("0.23", "0.91"), mpmath.mpc("-0.41", "0.09"),
                             mpmath.mpc("0.3", eta.Y_MIN), mpmath.mpc("0.1", "1e400"))]
    for z, prec, p in points:
        _assert_sums_agree(monkeypatch, z, prec, p)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0, 1, exclude_max=True),
    y=st.floats(eta.Y_MIN, 2),
    prec=st.integers(30, 200),
    p=st.sampled_from((1, 3, 13, 1_000_003)),
)
def test_fixed_point_sum_matches_mpc_loop_property(x, y, prec, p):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_sums_agree(monkeypatch, mpmath.mpc(x, y), prec, p)


def test_rounding_budget_is_checked():
    # a float estimate of |S| far too large predicts too few summands; the
    # sum runs on to its true stopping point and refuses its own result
    stop = eta._stopping_test(0.01, 1000.0, 60)
    bits = mpmath.libmp.dps_to_prec(60) + 3 * stop[3]
    with mpmath.workprec(bits + 10):
        q = mpmath.expjpi(2 * mpmath.mpc("0.3", "0.01"))
    q = (mpmath.libmp.to_fixed(q.real._mpf_, bits), mpmath.libmp.to_fixed(q.imag._mpf_, bits))
    with pytest.raises(ArithmeticError, match="fixed point was sized"):
        eta._pentagonal_sum(q, bits, stop, 1000.0)


def _largest_plan():
    # the n_bits of the longest sum a check can run: P = MAX_PRECISION at
    # Im z = Y_MIN on the imaginary axis, where |S| is smallest
    est = eta._float_log_product(0.0, eta.Y_MIN)
    return eta._stopping_test(eta.Y_MIN, est.real, eta.MAX_PRECISION + GUARD_DIGITS)[3]


def test_pentagonal_plan_is_a_short_addition_sequence():
    # every plan a sum can be given (n_bits >= 2, as _stopping_test predicts
    # at least one summand), replayed in pure integers on the (exponent,
    # sign) each slot holds
    top = _largest_plan()
    assert top == 13
    for n_bits in range(2, top + 1):
        width, plan = eta._pentagonal_plan(n_bits)
        assert len(plan) == 2 ** (n_bits - 1) - 1
        slots, born, last, event = {0: (1, -1)}, {1: 0}, {}, 0
        for n, (steps, i, j) in enumerate(plan, 1):
            for k, a, b, neg in steps:
                # a step multiplies two powers held at that step, and forms
                # each power once
                event += 1
                (x, sx), (y, sy) = slots[a], slots[b]
                last[x] = last[y] = event
                assert x + y not in born, (n_bits, n)
                slots[k], born[x + y] = (x + y, -sx * sy if neg else sx * sy), event
            # e(+-n) exist, signed (-1)^n, before pair n is summed
            event += 1
            e = n * (3 * n - 1) // 2
            assert (slots[i], slots[j]) == ((e, (-1) ** n), (e + n, (-1) ** n)), (n_bits, n)
            last[e] = last[e + n] = event
        # every power is read, and none after its slot is overwritten (that
        # read would meet the wrong exponent above); a slot is reused once
        # its power is read for the last time, so there are as many slots as
        # powers live at once
        assert born.keys() == last.keys()
        live = [0] * (event + 1)
        for x, start in born.items():
            live[start] += 1
            live[last[x]] -= 1
        assert width == max(itertools.accumulate(live)), n_bits
    # about 2.5 products per pair, where the step recurrence took 4
    assert sum(len(steps) for steps, _, _ in plan) <= 2.5 * len(plan)


@pytest.mark.parametrize("digits", [40, 100, 300])
@pytest.mark.parametrize("qr, qi", [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1), (1, -1)])
def test_pentagonal_sum_is_exact_where_every_power_is(qr, qi, digits):
    # q = (qr + i qi) / 2 is a dyadic whose powers up to the last exponent
    # summed have fewer than F fractional bits, so no product of the plan
    # rounds: the fixed-point sum is the exact partial sum, bit for bit.  A
    # product rounded beyond the rule's truncation, a dropped power or a
    # wrong sign shows here, where the budget of the other tests hides it
    y = -math.log(abs(complex(qr, qi)) / 2) / (2 * math.pi)
    est = eta._float_log_product(math.atan2(qi, qr) / (2 * math.pi), y)
    stop = eta._stopping_test(y, est.real, digits)
    bits = mpmath.libmp.dps_to_prec(digits) + 3 * stop[3]
    (sr, si), terms, _ = eta._pentagonal_sum((qr << bits - 1, qi << bits - 1), bits, stop, est.real)
    power, exact, prev = (1, 0), [1 << bits, 0], 0
    for n in range(1, terms // 2 + 1):
        for e in (n * (3 * n - 1) // 2, n * (3 * n + 1) // 2):
            for _ in range(e - prev):
                power = (power[0] * qr - power[1] * qi, power[0] * qi + power[1] * qr)
            prev = e
            for part, t in enumerate(power):
                # q^e over 2^F, 2^F (qr + i qi)^e / 2^e, is a Gaussian integer,
                # and so is every lower power
                assert (t << bits) % (1 << e) == 0
                exact[part] += (-1) ** n * ((t << bits) >> e)
    assert terms > 9 and [sr, si] == exact


def test_largest_pentagonal_plan_builds_within_a_second():
    # the largest plan a sum can be given builds in about 0.05 s on a
    # 2-core x86-64 container; the bound leaves room for slower machines
    start = time.perf_counter()
    eta._pentagonal_plan.__wrapped__(_largest_plan())
    assert time.perf_counter() - start < 1


def test_float_pass_matches_full_loop():
    # the closed tail -q^(n+1)/(1-q) stays within 2^-60/(1-|q|^2) of the
    # terms it replaces.  The bound is 1e-12 relative to the sum once that
    # exceeds 1: at z = 0.001 i the sum is -258, and the full loop's 6,600
    # float additions alone leave it about 3e-12 off the exact series.
    points = list(_panel_points(100))
    points += [mpmath.mpc(x, y) for x in ("0", "0.3", "0.77") for y in ("0.001", "0.0015")]
    for z in points:
        x, y = float(mpmath.frac(z.real)), min(float(z.imag), eta._Y_FLOAT_CAP)
        full = float_log_product(x, y)
        assert abs(eta._float_log_product(x, y) - full) < 1e-12 * max(1, abs(full)), z


def test_log_eta_p_definition_and_shift():
    with mp(50):
        z = mpmath.mpc("0.2", "0.9")
        direct = (log_eta(z, prec=50) + log_eta(5 * z, prec=50)) / 2
        assert abs(log_eta_p(5, z, prec=50) - direct) < mpmath.mpf(10) ** -55
        shift = log_eta_p(5, z + 1, prec=50) - log_eta_p(5, z, prec=50)
        assert abs(shift - mpmath.pi * 1j / 4) < mpmath.mpf(10) ** -45


@pytest.mark.parametrize("p, error", [
    (4, NotOddPrimeError), (1, NotOddPrimeError), (0, NotOddPrimeError),
    (-3, NotOddPrimeError), (9, NotOddPrimeError), (2**89 - 1, PrimeTooLargeError),
    (5.0, NotOddPrimeError), ("5", NotOddPrimeError),
])
def test_log_eta_p_refuses_a_level_that_is_not_an_odd_prime(p, error):
    # refused before any arithmetic: 0 and -3 used to blame z instead, and
    # 5.0 and "5" ended in an AttributeError and a TypeError
    for call in (log_eta_p, eta_p_branch_ratio):
        with pytest.raises(error):
            call(p, mpmath.mpc("0.1", "1"))


@pytest.mark.parametrize("p, error, bits", [
    (10**5000, NotOddPrimeError, 16610),
    (10**4400 + 1, PrimeTooLargeError, 14617),
], ids=["even", "odd"])
def test_a_level_beyond_4300_digits_is_refused_by_its_bits(p, error, bits):
    # the message names p by its bit length: str(p) itself raises ValueError
    with pytest.raises(error, match=f"^p = <{bits}-bit integer> is "):
        log_eta_p(p, mpmath.mpc("0.1", "1"))


def test_delta_p_consistency():
    # exp(2k log_eta_p) must equal the direct product eta^k(z) eta^k(pz)
    for p in (5, 7):
        k = k_of_p(p)
        prec = 40
        with mp(prec):
            z = mpmath.mpc("0.31", "0.77")
            lhs = mpmath.exp(2 * k * log_eta_p(p, z, prec=prec))
            eta1 = mpmath.exp(log_eta(z, prec=prec))
            eta2 = mpmath.exp(log_eta(p * z, prec=prec))
            rhs = eta1**k * eta2**k
            assert abs(lhs - rhs) < abs(rhs) * mpmath.mpf(10) ** (-(prec - 10))


def test_branch_ratio_root_of_unity():
    for p, z_parts in ((5, ("0.9", "0.5")), (7, ("0.1", "1.1")), (13, ("-0.4", "0.8"))):
        k = k_of_p(p)
        with mp(60):
            q = eta_p_branch_ratio(p, mpmath.mpc(*z_parts), prec=60)
            assert abs(abs(q) - 1) < mpmath.mpf(10) ** -55
            assert abs(q ** (2 * k) - 1) < mpmath.mpf(10) ** -50
            # expjpi(r / k) for the integer r, so a trivial ratio is 1
            # exactly; exp, log and exp of Delta_p left 1.8e-72 at p = 7
            assert (q == 1) == (p != 5)


def test_branch_ratio_nontrivial_case():
    # frozen: at this point the additive branch differs from the principal
    # 2k-th root of Delta_5 by exactly exp(i pi / 6)
    with mp(60):
        q = eta_p_branch_ratio(5, mpmath.mpc("0.9", "0.5"), prec=60)
        expected = mpmath.expjpi(mpmath.mpf(1) / 6)
        assert abs(q - expected) < mpmath.mpf(10) ** -50


def test_branch_ratio_checks_its_level_once(monkeypatch):
    # k_of_p checks p; then the precision and z, in the order log_eta_p has
    from rademacher import matrices

    calls, real = [], matrices.is_odd_prime
    monkeypatch.setattr(matrices, "is_odd_prime", lambda p: calls.append(p) or real(p))
    eta_p_branch_ratio(43, mpmath.mpc("0.2", "0.7"))
    assert calls == [43]
    for p, prec, error in ((45, 10, NotOddPrimeError), (43, 10, DomainError),
                           (43, 50, NotUpperHalfPlaneError)):
        with pytest.raises(DomainError) as info:
            eta_p_branch_ratio(p, "abc", prec)
        assert type(info.value) is error


def test_automorphy_term_has_no_sign_or_root():
    # Log w = Log(w^2) / 2 as Re w > 0, so the term needs neither sgn c nor
    # sqrt det
    assert not hasattr(eta, "sgn")


def test_pentagonal_sum_signs_in_the_step(monkeypatch):
    # (-1)^n rides in the plan's signed powers, so no parity test is left,
    # and the sum forms every power from q, with no _fixed_power of its own
    tree = ast.parse(textwrap.dedent(inspect.getsource(eta._pentagonal_sum)))
    assert not any(isinstance(node, ast.Mod) for node in ast.walk(tree))
    powers, fixed = [], eta._fixed_power
    monkeypatch.setattr(eta, "_fixed_power", lambda *args: powers.append(args[2]) or fixed(*args))
    log_eta_p(5, mpmath.mpc("0.2", "0.3"), prec=50)
    # per series: q^m for the product
    assert powers == [1, 5]


def test_one_fixed_point_per_side(monkeypatch):
    # a side is sized once: q is truncated by one to_fixed per part, the
    # point is used as the caller formed it, and both sums of a level-p
    # side run in one fixed point, here though only the sum at q cancels
    source = textwrap.dedent(inspect.getsource(eta._log_eta_p_eval))
    calls = [node.func.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("to_fixed") == 2 and "mpmath.mpc(z)" not in source
    scales, fixed = [], eta._pentagonal_sum
    monkeypatch.setattr(eta, "_pentagonal_sum",
                        lambda *args: scales.append(args[1]) or fixed(*args))
    result = log_eta_p(5, mpmath.mpc("0.3", "0.002"), prec=50)
    assert len(scales) == 2 and scales[0] == scales[1]
    assert result == log_eta_p(5, mpmath.mpc("0.3", "0.002"), prec=50)


def test_verify_eta_transform_examples():
    with mp(50):
        i = mpmath.mpc(0, 1)
    for g, z, prec, bound in (
        (T, i, 50, -40),
        (S, i, 50, -40),
        (UnimodularMatrix(3, 1, 8, 3), mpmath.mpc(mpmath.mpf(1) / 3, 0.5), 100, -85),
        (UnimodularMatrix(1, 0, -1, 1), mpmath.mpc("0.2", "1.2"), 50, -40),
        (-T, i, 50, -40),
    ):
        report = verify_eta_transform(g, z, prec=prec)
        assert report.residual < mpmath.mpf(10) ** bound
        assert report.passed(f"1e{bound}")


def test_verify_theorem1_examples():
    report = verify_theorem1(
        FrickeElement.gamma0(5, T), mpmath.mpc("0.23", "0.91"), prec=100
    )
    assert report.residual < mpmath.mpf(10) ** -85

    with mp(100):
        zfix = mpmath.mpc(0, 1) / mpmath.sqrt(5)
    report = verify_theorem1(fricke_involution(5), zfix, prec=100)
    assert report.residual < mpmath.mpf(10) ** -85

    report = verify_theorem1(
        FrickeElement.gamma0(7, UnimodularMatrix(1, 0, 7, 1)),
        mpmath.mpc(mpmath.mpf(1) / 5, 1),
        prec=120,
    )
    assert report.residual < mpmath.mpf(10) ** -100


@pytest.mark.parametrize("verify, g", [
    (verify_theorem1, FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))),
    (verify_eta_transform, UnimodularMatrix(3, 1, 8, 3)),
    (log_eta_p, 5),
    (log_eta, None),
])
def test_one_q_and_one_log_per_side(monkeypatch, verify, g):
    # a side of either law forms q once and takes one Log, the right side's
    # with the automorphy term -(c z + d)^2 / det folded in: a q or a Log
    # per series on the level-p side, a Log of its own for the automorphy
    # term, or a square root in it, would show here.  The eta module calls mpmath.libmp's entry points; the
    # spies on mpmath's object layer show that nothing else forms q, a Log
    # or a root
    calls = []
    for module, names in ((eta, ("mpc_expjpi", "mpc_log")), (mpmath, ("expjpi", "log", "sqrt"))):
        for name in names:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name:
                                calls.append(_name) or _real(*args))
    assert not [name for name in vars(eta) if "sqrt" in name]
    with mp(100):
        z = mpmath.mpc("0.2", "0.3")
    result = verify(*((z,) if g is None else (g, z)), prec=100)
    if isinstance(result, VerificationReport):
        assert result.residual < mpmath.mpf(10) ** -100
        expected = (2, 2)
    else:
        expected = (1, 1)
    assert (calls.count("mpc_expjpi"), calls.count("mpc_log")) == expected
    assert [name for name in calls if not name.startswith("mpc_")] == []


def _folded_cases(prec):
    # (level, matrix, det, phi, verify, element, z): criterion 8's panel
    # (c = 0 and cosets of det p among them), near-cusp points whose w^2 lies
    # near the negative axis, and Im z = 10^401
    from test_acceptance import PANEL_CLASSICAL, PANEL_THEOREM1, _panel_z

    from rademacher.dedekind import rademacher_phi
    from rademacher.fricke import phi_p

    def classical(g, z):
        return 1, g.entries(), 1, rademacher_phi(g), verify_eta_transform, g, z

    def level(e, z):
        return (e.p, *e.integer_matrix(), phi_p(e), verify_theorem1, e, z)

    cases = []
    for entries, theta in PANEL_CLASSICAL:
        g = UnimodularMatrix(*entries)
        cases.append(classical(g, _panel_z(g.c, g.d, theta, prec)))
    for p, kind, q, theta in PANEL_THEOREM1:
        e = (FrickeElement.gamma0(p, UnimodularMatrix(*q)) if kind == "g"
             else FrickeElement.coset(p, *q))
        cases.append(level(e, _panel_z(q[2], q[3], theta, prec, scale=1 if kind == "g" else p)))
    with mp(prec):
        near, far = mpmath.mpc("1", "0.002"), mpmath.mpc("0.1", "1e401")
        cases += [classical(S, near), level(fricke_involution(5), mpmath.mpc("0.447", "0.002")),
                  classical(T, far), level(FrickeElement.gamma0(5, T), far)]
    return cases


def test_folded_right_side_matches_object_layer():
    # the right side, one Log of (prod S_m)^(4/n) w^2, against log eta_p(z)
    # + pi i phi / 12 + (1/2) Log w with w = (c z + d) / (i sgn c sqrt det)
    # through mpmath's object layer at 2P digits on top of the magnitude
    prec = 100
    cases = _folded_cases(prec)
    assert len(cases) == 24
    assert {det for _, _, det, *_ in cases} == {1, 5, 7, 11}
    assert sum(m[2] == 0 for _, m, *_ in cases) == 5
    for p, (a, b, c, d), det, phi, verify, g, z in cases:
        report = verify(g, z, prec=prec)
        digits = 2 * prec + max(0, int(mpmath.ceil(mpmath.log10(p * abs(z)))))
        base = log_eta(z, prec=digits) if p == 1 else log_eta_p(p, z, prec=digits)
        with mpmath.workdps(digits + GUARD_DIGITS):
            ref = base + mpmath.pi * 1j * Fraction(phi).numerator / (12 * Fraction(phi).denominator)
            if c:
                ref += mpmath.log((c * z + d) / (1j * mpmath.sign(c) * mpmath.sqrt(det))) / 2
            assert abs(report.rhs - ref) < mpmath.mpf(10) ** -prec, (g, z)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_quotient_rounds_as_from_rational(data):
    # bit for bit: any quotient, a halfway case m / 2^j with m odd of prec + 1
    # bits, and a numerator far below its denominator, of either sign
    prec = data.draw(st.integers(1, 300))
    kind = data.draw(st.sampled_from(("any", "tie", "small")))
    if kind == "tie":
        j = data.draw(st.integers(0, 60))
        den = data.draw(st.integers(1, 2**200)) << j
        num = (data.draw(st.integers(2**prec, 2**(prec + 1) - 1)) | 1) * (den >> j)
    elif kind == "small":
        num, den = data.draw(st.integers(0, 2**20)), data.draw(st.integers(2**200, 2**400))
    else:
        num, den = data.draw(st.integers(0, 2**400)), data.draw(st.integers(1, 2**300))
    num *= data.draw(st.sampled_from((1, -1)))
    exp = data.draw(st.integers(-500, 500))
    expected = mpmath.libmp.from_rational(num, den, prec, "n")
    assert eta._quotient(num, den, prec) == expected
    assert eta._quotient(num, den, prec, exp) == mpmath.libmp.mpf_shift(expected, exp)


def test_passed_compares_every_number_type_exactly():
    from decimal import Decimal

    report = verify_eta_transform(UnimodularMatrix(3, 1, 8, 3), mpmath.mpc("0.333", "0.5"),
                                  prec=60)
    exact = Fraction(*mpmath.libmp.to_rational(report.residual._mpf_))
    assert 0 < exact < Fraction(1, 10**60)
    cases = [(1, True), (0, False), (True, True), (1e-40, True), (1e-80, False),
             (mpmath.mpf("1e-40"), True), (report.residual, False), ("1e-40", True),
             ("1e-80", False), ("1/3", True), (Fraction(1, 10**40), True), (exact, False),
             (exact + Fraction(1, 10**300), True), (Decimal("1e-40"), True),
             (Decimal("1e-80"), False), (Decimal("Infinity"), True), (Decimal("-Infinity"), False),
             (Decimal("NaN"), False), (Decimal("sNaN"), False), (float("nan"), False)]
    for tolerance, expected in cases:
        assert report.passed(tolerance) is expected, tolerance
        assert report.to_dict(tolerance=tolerance)["pass"] is expected, tolerance
    assert report.to_dict(tolerance=Fraction(1, 8))["tolerance"] == "1/8"
    for tolerance in (None, 1j, mpmath.mpc(1), [1], b"1e-40", object()):
        with pytest.raises(DomainError, match="tolerance must be a number or text") as info:
            report.passed(tolerance)
        assert info.value.code == "domain"


def test_precision_scaling_no_plateau():
    g = UnimodularMatrix(3, 1, 8, 3)
    e = FrickeElement.gamma0(5, UnimodularMatrix(4, 1, 15, 4))
    residuals = []
    residuals_p = []
    for prec in (50, 100, 200):
        with mp(prec):
            z = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(1) / 2)
        residuals.append(verify_eta_transform(g, z, prec=prec).residual)
        residuals_p.append(verify_theorem1(e, z, prec=prec).residual)
    for rs in (residuals, residuals_p):
        for prec, r in zip((50, 100, 200), rs):
            assert r < mpmath.mpf(10) ** (-(prec - 15))
        assert rs[1] < rs[0] * mpmath.mpf(10) ** -30
        assert rs[2] < rs[1] * mpmath.mpf(10) ** -30


@pytest.mark.parametrize("tolerance", ["\u0661", " 1e-40 ", "1_0"],
                         ids=["arabic-indic", "padded", "underscore"])
def test_text_tolerance_is_read_by_the_cli_grammar(tolerance):
    # mpmath read these as 1, 1e-40 and 10, so passed returned True for each
    report = verify_eta_transform(T, mpmath.mpc(0, 1), prec=50)
    for call in (report.passed, lambda text: report.to_dict(tolerance=text)):
        with pytest.raises(ParseError, match="tolerance must be a number, got") as info:
            call(tolerance)
        assert info.value.code == "parse"
    assert report.passed("1e-40") and report.passed(mpmath.mpf("1e-40"))
    assert not report.passed(0) and report.to_dict(tolerance="1e-40")["pass"] is True


def test_report_dict_shape():
    report = verify_eta_transform(T, mpmath.mpc(0, 1), prec=50)
    d = report.to_dict(tolerance="1e-40")
    assert set(d) == {"lhs", "rhs", "residual", "truncation_terms", "lhs_terms",
                      "rhs_terms", "series", "precision", "tail_bound",
                      "working_digits", "tolerance", "pass"}
    assert d["pass"] is True and d["precision"] == 50
    assert d["series"] == "pentagonal"
    assert d["truncation_terms"] == max(d["lhs_terms"], d["rhs_terms"]) > 0
    assert mpmath.mpf(d["tail_bound"]) < mpmath.mpf(10) ** -60
    assert d["working_digits"] >= 50 + GUARD_DIGITS
    assert "," in d["lhs"] and "," in d["rhs"]
    bare = report.to_dict()
    assert "pass" not in bare and "tolerance" not in bare
    assert isinstance(report, VerificationReport)


def test_no_global_precision_write(monkeypatch, capsys):
    # every eta entry point, the report methods, both verify commands and
    # every refusal run at precisions they state: none sets mp.prec or mp.dps
    from rademacher.cli import run

    with mp(50):
        z = mpmath.mpc("0.2", "0.9")
        refused = [mpmath.mpc("0.3", "-1"), mpmath.mpc("0.3", "1e-5"), mpmath.mpc("0.1", "1e5000"),
                   mpmath.mpc("0.1", mpmath.mpf("1e" + "9" * 400))]
    writes = []
    context = type(mpmath.mp)
    for name in ("prec", "dps"):
        real = getattr(context, name)
        monkeypatch.setattr(context, name, property(
            real.fget, lambda ctx, value, _real=real, _name=name:
            writes.append(_name) or _real.fset(ctx, value)))
    e = FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))
    log_eta(z), log_eta_p(5, z), eta_p_branch_ratio(5, z)
    for report in (verify_eta_transform(S, z), verify_theorem1(e, z)):
        report.passed("1e-40"), report.passed(1e-40), report.to_dict(tolerance="1/3")
    for argv in (["verify-eta", "--matrix", "3,1,8,3", "--z", "0.333,0.5"],
                 ["verify-theorem1", "--fricke", "5:0,-1,1,0", "--z", "0.2,0.8"]):
        assert run(argv) == 0
    # off the half plane, too near the axis, too large (log_eta has no
    # magnitude guard) and too large to size in doubles
    for i, point in enumerate(refused):
        for call in (lambda: log_eta(point), lambda: verify_eta_transform(S, point),
                     lambda: verify_theorem1(e, point))[i // 2:]:
            with pytest.raises((NotUpperHalfPlaneError, ImaginaryPartError, PointTooLargeError)):
                call()
    real_pass = eta._float_log_product
    monkeypatch.setattr(eta, "_float_log_product", lambda x, y: real_pass(x, y) + 1j * math.pi)
    with pytest.raises(ArithmeticError, match="ambiguous"):
        log_eta(z)
    capsys.readouterr()
    assert writes == []


def _reports_at(dps, cases):
    # every report of cases as text, made under mp.dps = dps
    old = mpmath.mp.dps
    try:
        mpmath.mp.dps = dps
        return [call() for call in cases]
    finally:
        mpmath.mp.dps = old


def test_no_global_precision_read(capsys):
    # the reports depend on (g, z, P) alone: mp.dps = 15 and 1000 give the
    # same bytes on the frozen commands, criterion 8's panel and the points
    # 0.1 + 10^k i, whose magnitude guard the parent sized at mp.prec
    from test_acceptance import PANEL_CLASSICAL, PANEL_THEOREM1, _panel_z
    from test_cli import FROZEN_VERIFY

    from rademacher.cli import run

    def command(argv):
        status = run(argv)
        return status, capsys.readouterr().out

    def report(verify, g, z, prec):
        return json.dumps(verify(g, z, prec=prec).to_dict(tolerance="1e-85"))

    cases = [lambda argv=f"{plain}{line[0]}".split(): command(argv)
             for line in FROZEN_VERIFY for plain in ("", "--plain ")]
    for entries, theta in PANEL_CLASSICAL:
        g = UnimodularMatrix(*entries)
        z = _panel_z(g.c, g.d, theta, 100)
        cases.append(lambda g=g, z=z: report(verify_eta_transform, g, z, 100))
    for p, kind, q, theta in PANEL_THEOREM1:
        e = (FrickeElement.gamma0(p, UnimodularMatrix(*q)) if kind == "g"
             else FrickeElement.coset(p, *q))
        z = _panel_z(q[2], q[3], theta, 100, scale=1 if kind == "g" else p)
        cases.append(lambda e=e, z=z: report(verify_theorem1, e, z, 100))
    for k in range(401, 416, 2):
        with mp(50):
            z = mpmath.mpc("0.1", f"1e{k}")
        cases.append(lambda z=z: report(verify_eta_transform, T, z, 50))
        cases.append(lambda z=z: report(verify_theorem1, FrickeElement.gamma0(5, T), z, 50))
    # an mpf tolerance prints from its own bits, as str does at mp.dps = 15
    fixed = verify_eta_transform(T, mpmath.mpc("0.2", "0.9"), prec=50)
    tolerance = mpmath.mpf("1e-40")
    cases.append(lambda: json.dumps(fixed.to_dict(tolerance=tolerance)))
    assert len(cases) == 8 + 20 + 16 + 1
    assert json.loads(cases[-1]())["tolerance"] == "1.0e-40"
    assert _reports_at(15, cases) == _reports_at(1000, cases)


def test_threads_build_plans_alike():
    # concurrent first calls at plan sizes not yet cached give the reports
    # of a serial run, and leave the plans a fresh build makes
    with mp(100):
        cases = [(g, mpmath.mpc(x, y), prec) for g, x, y in ((S, "0.2", "0.9"), (T, "0.1", "0.05"),
                                                             (S, "0.3", "0.01"))
                 for prec in (30, 80)]
    eta._pentagonal_plan.cache_clear()
    reports = {i: set() for i in range(len(cases))}

    def work():
        for i, (g, z, prec) in enumerate(cases):
            reports[i].add(json.dumps(verify_eta_transform(g, z, prec=prec).to_dict()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    built = []
    for n_bits in range(1, 10):
        hits = eta._pentagonal_plan.cache_info().hits
        plan = eta._pentagonal_plan(n_bits)
        if eta._pentagonal_plan.cache_info().hits > hits:
            built.append(n_bits)
            assert plan == eta._pentagonal_plan.__wrapped__(n_bits), n_bits
    assert len(built) >= 3
    for i, (g, z, prec) in enumerate(cases):
        assert reports[i] == {json.dumps(verify_eta_transform(g, z, prec=prec).to_dict())}, i


def test_threads_share_no_precision():
    # concurrent checks at different P neither see nor leave one another's
    # precision: one report per input, and mp.dps untouched
    with mp(50):
        z = mpmath.mpc("0.2", "0.9")
    precs = (30, 50, 80, 120)
    reports = {prec: set() for prec in precs}

    def work():
        for i in range(40):
            prec = precs[i % len(precs)]
            reports[prec].add(json.dumps(verify_eta_transform(S, z, prec=prec).to_dict()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert {prec: len(texts) for prec, texts in reports.items()} == dict.fromkeys(precs, 1)
    assert mpmath.mp.dps == 15
