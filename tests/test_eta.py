import math
import re

import mpmath
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import float_log_product, log_eta_product, pentagonal_sum_mpc
from rademacher import eta
from rademacher.errors import (
    DomainError,
    ImaginaryPartError,
    NotOddPrimeError,
    NotUpperHalfPlaneError,
    PointTooLargeError,
    PrimeTooLargeError,
)
from rademacher.eta import (
    GUARD_DIGITS,
    VerificationReport,
    _log_eta_eval,
    eta_p_branch_ratio,
    log_eta,
    log_eta_p,
    verify_eta_transform,
    verify_theorem1,
)
from rademacher.fricke import k_of_p
from rademacher.matrices import S, T, FrickeElement, UnimodularMatrix, fricke_involution


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


@pytest.mark.parametrize("re, im", [
    ("nan", "1"), ("inf", "1"), ("-inf", "1"), ("0", "inf"), ("0", "nan"),
    ("0", "-1"), ("0.3", "0"),
])
def test_points_off_the_upper_half_plane_raise(re, im):
    with mp(50):
        z = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
    for call in (
        lambda: log_eta(z),
        lambda: log_eta_p(5, z),
        lambda: verify_eta_transform(S, z),
        lambda: verify_theorem1(fricke_involution(5), z),
    ):
        with pytest.raises(NotUpperHalfPlaneError) as info:
            call()
        assert info.value.code == "not_upper_half_plane"


def test_huge_imaginary_part():
    # |q| = exp(-2 pi 1e400) leaves S = 1: log eta is pi i z / 12 exactly
    with mp(50):
        z = mpmath.mpc("0.1", "1e400")
        result = _log_eta_eval(z, 50)
        assert result.terms == 1 and result.tail_bound < mpmath.mpf(10) ** -1000
        assert result.value == mpmath.pi * 1j * z / 12


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
        for prec in (eta.MAX_PRECISION + 1, 10**9):
            with pytest.raises(DomainError, match="ceiling"):
                call(prec)
        with pytest.raises(DomainError, match="floor"):
            call(eta.MIN_PRECISION - 1)


def test_truncation_soundness():
    # value with tail bound t at prec P sits within t of a much deeper sum
    prec = 40
    with mp(2 * prec + 10):
        z = mpmath.mpc("0.41", "0.09")
        coarse = _log_eta_eval(z, prec)
        fine = _log_eta_eval(z, 2 * prec + 10)
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
    result = _log_eta_eval(z, prec)
    assert result.working_digits > prec + GUARD_DIGITS + 60
    ref = log_eta_product(z, prec)
    with mp(2 * prec):
        assert abs(result.value - ref) < mpmath.mpf(10) ** -prec


def _panel_points(prec):
    # every point at which criterion 8's panel evaluates log eta
    from test_acceptance import PANEL_CLASSICAL, PANEL_THEOREM1, _panel_z

    with mp(prec):
        for entries, theta in PANEL_CLASSICAL:
            g = UnimodularMatrix(*entries)
            z = _panel_z(g.c, g.d, theta, prec)
            yield from (z, eta._moebius(*entries, z))
        for p, kind, q, theta in PANEL_THEOREM1:
            if kind == "g":
                z = _panel_z(q[2], q[3], theta, prec)
                ez = eta._moebius(*q, z)
            else:
                z = _panel_z(q[2], q[3], theta, prec, scale=p)
                ez = eta._moebius(p * q[0], q[1], p * q[2], p * q[3], z)
            yield from (z, p * z, ez, p * ez)


def test_product_oracle_on_criterion_8_panel():
    prec = 100
    points = list(_panel_points(prec))
    assert len(points) == 2 * 10 + 4 * 10
    for z in points:
        value = log_eta(z, prec=prec)
        ref = log_eta_product(z, prec)
        with mp(2 * prec):
            assert abs(value - ref) < mpmath.mpf(10) ** -prec, z


def _assert_sums_agree(monkeypatch, z, prec):
    # the fixed-point sum log_eta(z) runs is within its rounding budget,
    # 2^-prec at its working precision plus rounding the result to prec
    # bits, of the mpc loop run 64 bits finer
    calls = []
    fixed = eta._pentagonal_sum

    def spy(*args):
        out = fixed(*args)
        calls.append((args, out, mpmath.mp.prec))
        return out

    monkeypatch.setattr(eta, "_pentagonal_sum", spy)
    log_eta(z, prec=prec)
    monkeypatch.undo()
    [(args, (s, terms, bound), bits)] = calls
    with mpmath.workprec(bits + 64):
        s_ref, terms_ref, bound_ref = pentagonal_sum_mpc(*args)
        assert terms == terms_ref, z
        assert abs(s - s_ref) <= mpmath.ldexp(1 + abs(s), -bits), z
        # the tail bound from the doubles of the stopping test is rounded
        # up, never below the one computed at working precision
        assert bound_ref <= bound <= bound_ref * (1 + mpmath.ldexp(1, -20)), z


def test_fixed_point_sum_matches_mpc_loop(monkeypatch):
    prec = 100
    points = [(z, prec) for z in _panel_points(prec)]
    assert len(points) == 60
    with mp(200):
        points += [(mpmath.mpc(0, y), p) for y in ("0.001", "0.0015") for p in (100, 200)]
        points += [(mpmath.mpc("0.1", "1e400"), 50), (mpmath.mpc("0.3", "1e6"), 50)]
    for z, p in points:
        _assert_sums_agree(monkeypatch, z, p)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0, 1, exclude_max=True),
    y=st.floats(eta.Y_MIN, 2),
    prec=st.integers(30, 200),
)
def test_fixed_point_sum_matches_mpc_loop_property(x, y, prec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_sums_agree(monkeypatch, mpmath.mpc(x, y), prec)


def test_rounding_budget_is_checked():
    # a float estimate of |S| far too large predicts too few summands; the
    # sum runs on to its true stopping point and refuses its own result
    with mpmath.workdps(60):
        with pytest.raises(ArithmeticError, match="fixed point was sized"):
            eta._pentagonal_sum(mpmath.mpc("0.3", "0.01"), 0.01, 1000.0, 60)


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
])
def test_log_eta_p_refuses_a_level_that_is_not_an_odd_prime(p, error):
    # refused before any arithmetic: 0 and -3 used to blame z instead
    with pytest.raises(error):
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


def test_branch_ratio_nontrivial_case():
    # frozen: at this point the additive branch differs from the principal
    # 2k-th root of Delta_5 by exactly exp(i pi / 6)
    with mp(60):
        q = eta_p_branch_ratio(5, mpmath.mpc("0.9", "0.5"), prec=60)
        expected = mpmath.expjpi(mpmath.mpf(1) / 6)
        assert abs(q - expected) < mpmath.mpf(10) ** -50


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
