"""Arbitrary-precision evaluation of log eta and the transformation checks.

log eta comes from Euler's pentagonal series,

    eta(z) = q^(1/24) S,   S = sum_{n in Z} (-1)^n q^(n(3n-1)/2),   q = e^(2 pi i z),

as

    log eta(z) = pi i z / 12 + Log S + 2 pi i k,

where the integer k puts the value on the branch of the product formula
pi i z / 12 + sum_{n>=1} Log(1 - q^n), with principal logarithms term by
term (each 1 - q^n lies in the right half plane).  P is the requested
precision in decimal digits.  The evaluation has three stages.

1. A complex128 pass sums A = sum_{n>=1} Log(1 - q^n) term by term until
   |q^n| < 2^-30 and closes the rest as -q^(n+1) / (1 - q), within
   2^-60 / (1 - |q|^2) since |Log(1 - u) + u| <= |u|^2 / (1 - |u|).  By
   Euler's identity prod (1 - q^n) = S, so A is a logarithm of S.
   Im A fixes k = round((Im A - Im Log S) / 2 pi); a fractional part
   beyond 1/4 raises ArithmeticError.  Re A is log|S|: near a cusp the
   alternating sum cancels (|eta(0.001 i)| ~ 6e-113), so the working
   precision is raised by ceil(-log10 |S|) digits on top of the
   GUARD_DIGITS carried everywhere.
2. The sum runs over n = 0, +-1, +-2, ... in complex fixed point: q and
   its powers are pairs of Python ints scaled by 2^F, with F the working
   precision in bits plus 3 bits per bit of twice the summand count the
   stopping test predicts.  Every factor has modulus <= 1 and each
   product is truncated by less than one unit 2^-F per part, so S_N is
   within N^3/2 * 2^-F < 2^-prec of the exact partial sum (the proof is
   at _pentagonal_sum): below the 10^-working of the working precision,
   which already carries the cancellation guard, so S_N keeps
   digits + magnitude digits relative to |S|.  After the terms +-n the
   exponents left are distinct integers >= e = (n+1)(3n+2)/2, so the
   dropped tail is at most t = |q|^e / (1 - |q|) and the logarithm moves
   by at most -log(1 - t/|S_n|).  The sum stops once that bound is below
   10^-(P+10).  The test runs in log space on the top 60 bits of S_n:
   |q|^e leaves the double range long before it reaches 10^-(P+10) near
   a cusp.
3. One Log of the sum.

That is O(sqrt(P / Im z)) multiplications and one Log, where the product
formula needs O(P / Im z) Logs; the product survives as a test oracle.
z must have finite parts and Im z > 0 (NotUpperHalfPlaneError, checked
before any float conversion).  Points with Im z below Y_MIN are refused
before any series as too costly: the summands grow like sqrt(P / Im z)
and the cancellation guard like 1 / Im z digits.

Both sides of a transformation law are about as large as |z| and |g z|,
p |z| and p |g z| for the level-p law, so the verify functions carry
ceil(log10 of the largest) more digits when that is positive (the
magnitude guard), and the residual stays an absolute 10^-P certificate.
Beyond 10^MAGNITUDE_MAX_DIGITS they refuse the point (PointTooLargeError)
as too costly.

The level-p function uses the additive branch

    log eta_p(z) = ( log eta(z) + log eta(p z) ) / 2,

under which the transformation law holds pointwise with the symbol Phi_p.
eta_p_branch_ratio measures how this branch relates to the principal
2k-th root of Delta_p = eta^k(z) eta^k(p z): the ratio is a 2k-th root of
unity, not always 1.

The level-p law is the classical one with log eta_p, Phi_p, and on the
W_p coset the integer matrix sqrt(p) e of determinant p, so both verify
functions are one call to _verify, which takes the level as a number:
p = 1 is the classical law, whose log eta_p is log eta itself (one
series per side, not two).  P outside [MIN_PRECISION, MAX_PRECISION] is
refused once per public call, before any arithmetic at that precision.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import mpmath
from mpmath.libmp import from_man_exp, to_fixed

from .dedekind import rademacher_phi
from .errors import DomainError, ImaginaryPartError, NotUpperHalfPlaneError, PointTooLargeError
from .fricke import k_of_p, phi_p
from .matrices import FrickeElement, UnimodularMatrix, check_odd_prime, sgn

DEFAULT_PRECISION = 50
MIN_PRECISION = 30
MAX_PRECISION = 10_000
GUARD_DIGITS = 10
Y_MIN = 1e-3
# the verify functions refuse |z| or |g z| beyond 10^MAGNITUDE_MAX_DIGITS:
# each digit is carried on top of P, and 4000 of them already cost ~0.5 s
MAGNITUDE_MAX_DIGITS = 4000
# the complex128 pass sums Log(1 - q^n) term by term until |q^n| < 2^-30
_FLOAT_CUTOFF_LOG = 30 * math.log(2)
# beyond this Im z, exp(-2 pi Im z) is 0.0 in doubles; capping there only
# loosens the tail bound, which grows with |q|
_Y_FLOAT_CAP = 1e6
_LOG2 = math.log(2)


class _LogEta(NamedTuple):
    value: object
    terms: int
    tail_bound: object
    working_digits: int


def check_precision(prec: int) -> None:
    """DomainError unless MIN_PRECISION <= prec <= MAX_PRECISION."""
    if prec < MIN_PRECISION:
        raise DomainError(f"precision {prec} below the {MIN_PRECISION} digit floor")
    if prec > MAX_PRECISION:
        raise DomainError(f"precision {prec} above the {MAX_PRECISION} digit ceiling")


def _nstr(x, n: int) -> str:
    # round first: mpmath cannot print a mantissa of more than 4300 digits,
    # which a point far from the origin is carried with
    with mpmath.workdps(n + 5):
        return mpmath.nstr(+x, n)


def _check_imaginary_part(z, prec: int) -> None:
    """ImaginaryPartError if Im z < Y_MIN, before any series runs at z."""
    y = z.imag
    if float(y) < Y_MIN:
        # summands until |q|^e < 10^-digits: e ~ 3 n^2 / 2 = digits log 10 / (2 pi y)
        est = 2 * mpmath.sqrt((prec + GUARD_DIGITS) * mpmath.log(10) / (3 * mpmath.pi * y)) + 1
        shown = str(int(est)) if est < 1e15 else _nstr(est, 3)
        raise ImaginaryPartError(
            f"Im(z) = {_nstr(y, 8)} below threshold {Y_MIN}; the "
            f"pentagonal series would need about {shown} terms"
        )


def _checked_point(z, prec: int):
    """z as an mpc at prec + GUARD_DIGITS digits; NotUpperHalfPlaneError
    unless both parts are finite and Im z > 0 (before anything converts z
    to a float), then _check_imaginary_part."""
    with mpmath.workdps(prec + GUARD_DIGITS):
        z = mpmath.mpc(z)
        if not (mpmath.isfinite(z.real) and mpmath.isfinite(z.imag)) or z.imag <= 0:
            raise NotUpperHalfPlaneError(
                f"z = {_nstr(z, 8)} is not a finite point with Im(z) > 0"
            )
        _check_imaginary_part(z, prec)
    return z


def _float_log_product(x: float, y: float) -> complex:
    """sum_{n>=1} Log(1 - q^n) in complex128.

    Term by term until |q^n| < 2^-30, then the rest as -q^(n+1) / (1 - q):
    each dropped Log(1 - u) differs from -u by at most |u|^2 / (1 - |u|),
    so the closed tail is off by less than 2^-60 / (1 - |q|^2).
    """
    q = cmath.exp(complex(-2 * math.pi * y, 2 * math.pi * x))
    total = 0j
    qn = 1
    for _ in range(math.ceil(_FLOAT_CUTOFF_LOG / (2 * math.pi * y))):
        qn *= q
        total += cmath.log(1 - qn)
    return total - qn * q / (1 - q)


def _log_abs_fixed(re: int, im: int, bits: int) -> float:
    """log |(re + i im) 2^-bits| in doubles, from the top 60 bits."""
    shift = max(0, max(abs(re).bit_length(), abs(im).bit_length()) - 60)
    return math.log(math.hypot(re >> shift, im >> shift)) + (shift - bits) * _LOG2


def _pentagonal_sum(w, y, log_abs_s_est: float, digits: int):
    """Partial sum S_N of sum (-1)^n q^(n(3n-1)/2), q = e^(2 pi i w), with
    |Log S - Log S_N| <= 10^-digits; returns (S_N, summands, bound).

    Tail after the terms +-n: exponents >= e = (n+1)(3n+2)/2, so at most
    t = |q|^e / (1 - |q|), and Log moves by at most -log(1 - t/|S_N|),
    which is <= 2 t/|S_N| once t/|S_N| <= 1/2.  The stopping test runs in
    doubles on logarithms; log_abs_s_est (the float pass) only saves
    computing |S_N| before the test can pass.  y is Im w, possibly capped
    (a larger y would only shrink the bound).  The bound comes from the
    logarithms of the stopping test: log u = log t - log|S_N| is a sum of
    three double-precision terms, each within (|term| + 32) 2^-50 of its
    exact value (log|S_N| from the top 60 bits), and two subtractions, so
    it is within a quarter of slack = (sum |term| + |log u| + 100) 2^-48.
    exp(log u + slack), taken as a 64-bit mpf because u leaves the double
    range, is then at least u, and -log(1 - u) <= u + u^2 for u <= 1/2.

    Rounding budget.  q, q^3, the step q^(3n-2), a = q^e(n), q^n and S_n
    are Gaussian integers over 2^F, F = prec + guard with prec the bits of
    the working precision.  Count errors in units eps = 2^-F.  A product of
    x~ and y~ within alpha and beta of x and y with |x|, |y| <= 1, both
    parts truncated by >> F (less than one unit each, sqrt 2 together),
    is within alpha + beta + alpha beta eps + sqrt 2 <= alpha + beta + 2
    of xy while alpha beta eps <= 2 - sqrt 2, which holds below.  q comes
    from expjpi at F + 10 bits, within 2^-(F+10) times a few units, and
    its truncation to F bits leaves it within 2 of q.  Then q^3 is
    within 10; the step after n multiplications within 12 n - 10; q^n
    within 4 n - 2; a within sum_{j<=n} (12 j - 8) = 6 n^2 - 2 n;
    a (1 + q^n) = a + a q^n within 12 n^2; and S_n, summed exactly, within
    sum_{j<=n} 12 j^2 = 2 n (n+1) (2n+1) = N (N^2 - 1) / 2 < N^3 / 2 for
    N = 2 n + 1 summands.  guard is 3 times the bit length of twice the
    summand count the stopping test predicts from log_abs_s_est, so
    N^3 / 2 < 2^guard and S_N is within 2^-prec of the exact partial sum;
    an N of 2^(guard/3) or more raises ArithmeticError.  S_N is returned
    rounded to prec bits, within 2^-prec (1 + |S_N|) in all.  mpmath's mpc
    sum carried 10^-working relative to each operation instead, so the
    fixed point is no less accurate: near a cusp, where |S| ~ 1e-113, the
    cancellation guard in prec still leaves digits + magnitude digits
    relative to |S|.
    """
    log_absq = -2 * math.pi * float(y)
    log_tail_den = math.log(-math.expm1(log_absq))
    target = -digits * math.log(10) - _LOG2
    # the stopping test passes once e(n) > 3 n^2 / 2 exceeds this
    need = (target + log_tail_den + log_abs_s_est) / log_absq
    predicted = 2 * math.ceil(math.sqrt(max(0.0, 2 * need / 3))) + 1
    n_bits = (2 * predicted).bit_length()
    prec = mpmath.mp.prec
    bits = prec + 3 * n_bits
    sr, si = 1 << bits, 0
    n = 0
    while True:
        e = (n + 1) * (3 * n + 2) // 2
        log_t = e * log_absq - log_tail_den
        if log_t - log_abs_s_est < target:
            log_u = log_t - _log_abs_fixed(sr, si, bits)
            if log_u < target:
                break
        if n == 0:
            with mpmath.workprec(bits + 10):
                qr, qi = mpmath.expjpi(2 * w)._mpc_
            qr, qi = to_fixed(qr, bits), to_fixed(qi, bits)
            q2r, q2i = (qr * qr - qi * qi) >> bits, (2 * qr * qi) >> bits
            q3r, q3i = (q2r * qr - q2i * qi) >> bits, (q2r * qi + q2i * qr) >> bits
            # the step q^(3n-2) = q^(e(n) - e(n-1)), a = q^e(n), e(n) = n(3n-1)/2
            dr, di = qr, qi
            ar, ai = qr, qi
            qnr, qni = qr, qi
        else:
            dr, di = (dr * q3r - di * q3i) >> bits, (dr * q3i + di * q3r) >> bits
            ar, ai = (ar * dr - ai * di) >> bits, (ar * di + ai * dr) >> bits
            qnr, qni = (qnr * qr - qni * qi) >> bits, (qnr * qi + qni * qr) >> bits
        n += 1
        # q^e(-n) = q^(e(n) + n)
        tr = ar + ((ar * qnr - ai * qni) >> bits)
        ti = ai + ((ar * qni + ai * qnr) >> bits)
        if n % 2:
            sr, si = sr - tr, si - ti
        else:
            sr, si = sr + tr, si + ti
    if 2 * n + 1 >= 1 << n_bits:
        raise ArithmeticError(
            f"{2 * n + 1} pentagonal summands; the fixed point was sized for "
            f"fewer than {1 << n_bits}"
        )
    s = mpmath.mp.make_mpc(
        (from_man_exp(sr, -bits, prec, "n"), from_man_exp(si, -bits, prec, "n"))
    )
    sizes = abs(e * log_absq) + abs(log_tail_den) + abs(log_t - log_u) + abs(log_u)
    slack = (sizes + 100) * 2.0**-48
    with mpmath.workprec(64):
        u = mpmath.exp(log_u + slack)
        bound = u + u * u
    return s, 2 * n + 1, bound


def _log_eta_eval(z, prec: int, magnitude: int = 0) -> _LogEta:
    """log eta(z) to 10^-prec with its truncation data; see the module
    docstring for the three stages.  magnitude digits are carried on top
    of the guard digits throughout (see _guarded_points).  The caller has
    checked prec and z (_checked_point)."""
    digits = prec + GUARD_DIGITS
    with mpmath.workdps(digits + magnitude):
        z = mpmath.mpc(z)
        y = z.imag
        # q has period 1 in Re z, so a huge Re z costs nothing below
        x = mpmath.frac(z.real)
        y_capped = min(y, _Y_FLOAT_CAP)
        log_s_est = _float_log_product(float(x), float(y_capped))
        cancel = max(0, math.ceil(-log_s_est.real / math.log(10)))
    working = digits + magnitude + cancel
    with mpmath.workdps(working):
        s, terms, tail = _pentagonal_sum(mpmath.mpc(x, y), y_capped, log_s_est.real, digits)
        log_s = mpmath.log(s)
        turns = (log_s_est.imag - float(log_s.imag)) / (2 * math.pi)
        k = round(turns)
        if abs(turns - k) > 0.25:
            raise ArithmeticError(
                f"branch of log eta at z = {_nstr(z, 8)} is ambiguous: "
                f"{turns:.3f} turns between the float pass and Log S"
            )
        value = mpmath.pi * 1j * z / 12 + log_s + 2j * mpmath.pi * k
    return _LogEta(value, terms, tail, working)


def log_eta(z, prec: int = DEFAULT_PRECISION):
    """Principal-series logarithm of eta(z) for Im(z) >= Y_MIN."""
    check_precision(prec)
    return _log_eta_eval(_checked_point(z, prec), prec).value


def _log_eta_p_eval(p: int, z, prec: int, magnitude: int = 0) -> _LogEta:
    """log eta_p(z) as _log_eta_eval gives log eta; p = 1 is log eta itself."""
    if p == 1:
        return _log_eta_eval(z, prec, magnitude)
    with mpmath.workdps(prec + GUARD_DIGITS + magnitude):
        one = _log_eta_eval(z, prec, magnitude)
        other = _log_eta_eval(p * mpmath.mpc(z), prec, magnitude)
        return _LogEta(
            (one.value + other.value) / 2,
            max(one.terms, other.terms),
            (one.tail_bound + other.tail_bound) / 2,
            max(one.working_digits, other.working_digits),
        )


def log_eta_p(p: int, z, prec: int = DEFAULT_PRECISION):
    """Additive-branch log eta_p(z) = (log eta(z) + log eta(p z)) / 2;
    NotOddPrimeError unless p is an odd prime."""
    check_odd_prime(p)
    check_precision(prec)
    # Im(p z) = p Im z needs no check of its own
    return _log_eta_p_eval(p, _checked_point(z, prec), prec).value


def eta_p_branch_ratio(p: int, z, prec: int = DEFAULT_PRECISION):
    """exp(log eta_p(z)) divided by the principal 2k-th root of Delta_p(z).

    Always a 2k-th root of unity with k = k_of_p(p); equal to 1 exactly
    when the accumulated argument of Delta_p stays inside (-pi, pi].
    """
    k = k_of_p(p)
    with mpmath.workdps(prec + GUARD_DIGITS):
        add = log_eta_p(p, z, prec)
        delta = mpmath.exp(2 * k * add)
        principal = mpmath.exp(mpmath.log(delta) / (2 * k))
        return mpmath.exp(add) / principal


class VerificationReport(NamedTuple):
    """Outcome of one numeric check of a transformation law.

    lhs_terms and rhs_terms count the pentagonal summands of each side
    (for the level-p law, the larger of its two series); tail_bound and
    working_digits are the largest over the series evaluations of both
    sides: proved bound on the truncation error of a side, and decimal
    digits carried (GUARD_DIGITS plus the cancellation and magnitude
    guards on top of precision).
    """

    lhs: object
    rhs: object
    residual: object
    lhs_terms: int
    rhs_terms: int
    precision: int
    tail_bound: object
    working_digits: int

    @property
    def truncation_terms(self) -> int:
        return max(self.lhs_terms, self.rhs_terms)

    def passed(self, tolerance) -> bool:
        return self.residual < mpmath.mpf(tolerance)

    def to_dict(self, tolerance=None) -> dict:
        digits = self.precision
        out = {
            "lhs": _format_complex(self.lhs, digits),
            "rhs": _format_complex(self.rhs, digits),
            "residual": _nstr(self.residual, 8),
            "truncation_terms": self.truncation_terms,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "series": "pentagonal",
            "precision": self.precision,
            "tail_bound": _nstr(self.tail_bound, 8),
            "working_digits": self.working_digits,
        }
        if tolerance is not None:
            out["tolerance"] = str(tolerance)
            out["pass"] = bool(self.passed(tolerance))
        return out


def _format_complex(v, digits: int) -> str:
    return f"{_nstr(v.real, digits)},{_nstr(v.imag, digits)}"


def _moebius(a, b, c, d, z):
    """(a z + b) / (c z + d) for a real matrix of positive determinant.

    The imaginary part is formed as det Im z / |c z + d|^2, which keeps
    its digits where the quotient's would cancel near the real axis.
    """
    w = c * z + d
    return mpmath.mpc(((a * z + b) / w).real, (a * d - b * c) * z.imag / abs(w) ** 2)


def _guarded_points(z, a, b, c, d, prec: int, p: int):
    """(z, g z, guard) for g = (a, b; c, d), both points carried at
    prec + GUARD_DIGITS + guard digits and checked for the series.

    Both sides of the level-p law are as large as pi p |z| / 12 or
    pi p |g z| / 12 (its sides hold log eta(p z) and log eta(p g z); p = 1
    for the classical law).  So the residual is an absolute 10^-P
    certificate only if guard = max(0, ceil(log10(p max(|z|, |g z|))))
    more digits are carried (the magnitude guard).  z is checked first,
    then the magnitude, then Im(g z): all before any series runs.  The
    points p z and p g z need no check, as Im(p z) = p Im z.
    """
    digits = prec + GUARD_DIGITS
    w = _checked_point(z, prec)
    with mpmath.workdps(digits):
        gw = _moebius(a, b, c, d, w)
    # doubles hold the sizes well enough for a digit count, up to 1e308
    top = p * max(abs(complex(w)), abs(complex(gw)))
    if top < math.inf:
        guard = math.ceil(math.log10(max(top, 1)))
    else:
        guard = int(mpmath.ceil(mpmath.log10(p * max(abs(w), abs(gw)))))
    if guard > MAGNITUDE_MAX_DIGITS:
        shown = guard if guard < 1e15 else _nstr(mpmath.mpf(guard), 3)
        raise PointTooLargeError(
            f"the sides of the law are about 10^{shown}, beyond "
            f"10^{MAGNITUDE_MAX_DIGITS}; the check would carry that many extra digits"
        )
    with mpmath.workdps(digits + guard):
        if guard:
            w = mpmath.mpc(z)
            gw = _moebius(a, b, c, d, w)
        _check_imaginary_part(gw, prec)
    return w, gw, guard


def _verify(p: int, m, det: int, phi, z, prec: int) -> VerificationReport:
    """Check log eta_p(g z) against log eta_p(z) + (pi i / 12) phi
    + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c sqrt det)) for the integer
    matrix m = (a, b; c, d) of determinant det; p = 1 is the classical law."""
    check_precision(prec)
    a, b, c, d = m
    z, gz, guard = _guarded_points(z, a, b, c, d, prec, p)
    with mpmath.workdps(prec + GUARD_DIGITS + guard):
        lhs = _log_eta_p_eval(p, gz, prec, guard)
        base = _log_eta_p_eval(p, z, prec, guard)
        rhs = base.value + mpmath.pi * 1j * phi.numerator / (12 * phi.denominator)
        if c != 0:
            # dividing by i sgn c rotates the upper or lower half plane onto the
            # right half plane, keeping the principal Log away from its cut
            rhs += mpmath.log((c * z + d) / mpmath.sqrt(det) / (1j * sgn(c))) / 2
        return VerificationReport(
            lhs.value,
            rhs,
            abs(lhs.value - rhs),
            lhs.terms,
            base.terms,
            prec,
            max(lhs.tail_bound, base.tail_bound),
            max(lhs.working_digits, base.working_digits),
        )


def verify_eta_transform(
    g: UnimodularMatrix, z, prec: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Check log eta(g z) against
    log eta(z) + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c)) + (pi i / 12) Phi(g).
    """
    return _verify(1, g.entries(), 1, rademacher_phi(g), z, prec)


def verify_theorem1(
    e: FrickeElement, z, prec: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Check the level-p law log eta_p(e z) =
    log eta_p(z) + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c)) + (pi i / 12) Phi_p(e),
    with (a, b, c, d) the real entries of e (sqrt p enters only here)."""
    return _verify(e.p, *e.integer_matrix(), phi_p(e), z, prec)
