"""Arbitrary-precision evaluation of log eta and the transformation checks.

log eta comes from Euler's pentagonal series,

    eta(z) = q^(1/24) S,   S = sum_{n in Z} (-1)^n q^(n(3n-1)/2),   q = e^(2 pi i z),

as

    log eta(z) = pi i z / 12 + Log S + 2 pi i k,

where the integer k puts the value on the branch of the product formula
pi i z / 12 + sum_{n>=1} Log(1 - q^n), with principal logarithms term by
term (each 1 - q^n lies in the right half plane).  The level-p function
uses the additive branch

    log eta_p(z) = ( log eta(z) + log eta(p z) ) / 2,

under which the transformation law holds pointwise with the symbol Phi_p.
One kernel, _log_eta_p_eval, evaluates both as one product over the
powers m in (1,) for log eta or (1, p) for log eta_p, the paper's
eta(z) eta(p z): with S_m the sum at q^m and n powers, the value is the
mean (pi i (sum m) z / 12 + Log prod S_m + 2 pi i k) / n.  P is the
requested precision in decimal digits.  The evaluation has three stages.

1. For each power a complex128 pass (_float_log_product) sums A_m = sum
   Log(1 - q^(m n)), a logarithm of S_m by Euler's identity, so that
   k = round((Im sum A_m - Im Log prod S_m) / 2 pi); a fractional part
   beyond 1/4 raises ArithmeticError.  Re A_m is log|S_m|: near a cusp the
   sum cancels (|eta(0.001 i)| ~ 6e-113), so the working precision of the
   side is raised by max_m ceil(-log10 |S_m|) digits on top of GUARD_DIGITS.
2. Each sum runs over n = 0, +-1, +-2, ... in one complex fixed point
   (_pentagonal_sum), within 2^-prec of the exact partial sum, and stops
   once its proved tail moves the logarithm by less than 10^-(P+10).  Its
   powers q^e(+-n) come from a short addition sequence planned once per
   size in pure integers (_pentagonal_plan): each is the product of two
   powers already held, about 2.5 products per pair n.
3. The sums are multiplied exactly as integers, and one Log of the
   product follows.  The terms pi i (sum m) z / 12 n, 2 pi i k / n and any
   pi i phi / 12 are one exact rational times pi per part, rounded once.

That is O(sqrt(P / Im z)) multiplications and one Log, where the product
formula, now a test oracle, needs O(P / Im z) Logs; q and the float passes
read Im z capped at _Y_FLOAT_CAP, so a huge Im z costs nothing.  z must be a
number with finite parts and Im z > 0 (NotUpperHalfPlaneError); Im z below
Y_MIN is refused before any series, as summands grow like sqrt(P / Im z).
log_eta and log_eta_p hold P + GUARD_DIGITS significant digits; the verify
functions carry the magnitude guard, so the residual is an absolute 10^-P
certificate, and refuse a point beyond 10^MAGNITUDE_MAX_DIGITS as too costly
(PointTooLargeError).  Points stay raw mpmath.libmp pairs, and every value is
computed on raw tuples at a precision the call states, each operation rounded
once: no mpmath context is read or written, and mpc objects only wrap results.

The level-p law is the classical one with log eta_p, Phi_p, and on the W_p
coset the integer matrix sqrt(p) e of determinant p, so both verify functions
are one call to _verify with the level (p = 1 for the classical law) and the
matrix.  Its automorphy term (1/2) Log w, w = (c z + d) / (i sgn c sqrt det),
is Log(w^2) / 4, folded into the one Log of the right side.  P that is not an
int in [MIN_PRECISION, MAX_PRECISION] is refused once per public call, before
any arithmetic at that precision.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath.libmp import (dps_to_prec, fone, from_float, from_int, from_man_exp, fzero, mpc_abs,
                          mpc_add, mpc_expjpi, mpc_log, mpc_mul_int, mpc_sub, mpc_to_complex,
                          mpc_to_str, mpf_add, mpf_ceil, mpf_div, mpf_exp, mpf_frac, mpf_log,
                          mpf_lt, mpf_mul, mpf_mul_int, mpf_pi, mpf_pos, mpf_shift, mpf_sub,
                          pi_fixed, round_nearest, to_fixed, to_float, to_int, to_rational,
                          to_str)

from .dedekind import rademacher_phi
from .errors import DomainError, ImaginaryPartError, NotUpperHalfPlaneError, PointTooLargeError
from .fricke import k_of_p, phi_p
from .matrices import (FrickeElement, UnimodularMatrix, check_ints, check_odd_prime,
                       check_tolerance, int_text)

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
# beyond this Im z, exp(-2 pi Im z) is 0.0 in doubles and q truncates to the
# fixed point as at any larger Im z; capping there only loosens the tail bound
_Y_FLOAT_CAP = 1e6
_LOG2 = math.log(2)
# (u^2 + v^2, u, v) for the Gaussian primes u + v i, 0 < u < v, of norm below 300
_GAUSSIAN_PRIMES = sorted((t, u, v) for v in range(2, 18) for u in range(1, v)
                          for t in [u * u + v * v]
                          if t < 300 and all(t % d for d in range(2, math.isqrt(t) + 1)))
_RND = round_nearest  # every raw operation, as in mpmath's default context


_LogEta = NamedTuple("_LogEta", [("value", object), ("terms", int), ("tail_bound", object),
                                 ("working_digits", int)])


def check_precision(prec: int) -> None:
    """DomainError unless prec is an int with MIN_PRECISION <= prec <= MAX_PRECISION."""
    check_ints("precision", (prec,))
    if prec < MIN_PRECISION:
        raise DomainError(f"precision {int_text(prec)} below the {MIN_PRECISION} digit floor")
    if prec > MAX_PRECISION:
        raise DomainError(f"precision {int_text(prec)} above the {MAX_PRECISION} digit ceiling")


def _nstr(x, n: int) -> str:
    # a raw mpf or mpc pair as mpmath.nstr prints it, rounded first: mpmath cannot
    # print a mantissa of more than 4300 digits, which a far point is carried with
    bits = dps_to_prec(n + 5)
    if len(x) == 2:
        return f"({mpc_to_str(tuple(mpf_pos(t, bits, _RND) for t in x), n)})"
    return to_str(mpf_pos(x, bits, _RND), n)


def _check_imaginary_part(y, prec: int) -> None:
    """ImaginaryPartError if the raw Im z = y is below Y_MIN, its summand estimate at 64 bits."""
    if to_float(y, rnd=_RND) < Y_MIN:
        digits = prec + GUARD_DIGITS
        # summands until |q|^e < 10^-digits: e ~ 3 n^2 / 2 = digits log 10 / (2 pi y)
        est = mpf_div(mpf_mul_int(mpf_log(from_int(10), 64, _RND), digits, 64, _RND),
                      mpf_mul(mpf_mul_int(mpf_pi(64, _RND), 3, 64, _RND), y, 64, _RND), 64, _RND)
        est = mpf_add(mpf_shift(mpmath.libmp.mpf_sqrt(est, 64, _RND), 1), fone, 64, _RND)
        shown = str(to_int(est)) if mpf_lt(est, from_int(10**15)) else _nstr(est, 3)
        raise ImaginaryPartError(
            f"Im(z) = {_nstr(y, 8)} below threshold {Y_MIN}; the "
            f"pentagonal series would need about {shown} terms"
        )


def _checked_point(z, prec: int):
    """The raw parts of z, exactly as given; NotUpperHalfPlaneError unless z
    is a number mpmath reads without parsing text and both parts are finite
    with Im z > 0, then _check_imaginary_part."""
    if not isinstance(z, (int, float, complex, mpmath.mpf, mpmath.mpc)):
        raise NotUpperHalfPlaneError(
            f"z must be an int, float, complex, mpf or mpc, not {type(z).__name__}"
        )
    re, im = w = tuple(t._mpf_ if isinstance(t, mpmath.mpf) else from_int(t) if isinstance(t, int)
                       else from_float(t) for t in (z.real, z.imag))
    # a raw part is finite when it has a mantissa or is zero
    if not (re[1] or re == fzero) or im[0] or not im[1]:
        raise NotUpperHalfPlaneError(f"z = {_nstr(w, 8)} is not a finite point with Im(z) > 0")
    _check_imaginary_part(im, prec)
    return w


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


def _stopping_test(y, log_abs_s_est: float, digits: int):
    """(log|q|, log(1 - |q|), target, n_bits) for _pentagonal_sum at Im w = y:
    it stops once the logarithm of its tail bound is below target, and
    n_bits is the bit length of twice the summand count that test predicts
    from log_abs_s_est."""
    log_absq = -2 * math.pi * float(y)
    log_tail_den = math.log(-math.expm1(log_absq))
    target = -digits * math.log(10) - _LOG2
    # the stopping test passes once e(n) > 3 n^2 / 2 exceeds this
    need = (target + log_tail_den + log_abs_s_est) / log_absq
    predicted = 2 * math.ceil(math.sqrt(max(0.0, 2 * need / 3))) + 1
    return log_absq, log_tail_den, target, (2 * predicted).bit_length()


def _pentagonal_sum(q, bits: int, stop, log_abs_s_est: float):
    """Partial sum S_N of sum (-1)^n q^(n(3n-1)/2) with
    |Log S - Log S_N| <= 10^-digits; returns ((re, im), summands, bound)
    with S_N = (re + i im) 2^-F exactly, F = bits, and bound a raw mpf.  q
    is the pair (re, im) of q over 2^F, within 2 units of it
    (_log_eta_p_eval); stop is _stopping_test's data for q at digits, and F
    at least the working precision in bits plus 3 n_bits.

    Tail after the terms +-n: exponents >= e = (n+1)(3n+2)/2, so at most
    t = |q|^e / (1 - |q|), and Log moves by at most -log(1 - t/|S_N|),
    which is <= 2 t/|S_N| once t/|S_N| <= 1/2.  The stopping test runs in
    doubles on logarithms; log_abs_s_est (the float pass) only saves
    computing |S_N| before the test can pass.  stop may come from a capped
    Im z (a larger one would only shrink the bound).  The bound comes from
    the logarithms of the stopping test: log u = log t - log|S_N| is a sum of
    three double-precision terms, each within (|term| + 32) 2^-50 of its
    exact value (log|S_N| from the top 60 bits), and two subtractions, so
    it is within a quarter of slack = (sum |term| + |log u| + 100) 2^-48.
    exp(log u + slack), taken as a 64-bit mpf because u leaves the double
    range, is then at least u, and -log(1 - u) <= u + u^2 for u <= 1/2.

    Rounding budget.  The powers of _pentagonal_plan and S_n are Gaussian
    integers over 2^F, F = prec + guard with prec the bits of the working
    precision; count errors in units eps = 2^-F.  A product of x~ and y~
    within alpha and beta of x and y with |x|, |y| <= 1, both parts
    truncated by >> F (less than one unit each, sqrt 2 together, whatever
    the signs), is within alpha + beta + alpha beta eps + sqrt 2 <= alpha +
    beta + 2 of xy while alpha beta eps <= 2 - sqrt 2, as here, where alpha,
    beta <= 6 N^2 and F >= 136 + 3 n_bits; a negation is exact.  q is
    within 2 units, so by induction, whatever the sequence, a power q^x =
    q^y q^(x-y) is within (4 y - 2) + (4 (x - y) - 2) + 2 = 4 x - 2.  The
    pair at n, of exponents e(n) + e(-n) = 3 n^2, is within 12 n^2 - 4, and
    S_n, summed exactly, within sum_{j<=n} 12 j^2 = N (N^2 - 1) / 2 < N^3 /
    2 for N = 2 n + 1 summands.  guard >= 3 n_bits (_stopping_test), so
    S_N is within 2^-prec of the exact partial sum; a sum that needs
    2^n_bits summands or more raises ArithmeticError before the plan runs
    out.  Near a cusp, where |S| ~ 1e-113, the cancellation guard in prec
    still leaves digits + magnitude digits relative to |S|.
    """
    log_absq, log_tail_den, target, n_bits = stop
    width, plan = _pentagonal_plan(n_bits)
    held = [None] * width
    held[0] = -q[0], -q[1]
    sr, si = 1 << bits, 0
    n = 0
    while True:
        e = (n + 1) * (3 * n + 2) // 2
        log_t = e * log_absq - log_tail_den
        if log_t - log_abs_s_est < target:
            log_u = log_t - _log_abs_fixed(sr, si, bits)
            if log_u < target:
                break
        if n == len(plan):
            raise ArithmeticError(
                f"{2 * n + 3} or more pentagonal summands; the fixed point was "
                f"sized for fewer than {1 << n_bits}"
            )
        # the powers of pair n + 1, whose terms the plan signs (-1)^(n+1)
        steps, i, j = plan[n]
        for k, a, b, neg in steps:
            (ar, ai), (br, bi) = held[a], held[b]
            cr, ci = (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits
            held[k] = (-cr, -ci) if neg else (cr, ci)
        n += 1
        (ar, ai), (br, bi) = held[i], held[j]
        sr += ar + br
        si += ai + bi
    sizes = abs(e * log_absq) + abs(log_tail_den) + abs(log_t - log_u) + abs(log_u)
    slack = (sizes + 100) * 2.0**-48
    u = mpf_exp(from_float(log_u + slack), 64, _RND)
    return (sr, si), 2 * n + 1, mpf_add(u, mpf_mul(u, u, 64, _RND), 64, _RND)


@functools.lru_cache(maxsize=None)
def _pentagonal_plan(n_bits: int):
    """(width, plan): the short addition sequence of _pentagonal_sum for the
    pairs n = 1, 2, ... below 2^(n_bits - 1), in pure integers.  plan[n - 1]
    = (steps, i, j): each step (k, a, b, neg) sets slot k to the product of
    slots a and b, negated if neg, after which slots i and j hold (-1)^n
    q^e(n) and (-1)^n q^e(-n), e(n) = n (3n - 1) / 2.  Slot 0 starts as -q,
    a slot is reused once no later step reads it, and width counts them.

    The exponents rise, e(n) < e(-n) < e(n+1), so every smaller pentagonal
    exponent is held when e = e(+-n) is formed.  24 e + 1 = m^2 for m = 6 n
    -+ 1, and e = y + (e - y) with both parts pentagonal exactly when m^2 +
    1 = r^2 + s^2 another way (Enge, Hart and Johansson, "Short addition
    sequences for theta functions", J. Integer Seq. 21, 2018): if a
    Gaussian prime u + v i of norm t, 2 t < m^2 + 1, divides m + i, then
    r + s i = (m + i) (u - v i) / (u + v i) and y = (r^2 - 1) / 24.  Primes
    of norm below 300 split most e; any other power q^x, the auxiliary
    powers included, is q^y q^(x-y) with y the largest exponent held below
    x.  That takes about 2.5 products per pair, in O(1) work each.
    """
    held, sign, events = [1], {1: -1}, []
    for n in range(1, 1 << n_bits - 1):
        for m in (6 * n - 1, 6 * n + 1):
            x, y, norm = (m * m - 1) // 24, held[-1], m * m + 1
            for t, u, v in _GAUSSIAN_PRIMES:
                if 2 * t >= norm:
                    break
                if norm % t == 0:
                    v = v if (m * u + v) % t == 0 else -v
                    r = (m * u + v) // t * u + (u - m * v) // t * v
                    y = (r * r - 1) // 24
                    break
            # q^x = q^y q^(x-y), signed (-1)^n, with q^(x-y) formed first the same way
            chain = [(x, y, (-1) ** n)] if x not in sign else []
            while chain and chain[-1][0] - chain[-1][1] not in sign:
                z = chain[-1][0] - chain[-1][1]
                chain.append((z, held[bisect.bisect(held, z) - 1], 0))
            for x, y, want in reversed(chain):
                product = sign[y] * sign[x - y]
                sign[x] = want or product
                events.append(((y, x - y), x, sign[x] != product))
                bisect.insort(held, x)
        events.append(((n * (3 * n - 1) // 2, n * (3 * n + 1) // 2), None, False))  # the sum
    # a power's slot is freed by its last read, and every slot stays in slot or free
    last = {x: i for i, (reads, _, _) in enumerate(events) for x in reads}
    slot, free, plan, steps = {1: 0}, [], [], []
    for i, (reads, x, neg) in enumerate(events):
        a, b = (slot[r] for r in reads)
        free += [slot.pop(r) for r in set(reads) if last[r] == i]
        if x is None:
            plan.append((tuple(steps), a, b))
            steps = []
        else:
            slot[x] = k = free.pop() if free else len(slot)
            steps.append((k, a, b, neg))
    return len(slot) + len(free), tuple(plan)


def _fixed_power(qr: int, qi: int, p: int, bits: int):
    """(qr + i qi)^p over 2^bits by left-to-right binary powering, each
    product truncated as in _pentagonal_sum."""
    rr, ri = qr, qi
    for bit in bin(p)[3:]:
        rr, ri = (rr * rr - ri * ri) >> bits, (2 * rr * ri) >> bits
        if bit == "1":
            rr, ri = (rr * qr - ri * qi) >> bits, (rr * qi + ri * qr) >> bits
    return rr, ri


def _quotient(num: int, den: int, prec: int, exp: int = 0):
    """num / den * 2^exp, den > 0, rounded once to prec bits as from_rational
    rounds num / den: the quotient carries prec + 3 bits or more, and a last
    bit set for a remainder moves it across no rounding boundary."""
    extra = max(0, prec + 3 + den.bit_length() - abs(num).bit_length())
    quo, rem = divmod(abs(num) << extra, den)
    return from_man_exp(-(quo | bool(rem)) if num < 0 else quo | bool(rem), exp - extra, prec, _RND)


def _pi_times(a: int, x, b: int, c: int, prec: int):
    """pi (a x + b) / c for a raw mpf x and ints a, b, c > 0, a x + b exact
    and pi to prec + 20 bits (pi_fixed, cached), rounded once to prec bits.
    Only b != 0 shifts by x's exponent, bounded by _guarded_points on a verify
    side; on a log_eta side b = 96 k / n, 0 where x is an integer or tiny."""
    sign, man, exp, _ = x
    num = -a * man if sign else a * man
    if b:
        lo = min(exp, 0)
        num, exp = (num << exp - lo) + (b << -lo), lo
    return _quotient(pi_fixed(prec + 20) * num, c, prec, exp - prec - 20)


def _log_eta_p_eval(p: int, z, prec: int, magnitude: int = 0, phi=0, w=None) -> _LogEta:
    """log eta_p(z) + pi i phi / 12 with its truncation data, p = 1 meaning
    log eta(z), on raw tuples; z comes from _checked_point or _guarded_points.
    digits + magnitude digits are carried, digits = prec + GUARD_DIGITS: the
    value holds digits significant digits, an absolute 10^-prec only where
    magnitude counts the digits of p |z| (_guarded_points).  With S_m the sum
    at q^m over the n powers m in (1,) or (1, p), log eta_p is (pi i (sum m) z
    / 12 + Log prod S_m + 2 pi i k) / n, k from the sum A of the float passes,
    a logarithm of it.  q and the float passes read one y, Im z capped at
    _Y_FLOAT_CAP, the pi terms the exact Im z: at the cap |q| < 2^-(9 10^6),
    far below 2^-(F + g) < 2^-(10^5), so each part of q truncates to the same
    integer, 0 or -1 by its sign, as at the true Im z.

    The side is sized once: one working precision digits + magnitude +
    max_m cancel_m, one fixed point F, its bits plus 3 max_m n_bits
    (_pentagonal_sum), and one guard g = bitlen(p) + 3.  q is formed once,
    by expjpi at F + g + 10 bits, and truncated once to F + g, within
    delta = 2 units there; q^m follows by binary powering in that fixed
    point (for m = 1 the power is q itself).  By the product rule of
    _pentagonal_sum, a square of a power within E units is within 2 E + 2,
    and a product with q within E + delta + 2, so by induction the m-th
    power is within m (delta + 2) - 2 and q^m within 4 m - 2 (the rule's
    alpha beta eps <= 16 m^2 2^-(F+g) < 2^(bitlen(m) + 1 - F) is small, as
    F >= 136 and every level check_odd_prime accepts is below 2^82).
    |d(q^m)| <= m |dq| is what g pays for: as m <= p < 2^(g - 3), q^m
    shifted to F is within (4 m - 2) 2^-g + sqrt 2 < 1/2 + sqrt 2 < 2
    units, as its sum needs.

    The product P = prod S_N is exact in integers over 2^(n F), so Log of
    it errs by the error of each sum relative to its own size, as a single
    series does, plus one rounding to the working precision.  The tails of
    the sums add, and divide by n with the value.

    w = (wr, wi, s, det) folds in Log(w^2) / 4, w^2 = (wr + i wi) / (det 2^s)
    (_guarded_points): Log is taken of X = P^e w^2, e = 4 / n, exact over
    det 2^(4 F + s), rounded once and divided by n e = 4, so X's relative
    error, e times P's, costs what Log P / n did.  e A + Arg(w^2) is a
    logarithm of X, with Arg(w^2) in (-pi, pi) as Re w > 0, within 2^-50 from
    the top 60 bits of wr and wi: the fold multiplies the float pass's error
    by e <= 4, to below 4 10^-9 at Y_MIN (at most 3,310 terms, each within a
    few units of 2^-53 of partial sums below 300), far inside the quarter
    turn.  Each division by n e is a shift, and each pi term one exact
    rational times pi (_pi_times), as Re z and Im z are dyadic.
    """
    powers = (1,) if p == 1 else (1, p)
    n = len(powers)
    digits = prec + GUARD_DIGITS
    point = dps_to_prec(digits + magnitude)
    re, im = z
    # q has period 1 in Re z and reads the capped y: a huge z costs nothing
    x, y, cap = mpf_frac(re, point, _RND), mpf_pos(im, point, _RND), from_float(_Y_FLOAT_CAP)
    y = y if mpf_lt(y, cap) else cap
    passes = []
    for m in powers:
        # the float pass at m x mod 1 + i m y, with its cancellation guard
        # ceil(-log10 |S_m|) >= 0 and stopping data
        ym = min(to_float(mpf_mul_int(y, m, point, _RND), rnd=_RND), _Y_FLOAT_CAP)
        est = _float_log_product(to_float(mpf_frac(mpf_mul_int(x, m, point, _RND), point, _RND),
                                          rnd=_RND), ym)
        passes.append((est, max(0, math.ceil(-est.real / math.log(10))),
                       _stopping_test(ym, est.real, digits)))
    working = digits + magnitude + max(cancel for _, cancel, _ in passes)
    wp = dps_to_prec(working)
    bits = wp + 3 * max(stop[3] for _, _, stop in passes)
    g = p.bit_length() + 3
    qr, qi = mpc_expjpi((mpf_shift(x, 1), mpf_shift(y, 1)), bits + g + 10, _RND)
    qr, qi = to_fixed(qr, bits + g), to_fixed(qi, bits + g)
    re_s, im_s, terms, tail = 1, 0, 0, fzero
    for m, (est, _, stop) in zip(powers, passes):
        qmr, qmi = _fixed_power(qr, qi, m, bits + g)
        (sr, si), count, bound = _pentagonal_sum((qmr >> g, qmi >> g), bits, stop, est.real)
        re_s, im_s = re_s * sr - im_s * si, re_s * si + im_s * sr
        terms = max(terms, count)
        tail = mpf_add(tail, bound, wp, _RND)
    e, arg, den, exp = 1, 0.0, 1, n * bits
    if w is not None:
        wr, wi, s, den = w
        e, exp = 4 // n, 4 * bits + s
        for _ in range(e // 2):
            re_s, im_s = re_s * re_s - im_s * im_s, 2 * re_s * im_s
        re_s, im_s = re_s * wr - im_s * wi, re_s * wi + im_s * wr
        cut = max(0, (abs(wr) | abs(wi)).bit_length() - 60)
        arg = cmath.phase(complex(wr >> cut, wi >> cut))
    # P, or X, over den 2^exp, rounded once to the working precision
    log_r, log_i = mpc_log(tuple(_quotient(t, den, wp, -exp) for t in (re_s, im_s)), wp, _RND)
    # the branch of the float passes, whose sum is a logarithm of P
    turns = (e * sum(est.imag for est, _, _ in passes) + arg - to_float(log_i, rnd=_RND)) / math.tau
    k = round(turns)
    if abs(turns - k) > 0.25:
        raise ArithmeticError(f"branch of log eta at z = {_nstr(z, 8)} is ambiguous: "
                              f"{turns:.3f} turns between the float pass and Log S")
    # (Log + 2 pi i k) / n e + pi i ((sum m) z / 12 n + phi / 12), over 48 phi.denominator
    shift, a, f = (n * e).bit_length() - 1, sum(powers) * 4 // n, phi.denominator
    value = (mpf_add(mpf_shift(log_r, -shift), _pi_times(-a, im, 0, 48, wp), wp, _RND),
             mpf_add(mpf_shift(log_i, -shift), _pi_times(
                 a * f, re, (96 >> shift) * k * f + 4 * phi.numerator, 48 * f, wp), wp, _RND))
    return _LogEta(mpmath.mp.make_mpc(value), terms,
                   mpmath.mp.make_mpf(mpf_shift(tail, 1 - n)), working)


def log_eta(z, prec: int = DEFAULT_PRECISION):
    """Principal-series logarithm of eta(z) for Im(z) >= Y_MIN."""
    check_precision(prec)
    return _log_eta_p_eval(1, _checked_point(z, prec), prec).value


def log_eta_p(p: int, z, prec: int = DEFAULT_PRECISION):
    """Additive-branch log eta_p(z) = (log eta(z) + log eta(p z)) / 2;
    NotOddPrimeError unless p is an odd prime."""
    check_odd_prime(p)
    check_precision(prec)
    # Im(p z) = p Im z needs no check of its own
    return _log_eta_p_eval(p, _checked_point(z, prec), prec).value


def eta_p_branch_ratio(p: int, z, prec: int = DEFAULT_PRECISION):
    """exp(log eta_p(z)) divided by the principal 2k-th root of Delta_p(z).

    Log Delta_p = 2k log eta_p - 2 pi i r for the integer r that puts its
    imaginary part in (-pi, pi], so the ratio is exp(pi i r / k), a 2k-th
    root of unity with k = k_of_p(p), and equal to 1 exactly when r = 0.
    """
    k = k_of_p(p)  # the one check of p
    check_precision(prec)
    im = _log_eta_p_eval(p, _checked_point(z, prec), prec).value._mpc_[1]
    wp = dps_to_prec(prec + GUARD_DIGITS)
    pi = mpf_pi(wp, _RND)
    turns = mpf_div(mpf_sub(mpf_mul_int(im, 2 * k, wp, _RND), pi, wp, _RND), mpf_shift(pi, 1),
                    wp, _RND)
    r = to_int(mpf_ceil(turns))
    return mpmath.mp.make_mpc(mpc_expjpi((_quotient(r, k, wp), fzero), wp, _RND))


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
        """residual < tolerance, exactly: text in the CLI's number grammar, a Fraction
        or Decimal as the rational it names, an int, float or mpf as mpmath compares
        it with an mpf; a NaN never passes, and any other type is a DomainError."""
        if isinstance(tolerance, str):
            check_tolerance(tolerance)
            tolerance = Fraction(tolerance)
        if isinstance(tolerance, (Fraction, Decimal)):
            return not (isinstance(tolerance, Decimal) and tolerance.is_nan()) and Fraction(
                *to_rational(self.residual._mpf_)) < tolerance
        if not isinstance(tolerance, (int, float, mpmath.mpf)):
            raise DomainError(f"tolerance must be a number or text, not {type(tolerance).__name__}")
        return self.residual < tolerance

    def to_dict(self, tolerance=None) -> dict:
        digits = self.precision
        out = {
            "lhs": ",".join(_nstr(t, digits) for t in self.lhs._mpc_),
            "rhs": ",".join(_nstr(t, digits) for t in self.rhs._mpc_),
            "residual": _nstr(self.residual._mpf_, 8),
            "truncation_terms": self.truncation_terms,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "series": "pentagonal",
            "precision": self.precision,
            "tail_bound": _nstr(self.tail_bound._mpf_, 8),
            "working_digits": self.working_digits,
        }
        if tolerance is not None:
            out["tolerance"] = (to_str(tolerance._mpf_, 15) if isinstance(tolerance, mpmath.mpf)
                                else str(tolerance))  # an mpf as str prints it at mp.dps = 15
            out["pass"] = bool(self.passed(tolerance))
        return out


def _guarded_points(z, a, b, c, d, prec: int, p: int):
    """(z, g z, guard, w2) for g = (a, b; c, d) of det = a d - b c: z and g z
    as raw pairs, checked for the series, and the w of _log_eta_p_eval (None
    when c = 0).  z is the dyadic (X + i Y) / 2^s, exact unless a part has
    bits below 2^-cap, cap = dps_to_prec(prec + GUARD_DIGITS +
    MAGNITUDE_MAX_DIGITS): those are dropped, a move far below what any side
    carries.  With u = c X + d 2^s and v = c Y, g z is formed once,

        Re g z = ((a X + b 2^s) u + a Y v) / (u^2 + v^2),
        Im g z = det Y 2^s / (u^2 + v^2),

    each part rounded once at the final precision.  The sides of the
    level-p law are as large as pi p |z| / 12 or pi p |g z| / 12 (they hold
    log eta(p z) and log eta(p g z); p = 1 for the classical law).  So the
    residual is an absolute 10^-P certificate only if guard =
    max(0, ceil(log10(p max(|z|, |g z|)))) more digits are carried (the
    magnitude guard), sized from those quotients in doubles, or at 64 bits
    where a double overflows.  z is checked first, then the magnitude, then
    Im(g z), all before any series runs; Im(p z) = p Im z needs no check.
    """
    digits = prec + GUARD_DIGITS
    w = _checked_point(z, prec)
    parts = [part for part in w if part[1]]
    top, e = math.inf, max(part[2] + part[3] for part in parts)
    # |z| >= 2^(e - 1): beyond this bound z is too long to read exactly,
    # and the guard is above its bound even at 53 bits
    if e - 1 <= (MAGNITUDE_MAX_DIGITS + 1 - math.log10(p)) / math.log10(2):
        s = min(dps_to_prec(digits + MAGNITUDE_MAX_DIGITS), max(0, -min(part[2] for part in parts)))
        x, y = (to_fixed(part, s) for part in w)
        num, u, v, det = a * x + (b << s), c * x + (d << s), c * y, a * d - b * c
        den = u * u + v * v
        gz = (num * u + a * y * v, det * y << s)
        with contextlib.suppress(OverflowError):
            # int / int rounds the quotient once
            top = p * max(abs(mpc_to_complex(w, rnd=_RND)), abs(complex(gz[0] / den, gz[1] / den)))
    if top < math.inf:
        guard = math.ceil(math.log10(max(top, 1)))
    else:
        # |z|, |a z + b| and |c z + d| at 64 bits; sizes[mpf_lt(*sizes)] is the larger
        size = [mpc_abs(mpc_add(mpc_mul_int(w, s, 64, _RND), (from_int(t), fzero), 64, _RND), 64,
                        _RND) for s, t in ((1, 0), (a, b), (c, d))]
        sizes = (size[0], mpf_div(size[1], size[2], 64, _RND))
        top = mpf_log(mpf_mul_int(sizes[mpf_lt(*sizes)], p, 64, _RND), 64, _RND)
        guard = to_int(mpf_ceil(mpf_div(top, mpf_log(from_int(10), 64, _RND), 64, _RND)))
    if guard > MAGNITUDE_MAX_DIGITS:
        shown = guard if guard < 1e15 else _nstr(from_int(guard), 3)
        raise PointTooLargeError(
            f"the sides of the law are about 10^{shown}, beyond "
            f"10^{MAGNITUDE_MAX_DIGITS}; the check would carry that many extra digits"
        )
    wp = dps_to_prec(digits + guard)
    gz = tuple(_quotient(t, den, wp) for t in gz)
    _check_imaginary_part(gz[1], prec)
    # w = (c z + d) / (i sgn c sqrt det), Re w > 0, has w^2 = -(u + i v)^2 / (det 4^s)
    w2 = (v * v - u * u, -2 * u * v, 2 * s, det) if c else None
    return (from_man_exp(x, -s), from_man_exp(y, -s)), gz, guard, w2


def _verify(p: int, m, phi, z, prec: int) -> VerificationReport:
    """Check log eta_p(g z) against log eta_p(z) + (pi i / 12) phi
    + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c sqrt det)) for the integer
    matrix m = (a, b; c, d) of determinant det; p = 1 is the classical law."""
    check_precision(prec)
    z, gz, guard, w2 = _guarded_points(z, *m, prec, p)
    lhs = _log_eta_p_eval(p, gz, prec, guard)
    rhs = _log_eta_p_eval(p, z, prec, guard, phi, w2)
    wp = dps_to_prec(prec + GUARD_DIGITS + guard)
    residual = mpc_abs(mpc_sub(lhs.value._mpc_, rhs.value._mpc_, wp, _RND), wp, _RND)
    return VerificationReport(lhs.value, rhs.value, mpmath.mp.make_mpf(residual), lhs.terms,
                              rhs.terms, prec, max(lhs.tail_bound, rhs.tail_bound),
                              max(lhs.working_digits, rhs.working_digits))


def verify_eta_transform(
    g: UnimodularMatrix, z, prec: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Check log eta(g z) against
    log eta(z) + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c)) + (pi i / 12) Phi(g).
    """
    return _verify(1, g.entries(), rademacher_phi(g), z, prec)


def verify_theorem1(
    e: FrickeElement, z, prec: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Check the level-p law log eta_p(e z) =
    log eta_p(z) + (1/2) sgn(c)^2 Log((c z + d)/(i sgn c)) + (pi i / 12) Phi_p(e),
    with (a, b, c, d) the real entries of e (sqrt p enters only here)."""
    return _verify(e.p, e.integer_matrix()[0], phi_p(e), z, prec)
