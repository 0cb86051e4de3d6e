"""Slow, obvious reference implementations used only by the tests.

Each one shares no code with the library routine it checks.

sawtooth and dedekind_sum_literal evaluate the Dedekind sum from its
definition, term by term; the library uses a closed form for 12 k s(h, k).

inertia_elimination counts the inertia of the tridiagonal matrix of a
word by symmetric elimination with rational pivots; the library reads it
off the signs of the integer leading principal minors.

log_eta_product is the product formula for log eta,

    log eta(z) = pi i z / 12 + sum_{n=1}^{N} Log(1 - q^n),   q = e^{2 pi i z},

with principal logarithms term by term: each 1 - q^n lies in the right
half plane, so the sum never cancels and the exponential of the sum is
eta itself.  It needs one multi-precision Log per term, O(P / Im z) of
them, which is why the library evaluates Euler's pentagonal series
instead; the two share no code.

pentagonal_sum_mpc is the library's pentagonal partial sum and stopping
test with mpc arithmetic at the working precision, where the library
sums in complex fixed point; it is the reference for the fixed-point
rounding budget.

float_log_product is the product sum of log_eta_product in complex128,
term by term until |q^n| < 2^-60; the library stops at 2^-30 and closes
the rest in one expression.

moebius is g z in mpc arithmetic, rounded at every operation; the library
forms g z from exact integers and rounds each part once.
"""

import cmath
import math
from fractions import Fraction

import mpmath

from rademacher.errors import NotCoprimeError

GUARD_DIGITS = 10


def sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for x not an integer, 0 otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum_literal(h: int, k: int) -> Fraction:
    """The defining sum, evaluated term by term.

    Each nonzero term is (2(h mu mod k) - k)(2 mu - k)/(4 k^2); the mu = k
    term vanishes, and h mu mod k = 0 only at mu = k since gcd(h, k) = 1.
    """
    if k <= 0 or math.gcd(h, k) != 1:
        raise NotCoprimeError(f"need k > 0 and gcd(h, k) = 1, got ({h}, {k})")
    total = 0
    for mu in range(1, k):
        r = (h * mu) % k
        if r:
            total += (2 * r - k) * (2 * mu - k)
    return Fraction(total, 4 * k * k)


def inertia_elimination(word) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) by symmetric Gaussian elimination.

    1x1 pivots contribute their sign and update the next diagonal entry by
    -1/pivot.  A zero pivot with a successor is handled as a 2x2 block
    [[0,1],[1,x]], always one positive and one negative eigenvalue; its
    Schur complement on the rest vanishes for unit off-diagonals, so the
    elimination just skips past the block.  A trailing zero pivot is a zero
    eigenvalue.
    """
    diag = [Fraction(a) for a in word]
    n_pos = n_neg = n_zero = 0
    i = 0
    k = len(diag)
    while i < k:
        piv = diag[i]
        if piv == 0:
            if i + 1 == k:
                n_zero += 1
            else:
                n_pos += 1
                n_neg += 1
            i += 2
            continue
        if piv > 0:
            n_pos += 1
        else:
            n_neg += 1
        if i + 1 < k:
            diag[i + 1] -= 1 / piv
        i += 1
    return n_pos, n_neg, n_zero


def product_terms(y: float, digits: int) -> int:
    """N with |q|^(N+1) / (1 - |q|)^2 < 10^-digits, |q| = exp(-2 pi y)."""
    absq = math.exp(-2 * math.pi * y)
    if absq == 0.0:
        return 1
    need = digits * math.log(10) - 2 * math.log1p(-absq)
    return max(1, math.ceil(need / (2 * math.pi * y)))


def log_eta_product(z, prec: int):
    """log eta(z) from the product, to 10^-prec; the result carries
    prec + GUARD_DIGITS digits."""
    with mpmath.workdps(prec + GUARD_DIGITS):
        z = mpmath.mpc(z)
        n_terms = product_terms(float(z.imag), prec + GUARD_DIGITS)
        q = mpmath.expjpi(2 * z)
        total = mpmath.pi * 1j * z / 12
        qn = mpmath.mpc(1)
        for _ in range(n_terms):
            qn *= q
            total += mpmath.log(1 - qn)
        return total


def float_log_product(x: float, y: float) -> complex:
    """sum_{n>=1} Log(1 - q^n), q = e^(2 pi i (x + i y)), in complex128,
    term by term until |q^n| < 2^-60."""
    q = cmath.exp(complex(-2 * math.pi * y, 2 * math.pi * x))
    total = 0j
    qn = 1
    for _ in range(math.ceil(60 * math.log(2) / (2 * math.pi * y))):
        qn *= q
        total += cmath.log(1 - qn)
    return total


def pentagonal_sum_mpc(w, y, log_abs_s_est: float, digits: int):
    """(S_N, summands, bound) as eta._pentagonal_sum returns them, summed
    with mpc arithmetic at the current precision."""
    log_absq = -2 * math.pi * float(y)
    log_tail_den = math.log(-math.expm1(log_absq))
    target = -digits * math.log(10) - math.log(2)
    s = mpmath.mpc(1)
    n = 0
    while True:
        e = (n + 1) * (3 * n + 2) // 2
        log_t = e * log_absq - log_tail_den
        if log_t - log_abs_s_est < target:
            log_abs_s = float(mpmath.log(abs(s)))
            if log_t - log_abs_s < target:
                break
        if n == 0:
            q = mpmath.expjpi(2 * w)
            q3 = q**3
            step = q  # q^(3n-2) = q^(e(n) - e(n-1))
            qn = mpmath.mpc(1)
            a = mpmath.mpc(1)  # q^e(n), e(n) = n(3n-1)/2
        else:
            step *= q3
        n += 1
        qn *= q
        a *= step
        if n % 2:
            s -= a * (1 + qn)  # q^e(-n) = q^(e(n) + n)
        else:
            s += a * (1 + qn)
    log_absq = -2 * mpmath.pi * y
    u = mpmath.exp(e * log_absq) / (-mpmath.expm1(log_absq) * abs(s))
    return s, 2 * n + 1, -mpmath.log1p(-u)


def moebius(a, b, c, d, z):
    """(a z + b) / (c z + d) for a real matrix of positive determinant.

    The imaginary part is formed as det Im z / |c z + d|^2, which keeps
    its digits where the quotient's would cancel near the real axis.
    """
    w = c * z + d
    return mpmath.mpc(((a * z + b) / w).real,
                      (a * d - b * c) * z.imag / (w.real ** 2 + w.imag ** 2))
