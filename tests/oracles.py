"""Slow, obvious reference implementations used only by the tests.

log_eta_product is the product formula for log eta,

    log eta(z) = pi i z / 12 + sum_{n=1}^{N} Log(1 - q^n),   q = e^{2 pi i z},

with principal logarithms term by term: each 1 - q^n lies in the right
half plane, so the sum never cancels and the exponential of the sum is
eta itself.  It needs one multi-precision Log per term, O(P / Im z) of
them, which is why the library evaluates Euler's pentagonal series
instead; the two share no code.
"""

import math

import mpmath

GUARD_DIGITS = 10


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
