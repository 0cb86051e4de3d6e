"""Dedekind sums and the Rademacher symbol on SL2(Z).

The sawtooth is ((x)) = x - floor(x) - 1/2 for x not an integer and 0
otherwise.  The Dedekind sum is

    s(h, k) = sum_{mu=1}^{k} ((h mu / k)) ((mu / k)),   k >= 1, gcd(h, k) = 1,

and the Rademacher symbol of (a, b; c, d) in SL2(Z) is

    Phi = b/d                                   if c = 0,
    Phi = (a + d)/c - 12 sgn(c) s(d, |c|)       otherwise,

which is always an integer (asserted, never rounded).  Both are evaluated
by the reciprocity descent; the literal sum is a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotCoprimeError
from .matrices import UnimodularMatrix, sgn


def _check_pair(h: int, k: int) -> None:
    if k <= 0:
        raise NotCoprimeError(f"k must be positive, got {k}")
    if gcd(h, k) != 1:
        raise NotCoprimeError(f"gcd({h}, {k}) != 1")


def _descent(h: int, k: int) -> tuple[int, int]:
    """s(h, k) as an unreduced integer pair (num, den).

    Reciprocity s(h,k) + s(k,h) = -1/4 + (h^2 + k^2 + 1)/(12hk) plus
    periodicity s(k, h) = s(k mod h, h) walk the pair down the Euclidean
    algorithm; the base case s(0, 1) = 0 is forced by coprimality.
    """
    h %= k
    num, den, sign = 0, 1, 1
    while h:
        step = 12 * h * k
        num = num * step + sign * (h * h + k * k + 1 - 3 * h * k) * den
        den *= step
        sign = -sign
        h, k = k % h, h
    return num, den


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) by the Euclidean descent, O(log k) integer steps."""
    _check_pair(h, k)
    return Fraction(*_descent(h, k))


def rademacher_phi(g: UnimodularMatrix) -> int:
    """Rademacher symbol Phi(g), an exact integer."""
    return _phi(g.a, g.b, g.c, g.d)


def _phi(a: int, b: int, c: int, d: int) -> int:
    """Phi of the quadruple (a, b; c, d), whose determinant is taken as 1.
    The exact rational value must have denominator 1; any other would be an
    arithmetic bug, raised as ArithmeticError, not an input error."""
    if c == 0:
        # ad = 1 forces a = d = +-1, so b/d is the integer b*d
        return b * d
    k = abs(c)
    num, den = _descent(d % k, k)
    t = (a + d) * den - 12 * sgn(c) * num * c
    q, r = divmod(t, c * den)
    if r:
        raise ArithmeticError(f"Phi of ({a}, {b}; {c}, {d}) produced a non-integer; this is a bug")
    return q
