"""Dedekind sums and the Rademacher symbol on SL2(Z).

The sawtooth is ((x)) = x - floor(x) - 1/2 for x not an integer and 0
otherwise.  The Dedekind sum is

    s(h, k) = sum_{mu=1}^{k} ((h mu / k)) ((mu / k)),   k >= 1, gcd(h, k) = 1,

and the Rademacher symbol of (a, b; c, d) in SL2(Z) is

    Phi = b/d                                   if c = 0,
    Phi = (a + d)/c - 12 sgn(c) s(d, |c|)       otherwise,

which is always an integer (a remainder is raised as ArithmeticError,
never rounded).  Both go through the integer 12 k s(h, k) in closed form;
the literal sum is a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, NotCoprimeError
from .matrices import UnimodularMatrix, int_text


def _sigma(h: int, k: int) -> int:
    """12 k s(h, k), an integer, for k >= 1 and gcd(h, k) = 1.

    The closed form of Barkan, Hickerson and Knuth (Hickerson, J. Reine
    Angew. Math. 290 (1977); Knuth, Acta Arith. 33 (1977)).  Run the
    Euclidean chain r_0 = k, r_1 = h mod k, r_{i+1} = r_{i-1} - q_i r_i down
    to r_n = 1.  Reciprocity s(h, k) + s(k, h) = -1/4 + (h/k + k/h +
    1/(hk))/12 with s(r_{i-1}, r_i) = s(r_{i+1}, r_i) and s(0, 1) = 0 sums
    s(h, k) as sum_i (-1)^(i+1) of (-1/4 + (r_{i-1}/r_i + r_i/r_{i-1} +
    1/(r_{i-1} r_i))/12).  As r_{i-1}/r_i = q_i + r_{i+1}/r_i, the ratios
    telescope to sum (-1)^(i+1) q_i + r_1/k.  With y_0 = 0, y_1 = 1,
    y_{i+1} = y_{i-1} + q_i y_i, induction gives y_i r_{i-1} + y_{i-1} r_i
    = k and y_i h = (-1)^(i+1) r_i mod k, so the k/(r_{i-1} r_i) =
    y_i/r_i + y_{i-1}/r_{i-1} telescope to (-1)^(n+1) y_n, which is
    h' = h^-1 mod k for n odd and h' - k for n even (0 < y_n <= k).  So

        12 k s(h, k) = k sum (-1)^(i+1) q_i + r_1 + h' - (3k if n odd else k),

    and 0 for h = 0 mod k: O(log k) steps on integers no larger than k.
    The loop takes two Euclid steps per iteration, q_i for an odd i and
    then for an even one, so the sign of each q_i is fixed by its place in
    the loop, and the parity of n by the exit the chain leaves by.
    """
    h %= k
    if not h:
        return 0
    r0, r1, alternating = k, h, 0
    while True:
        alternating += r0 // r1
        r0 %= r1
        if not r0:  # n odd
            return k * alternating + h + pow(h, -1, k) - 3 * k
        alternating -= r1 // r0
        r1 %= r0
        if not r1:  # n even
            return k * alternating + h + pow(h, -1, k) - k


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) in closed form, O(log k) integer steps."""
    if k <= 0:
        raise NotCoprimeError(f"k must be positive, got {int_text(k)}")
    if gcd(h, k) != 1:
        raise NotCoprimeError(f"gcd({int_text(h)}, {int_text(k)}) != 1")
    return Fraction(_sigma(h, k), 12 * k)


def rademacher_phi(g: UnimodularMatrix) -> int:
    """Rademacher symbol Phi(g), an exact integer."""
    if not isinstance(g, UnimodularMatrix):
        raise DomainError(f"g must be a UnimodularMatrix, not {type(g).__name__}")
    return _phi(g.a, g.b, g.c, g.d)


def _phi(a: int, b: int, c: int, d: int) -> int:
    """Phi of the quadruple (a, b; c, d), whose determinant is taken as 1.
    The exact rational value must have denominator 1; any other would be an
    arithmetic bug, raised as ArithmeticError, not an input error."""
    if c == 0:
        # ad = 1 forces a = d = +-1, so b/d is the integer b*d
        return b * d
    if c < 0:  # Phi(-g) = Phi(g), as s(-d, k) = -s(d, k)
        a, b, c, d = -a, -b, -c, -d
    q, r = divmod(a + d - _sigma(d, c), c)
    if r:
        raise ArithmeticError(f"Phi of ({a}, {b}; {c}, {d}) produced a non-integer; this is a bug")
    return q
