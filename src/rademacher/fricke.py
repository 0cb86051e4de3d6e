"""The symbol Phi_p on the extension of Gamma0(p) by the Fricke involution.

For gamma = (a, b; c, d) in Gamma0(p) the symbol averages the Rademacher
symbol over gamma and its conjugate by diag(sqrt p, 1/sqrt p):

    Phi_p(gamma) = ( Phi(a, b; c, d) + Phi(a, p b; c/p, d) ) / 2.

An element of the other coset factors as W_p * gamma~ with
gamma~ = (gamma, delta; -p alpha, -beta) in Gamma0(p), and

    Phi_p = Phi_p(gamma~) - 3 sgn(-alpha gamma).

phi_p_geometric reaches the same numbers through edge words and the
trace/signature formula; the agreement of the two routes is an acceptance
check, so neither implementation may call the other.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dedekind import rademacher_phi
from .errors import CosetBodyError, NotOddPrimeError
from .inertia import tridiag_signature, tridiag_trace
from .matrices import (
    COSET,
    GAMMA0,
    FrickeElement,
    UnimodularMatrix,
    is_odd_prime,
    sgn,
    t_power,
)
from .words import decompose


def k_of_p(p: int) -> int:
    """Smallest positive even k with (p - 1) k / 24 an integer."""
    if not is_odd_prime(p):
        raise NotOddPrimeError(f"p = {p} is not an odd prime")
    k = 2
    while ((p - 1) * k) % 24:
        k += 2
    return k


def conjugate_by_p(e: FrickeElement) -> UnimodularMatrix:
    """(a, b; c, d) -> (a, p b; c/p, d), defined on the Gamma0 part only."""
    if e.kind != GAMMA0:
        raise CosetBodyError("conjugation by diag(sqrt p, 1/sqrt p) needs a Gamma0 element")
    a, b, c, d = e.q
    return UnimodularMatrix(a, e.p * b, c // e.p, d)


def _coset_reduction(e: FrickeElement) -> tuple[FrickeElement, int]:
    """Write a coset element as W_p * gamma~ and return (gamma~, correction).

    The real entries are (a, b, c, d) = (sqrt p alpha, beta/sqrt p,
    sqrt p gamma, sqrt p delta); W_p^{-1} times the element is the integer
    matrix (gamma, delta; -p alpha, -beta) in Gamma0(p), and the correction
    term is -3 sgn(-a c) = -3 sgn(-alpha gamma).
    """
    al, be, ga, de = e.q
    # the constructor checks det 1 and p | c itself
    reduced = FrickeElement(e.p, GAMMA0, (ga, de, -e.p * al, -be))
    return reduced, -3 * sgn(-al * ga)


def phi_p(e: FrickeElement) -> Fraction:
    """Phi_p as an exact rational; twice the value is always an integer.

    Whether the value itself is always an integer is left open on purpose:
    the tests record the observed parity without relying on it.
    """
    if e.kind == COSET:
        reduced, corr = _coset_reduction(e)
        return phi_p(reduced) + corr
    m = e.matrix
    # an integer over 2 reduces to denominator 1 or 2, so 2 * Phi_p is in Z
    return Fraction(rademacher_phi(m) + rademacher_phi(conjugate_by_p(e)), 2)


def phi_p_geometric(e: FrickeElement) -> Fraction:
    """Phi_p through edge words: average of trace - 3 signature over the
    word of the element and the word of its conjugate."""
    if e.kind == COSET:
        reduced, corr = _coset_reduction(e)
        return phi_p_geometric(reduced) + corr
    w1 = decompose(e.matrix)
    w2 = decompose(conjugate_by_p(e))
    tau = tridiag_trace(w1) + tridiag_trace(w2)
    sigma = tridiag_signature(w1) + tridiag_signature(w2)
    return Fraction(tau - 3 * sigma, 2)


def random_gamma0(p: int, rng: random.Random, steps: int = 4, entry_cap: int = 10**6) -> FrickeElement:
    """Pseudo-random element of Gamma0(p): an alternating product of T^j
    and (1, 0; p, 1)^m.  Entries are capped by rejection so downstream
    numeric tests keep usable imaginary parts."""
    while True:
        m = UnimodularMatrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, steps)):
            m = m * t_power(rng.randint(-2, 2))
            m = m * UnimodularMatrix(1, 0, p * rng.choice((-1, 1)), 1)
        if rng.random() < 0.5:
            m = m * t_power(rng.randint(-2, 2))
        if max(abs(x) for x in m.entries()) <= entry_cap:
            return FrickeElement.gamma0(p, m)
