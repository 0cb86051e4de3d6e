"""The symbol Phi_p on the extension of Gamma0(p) by the Fricke involution.

For gamma = (a, b; c, d) in Gamma0(p) the symbol averages the Rademacher
symbol over gamma and its conjugate by diag(sqrt p, 1/sqrt p):

    Phi_p(gamma) = ( Phi(a, b; c, d) + Phi(a, p b; c/p, d) ) / 2.

An element of the other coset factors as W_p * gamma~ with
gamma~ = (gamma, delta; -p alpha, -beta) in Gamma0(p), and

    Phi_p = Phi_p(gamma~) - 3 sgn(-alpha gamma).

phi_p_geometric reaches the same numbers through edge words and the
trace/signature formula; the agreement of the two routes is an acceptance
check, so neither implementation may call the other (they share only the
coset split and the conjugation, which the cocycle law test covers).  Both
read the quadruple its constructor checked and sum 2 Phi_p as an int.  The
conjugation is the private _conjugate, on raw quadruples only.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dedekind import _phi
from .errors import DomainError
from .inertia import km_phi
from .matrices import GAMMA0, FrickeElement, UnimodularMatrix, check_odd_prime, sgn, t_power
from .words import _descend


def k_of_p(p: int) -> int:
    """Smallest positive even k with (p - 1) k / 24 an integer."""
    check_odd_prime(p)
    k = 2
    while ((p - 1) * k) % 24:
        k += 2
    return k


def _conjugate(p: int, q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """(a, b; c, d) -> (a, p b; c/p, d), conjugation by diag(sqrt p, 1/sqrt p)
    of a Gamma0(p) quadruple."""
    a, b, c, d = q
    return a, p * b, c // p, d


def _gamma0_part(e: FrickeElement) -> tuple[int, tuple[int, int, int, int], int]:
    """(p, Gamma0 quadruple, twice the coset correction).

    A coset element has real entries (sqrt p alpha, beta/sqrt p, sqrt p
    gamma, sqrt p delta); W_p^{-1} times it is (gamma, delta; -p alpha,
    -beta), in Gamma0(p) as its constructor checked p alpha delta - beta
    gamma = 1.  The correction is -3 sgn(-a c) = 3 sgn(alpha gamma).
    """
    if not isinstance(e, FrickeElement):
        raise DomainError(f"e must be a FrickeElement, not {type(e).__name__}")
    if e.kind == GAMMA0:
        return e.p, e.q, 0
    al, be, ga, de = e.q
    return e.p, (ga, de, -e.p * al, -be), 6 * sgn(al * ga)


def phi_p(e: FrickeElement) -> Fraction:
    """Phi_p as an exact rational; twice the value is always an integer.

    Whether the value itself is always an integer is left open on purpose:
    the tests record the observed parity without relying on it.
    """
    p, q, twice = _gamma0_part(e)
    return Fraction(twice + _phi(*q) + _phi(*_conjugate(p, q)), 2)


def phi_p_geometric(e: FrickeElement) -> Fraction:
    """Phi_p through edge words: average of trace - 3 signature over the
    word of the element and the word of its conjugate."""
    p, q, twice = _gamma0_part(e)
    return Fraction(twice + km_phi(_descend(*q)) + km_phi(_descend(*_conjugate(p, q))), 2)


def random_gamma0(p: int, rng: random.Random, steps: int = 4, entry_cap: int = 10**6) -> FrickeElement:
    """Pseudo-random element of Gamma0(p): an alternating product of T^j
    and (1, 0; p, 1)^m.  Entries are capped by rejection so downstream
    numeric tests keep usable imaginary parts."""
    if entry_cap < p:  # every nonzero c is a multiple of p: only T^j would pass
        raise ValueError(f"entry_cap = {entry_cap} is below p = {p}")
    while True:
        m = UnimodularMatrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, steps)):
            m = m * t_power(rng.randint(-2, 2))
            m = m * UnimodularMatrix(1, 0, p * rng.choice((-1, 1)), 1)
        if rng.random() < 0.5:
            m = m * t_power(rng.randint(-2, 2))
        if max(abs(x) for x in m.entries()) <= entry_cap:
            return FrickeElement.gamma0(p, m)
