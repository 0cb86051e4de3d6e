import random
import sys
import time
from fractions import Fraction

import pytest
from conftest import fricke_identity, psl_eq, random_large_matrix

from rademacher import dedekind, inertia, words
from rademacher.dedekind import rademacher_phi
from rademacher.errors import NotOddPrimeError
from rademacher.fricke import (
    _conjugate,
    k_of_p,
    phi_p,
    phi_p_geometric,
    random_gamma0,
)
from rademacher.matrices import (
    GAMMA0,
    T,
    FrickeElement,
    UnimodularMatrix,
    fricke_involution,
    sgn,
)

PRIMES = (3, 5, 7, 11, 13)
M61 = 2**61 - 1


def test_k_of_p_frozen():
    assert k_of_p(5) == 6
    assert k_of_p(13) == 2
    assert k_of_p(7) == 4
    assert k_of_p(3) == 12
    assert k_of_p(11) == 12


def test_k_of_p_minimal_even():
    for p in PRIMES:
        k = k_of_p(p)
        assert k % 2 == 0 and ((p - 1) * k) % 24 == 0
        for smaller in range(2, k, 2):
            assert ((p - 1) * smaller) % 24 != 0


def test_k_of_p_rejects():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(NotOddPrimeError):
            k_of_p(bad)


def test_conjugate_by_p():
    # (a, b; c, d) -> (a, p b; c/p, d) on the raw quadruple
    assert _conjugate(5, (1, 0, 5, 1)) == (1, 0, 1, 1)
    assert _conjugate(5, T.entries()) == (1, 5, 0, 1)
    assert _conjugate(7, (1, 0, 0, 1)) == (1, 0, 0, 1)
    assert _conjugate(7, (-1, 2, 7, -15)) == (-1, 14, 1, -15)


def test_phi_p_frozen():
    assert phi_p(FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))) == 0
    assert phi_p(FrickeElement.gamma0(5, T)) == 3
    assert phi_p(fricke_involution(5)) == 0
    for p in PRIMES:
        assert phi_p(fricke_identity(p)) == 0
        assert phi_p(fricke_involution(p)) == 0
        assert phi_p(FrickeElement.gamma0(p, T)) == Fraction(1 + p, 2)


def test_phi_p_geometric_frozen():
    assert phi_p_geometric(FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))) == 0
    assert phi_p_geometric(FrickeElement.gamma0(5, T)) == 3
    assert phi_p_geometric(fricke_identity(7)) == 0
    for p in PRIMES:
        assert phi_p_geometric(fricke_involution(p)) == 0


def test_phi_p_psl_invariant(rng):
    for p in (3, 7):
        wp = fricke_involution(p)
        for _ in range(60):
            e = random_gamma0(p, rng)
            minus = FrickeElement.gamma0(p, -e.matrix)
            assert phi_p(e) == phi_p(minus)
            c = wp * e
            minus_c = FrickeElement.coset(p, *(-x for x in c.q))
            assert phi_p(c) == phi_p(minus_c)


def test_phi_p_half_integral(rng):
    for p in PRIMES + (10007,):
        for _ in range(50):
            e = random_gamma0(p, rng)
            v = phi_p(e)
            assert (2 * v).denominator == 1


def test_routes_agree_random(rng):
    # at p = 10007 the conjugated words run to tens of thousands of letters
    for p in PRIMES + (10007,):
        wp = fricke_involution(p)
        for _ in range(60):
            e = random_gamma0(p, rng)
            assert phi_p_geometric(e) == phi_p(e)
            c = wp * e
            assert phi_p_geometric(c) == phi_p(c)


def _with_fricke(e, rng):
    """e, W_p e, e W_p or W_p e W_p, at random."""
    wp = fricke_involution(e.p)
    if rng.random() < 0.5:
        e = wp * e
    if rng.random() < 0.5:
        e = e * wp
    return e


def test_phi_p_cocycle_law():
    # phi_p(AB) = phi_p(A) + phi_p(B) - 3 sgn(c_A c_B c_AB) on Gamma0+(p);
    # the real lower-left entry has the sign of q[2] on both cosets
    rng = random.Random(606)
    for p in PRIMES + (10007,):
        for _ in range(1000):
            a = _with_fricke(random_gamma0(p, rng), rng)
            b = _with_fricke(random_gamma0(p, rng), rng)
            ab = a * b
            expected = phi_p(a) + phi_p(b) - 3 * sgn(a.q[2] * b.q[2] * ab.q[2])
            assert phi_p(ab) == expected, (a, b)


def test_phi_p_at_a_large_prime():
    rng = random.Random(61)
    wp = fricke_involution(M61)
    for _ in range(20):
        e = random_gamma0(M61, rng, steps=2, entry_cap=M61**3)
        conjugate = UnimodularMatrix(*_conjugate(M61, e.q))
        expected = Fraction(rademacher_phi(e.matrix) + rademacher_phi(conjugate), 2)
        assert phi_p(e) == expected
        c = wp * e
        # the cocycle law with phi_p(W_p) = 0
        assert phi_p(c) == expected - 3 * sgn(e.q[2] * c.q[2])


def test_random_gamma0_shape(rng):
    for p in (3, 13):
        for _ in range(40):
            e = random_gamma0(p, rng)
            assert e.kind == GAMMA0 and e.q[2] % p == 0


def test_random_gamma0_entry_cap():
    rng = random.Random(7)
    for _ in range(40):
        e = random_gamma0(13, rng, steps=2, entry_cap=60)
        assert max(abs(x) for x in e.q) <= 60


def test_random_gamma0_refuses_cap_below_p():
    # below p the rejection could keep only powers of T
    rng = random.Random(7)
    with pytest.raises(ValueError):
        random_gamma0(10007, rng, entry_cap=1000)
    with pytest.raises(ValueError):
        random_gamma0(M61, rng)
    e = random_gamma0(13, rng, steps=1, entry_cap=13)
    assert max(abs(x) for x in e.q) <= 13


def _refuse_calls(monkeypatch, *functions):
    """Make every rademacher binding of each function raise."""

    def refused(*args, **kwargs):
        raise AssertionError("this route may not be reached")

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "rademacher"]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, name, refused)


def _route_panel():
    rng = random.Random(17)
    panel = []
    for p in PRIMES:
        wp = fricke_involution(p)
        for _ in range(20):
            e = random_gamma0(p, rng)
            panel += [e, wp * e]
    return panel


def test_routes_are_independent(monkeypatch):
    panel = _route_panel()
    expected = [phi_p(e) for e in panel]
    assert sum(e.q[2] != 0 for e in panel) > len(panel) // 2

    with monkeypatch.context() as patch:
        _refuse_calls(patch, dedekind._sigma, dedekind._phi, dedekind.rademacher_phi,
                      dedekind.dedekind_sum)
        assert [phi_p_geometric(e) for e in panel] == expected

    with monkeypatch.context() as patch:
        _refuse_calls(patch, words._descend, words.decompose, inertia.km_phi,
                      inertia.inertia_minors, inertia.tridiag_signature, inertia.tridiag_trace)
        assert [phi_p(e) for e in panel] == expected


def test_phi_p_geometric_on_a_parabolic():
    # S (T^-2 S)^9 = (9, 8; 10, 9), with the conjugate (9, 40; 2, 9)
    e = FrickeElement.gamma0(5, UnimodularMatrix(9, 8, 10, 9))
    assert phi_p_geometric(e) == phi_p(e)


def test_exact_layer_at_the_integer_ceiling():
    # entries of 4,300 digits, the most the CLI's integer grammar reads: the
    # sums, the symbol, the words and both level-p routes must stay O(log)
    # integer steps there
    start = time.perf_counter()
    rng = random.Random(4300)
    bits = (10**4299).bit_length()
    g = random_large_matrix(rng, bits)
    h, k = g.d % abs(g.c), abs(g.c)
    assert dedekind.dedekind_sum(h, k) + dedekind.dedekind_sum(k, h) == (
        Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k))
    n = 10**4299 + 7
    parabolic = UnimodularMatrix(n, n - 1, n + 1, n)
    # s(n, n + 1) = -s(1, n + 1) = -n (n - 1) / (12 (n + 1)), so Phi = n
    assert dedekind.dedekind_sum(n, n + 1) == Fraction(-n * (n - 1), 12 * (n + 1))
    assert rademacher_phi(parabolic) == n
    assert words.decompose(parabolic) == (-1, n, 1, 0)
    for m in (g, parabolic):
        w = words.decompose(m)
        assert len(w) <= m.a.bit_length() + 2 and psl_eq(words.reconstruct(w), m)
        assert words.turns_from_endpoints(words.endpoints(w)) == w
        assert inertia.km_phi(w) == rademacher_phi(m)
    e = FrickeElement.gamma0(5, random_large_matrix(rng, bits - 3, c_factor=5))
    for x in (e, fricke_involution(5) * e):
        assert phi_p_geometric(x) == phi_p(x)
    assert time.perf_counter() - start < 20
