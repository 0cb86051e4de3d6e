from fractions import Fraction
from math import gcd

import pytest
from conftest import random_matrix
from hypothesis import given
from hypothesis import strategies as st
from oracles import dedekind_sum_literal, sawtooth

from rademacher.dedekind import _sigma, dedekind_sum, rademacher_phi
from rademacher.errors import NotCoprimeError
from rademacher.matrices import S, T, UnimodularMatrix, parse_matrix, sgn, t_power


def test_sawtooth_values():
    assert sawtooth(Fraction(7)) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)
    assert sawtooth(Fraction(9, 4)) == Fraction(-1, 4)


@given(st.fractions())
def test_sawtooth_range_and_oddness(x):
    v = sawtooth(x)
    assert abs(v) < Fraction(1, 2)
    assert sawtooth(-x) == -v
    assert sawtooth(x + 1) == v


coprime_pairs = st.tuples(st.integers(-600, 600), st.integers(1, 600)).filter(
    lambda t: gcd(t[0], t[1]) == 1
)


def test_frozen_sums():
    for f in (dedekind_sum, dedekind_sum_literal):
        assert f(1, 3) == Fraction(1, 18)
        assert f(3, 8) == Fraction(1, 16)
        assert f(1, 5) == Fraction(1, 5)
        assert f(3, 5) == 0
        assert f(17, 1) == 0


def test_literal_matches_definition():
    # straight from the sawtooth definition, an independent slow oracle
    def by_definition(h, k):
        return sum(
            (sawtooth(Fraction(h * mu, k)) * sawtooth(Fraction(mu, k)) for mu in range(1, k + 1)),
            Fraction(0),
        )

    for h, k in ((1, 3), (3, 8), (2, 9), (5, 12), (-4, 9), (7, 30)):
        assert dedekind_sum_literal(h, k) == by_definition(h, k)


def test_evaluators_agree_small_grid():
    for k in range(1, 61):
        for h in range(k):
            if gcd(h, k) == 1:
                assert dedekind_sum_literal(h, k) == dedekind_sum(h, k)


def test_precondition_errors():
    with pytest.raises(NotCoprimeError):
        dedekind_sum(2, 4)
    with pytest.raises(NotCoprimeError):
        dedekind_sum(1, 0)
    with pytest.raises(NotCoprimeError):
        dedekind_sum(1, -3)
    # too long to print: named by bit length, not a bare ValueError
    with pytest.raises(NotCoprimeError, match="^k must be positive, got -<16610-bit integer>$"):
        dedekind_sum(1, -(10**5000))
    with pytest.raises(NotCoprimeError, match=r"^gcd\(2, <16610-bit integer>\) != 1$"):
        dedekind_sum(2, 10**5000)


@given(coprime_pairs)
def test_periodicity_and_oddness(pair):
    h, k = pair
    s = dedekind_sum(h, k)
    assert dedekind_sum(h + k, k) == s
    assert dedekind_sum(-h, k) == -s


@given(st.tuples(st.integers(1, 2000), st.integers(1, 2000)).filter(lambda t: gcd(*t) == 1))
def test_reciprocity(pair):
    h, k = pair
    lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
    rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
    assert lhs == rhs


def test_sigma_on_the_longest_euclid_chains():
    # (F_n, F_{n+1}) has the longest Euclidean chain for its size, n - 1
    # steps, so n = 1..80 leaves the two-step loop by both exits at every
    # length up to 79; literal sums up to k = 2000, reciprocity
    # h sigma(h, k) + k sigma(k, h) = h^2 + k^2 + 1 - 3 h k (12 h k times
    # s(h, k) + s(k, h) = -1/4 + (h/k + k/h + 1/(h k))/12) beyond
    h, k = 1, 1
    for _ in range(80):
        sigma = _sigma(h, k)
        if k <= 2000:
            assert Fraction(sigma, 12 * k) == dedekind_sum_literal(h, k), (h, k)
        assert h * sigma + k * _sigma(k, h) == h * h + k * k + 1 - 3 * h * k, (h, k)
        assert _sigma(-h, k) == -sigma and _sigma(h - 7 * k, k) == sigma, (h, k)
        h, k = k, h + k


def test_sigma_of_a_multiple_of_k_is_zero():
    # s(0, 1) = 0, and h = 0 mod k leaves the loop before its first step
    for h in (0, 1, -1, 7, -10**30):
        assert _sigma(h, 1) == 0
    for k in (2, 9, 10**20):
        assert _sigma(0, k) == _sigma(3 * k, k) == _sigma(-k, k) == 0


def test_closed_form_s1k():
    for k in range(1, 200):
        assert dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)


def test_phi_frozen_values():
    assert rademacher_phi(T) == 1
    assert rademacher_phi(S) == 0
    assert rademacher_phi(parse_matrix("3,1,8,3")) == 0
    assert rademacher_phi(t_power(7)) == 7
    assert rademacher_phi(-t_power(7)) == 7
    assert rademacher_phi(UnimodularMatrix(1, 0, 5, 1)) == -2


def test_phi_is_integer_and_psl_invariant(rng):
    for _ in range(400):
        m = random_matrix(rng, max_len=8, cap=5)
        v = rademacher_phi(m)
        assert isinstance(v, int)
        assert rademacher_phi(-m) == v


def test_phi_inverse_negates(rng):
    for _ in range(200):
        m = random_matrix(rng)
        assert rademacher_phi(m.inverse()) == -rademacher_phi(m)


def test_cocycle_small(rng):
    for _ in range(500):
        g1 = random_matrix(rng, max_len=6, cap=2)
        g2 = random_matrix(rng, max_len=6, cap=2)
        g3 = g1 * g2
        correction = 3 * sgn(g1.c * g2.c * g3.c)
        assert rademacher_phi(g3) == rademacher_phi(g1) + rademacher_phi(g2) - correction
