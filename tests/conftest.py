"""Shared helpers for the test suite.

Plain functions (importable as `from conftest import ...`) build random
words and matrices; randomness always flows through an explicit
random.Random so every test is reproducible from its seed.
"""

import random
from math import gcd

import pytest

from rademacher.matrices import S, FrickeElement, UnimodularMatrix
from rademacher.words import Farey, decompose, reconstruct

I2 = UnimodularMatrix(1, 0, 0, 1)


def psl_eq(g: UnimodularMatrix, h: UnimodularMatrix) -> bool:
    """Equality in PSL2(Z), i.e. up to overall sign."""
    return g == h or g == -h


def is_edge(u: Farey, v: Farey) -> bool:
    """u and v span an edge of the Farey triangulation."""
    return abs(u.n * v.d - v.n * u.d) == 1


def fricke_identity(p: int) -> FrickeElement:
    return FrickeElement.gamma0(p, I2)


def mat_of(word) -> UnimodularMatrix:
    """S (T^{a_1} S) ... (T^{a_k} S) as a product of checked matrices,
    independent of the column recurrence in words.py."""
    m = S
    for a in word:
        m = m * UnimodularMatrix(a, -1, 1, 0)
    return m


def random_word(rng: random.Random, max_len: int = 6, cap: int = 4,
                interior_zeros: bool = False) -> tuple:
    """Random word; interior entries are nonzero unless asked otherwise."""
    k = rng.randint(0, max_len)
    out = []
    for i in range(k):
        if interior_zeros or i == 0 or i == k - 1:
            out.append(rng.randint(-cap, cap))
        else:
            v = 0
            while v == 0:
                v = rng.randint(-cap, cap)
            out.append(v)
    return tuple(out)


def random_matrix(rng: random.Random, max_len: int = 6, cap: int = 4) -> UnimodularMatrix:
    """Random element of SL2(Z), sign included (words only reach PSL2)."""
    m = reconstruct(random_word(rng, max_len=max_len, cap=cap))
    return -m if rng.random() < 0.5 else m


def random_large_matrix(rng: random.Random, bits: int, c_factor: int = 1) -> UnimodularMatrix:
    """Random element of SL2(Z) whose first column has entries of about
    `bits` bits, with c a multiple of c_factor (c_factor = p gives
    Gamma0(p)); b and d follow from d = a^-1 mod c."""
    while True:
        a = rng.getrandbits(bits) * rng.choice((-1, 1))
        c = c_factor * rng.getrandbits(bits) * rng.choice((-1, 1))
        if c and gcd(a, c) == 1:
            d = pow(a, -1, abs(c))
            return UnimodularMatrix(a, (a * d - 1) // c, c, d)


def word_matrix_roundtrip(g: UnimodularMatrix) -> bool:
    """decompose then reconstruct lands on +-g."""
    return psl_eq(reconstruct(decompose(g)), g)


def round_trip_matrices():
    """Acceptance criterion 9's matrix set, 147,257 matrices.

    Every product reachable by words of length <= 6 over [-3, 3], interior
    zeros included, then 10,000 seeded random words of length <= 12 over
    [-5, 5], each negated with probability 1/2.
    """

    def walk(m, depth):
        yield m
        if depth:
            for a in range(-3, 4):
                yield from walk(m * UnimodularMatrix(a, -1, 1, 0), depth - 1)

    yield from walk(S, 6)
    rng = random.Random(9009)
    for _ in range(10_000):
        w = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 12)))
        m = reconstruct(w)
        yield -m if rng.random() < 0.5 else m


@pytest.fixture
def rng():
    return random.Random(20260819)
