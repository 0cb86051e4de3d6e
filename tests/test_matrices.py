import copy
import pickle
import re
import time

import pytest
from conftest import I2, fricke_identity, mat_of, psl_eq, random_matrix
from hypothesis import given
from hypothesis import strategies as st

from rademacher import matrices
from rademacher.dedekind import rademacher_phi
from rademacher.errors import (
    DeterminantError,
    DivisibilityError,
    DomainError,
    NotOddPrimeError,
    ParseError,
    PrimeMismatchError,
    PrimeTooLargeError,
)
from rademacher.matrices import (
    COSET,
    GAMMA0,
    S,
    T,
    FrickeElement,
    UnimodularMatrix,
    fricke_involution,
    int_text,
    is_odd_prime,
    parse_fricke,
    parse_matrix,
    sgn,
    t_power,
)
from rademacher.words import Farey, decompose

words = st.lists(st.integers(-5, 5), min_size=0, max_size=8)


def test_sgn():
    assert sgn(5) == 1 and sgn(-7) == -1 and sgn(0) == 0


def test_is_odd_prime():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_odd_prime_matches_a_sieve():
    n = 20000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, n):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [p for p in range(n) if is_odd_prime(p)] == [p for p in range(3, n) if sieve[p]]


def test_is_odd_prime_large():
    start = time.perf_counter()
    assert is_odd_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not is_odd_prime(3215031751)
    assert not is_odd_prime(3825123056546413051)
    # beyond the deterministic range; a multiple of a small base is still answered
    with pytest.raises(PrimeTooLargeError) as info:
        is_odd_prime(2**89 - 1)
    assert info.value.code == "prime_too_large"
    assert not is_odd_prime(3 * (2**89 - 1))


def test_int_text():
    # str(n) wherever Python prints it, so ordinary messages keep their bytes
    for n in (0, -7, 10**4299, -(10**4299)):
        assert int_text(n) == str(n)
    assert int_text(10**4300) == "<14285-bit integer>"
    assert int_text(-(10**5000)) == "-<16610-bit integer>"


def test_determinant_enforced():
    with pytest.raises(DeterminantError):
        UnimodularMatrix(1, 2, 3, 4)
    with pytest.raises(DeterminantError):
        UnimodularMatrix(1, 0, 0, -1)


def test_generator_relations():
    assert S * S == -I2
    assert T * T == UnimodularMatrix(1, 2, 0, 1)
    assert psl_eq(S * S, I2)
    st_cube = (S * T) * (S * T) * (S * T)
    assert st_cube == -I2


def test_figure_word_product():
    m = S * t_power(-2) * S * t_power(1) * S * t_power(-2) * S
    assert m == UnimodularMatrix(3, 1, 8, 3)


def test_psl_eq_cases():
    assert psl_eq(T, T)
    assert not psl_eq(T, T.inverse())
    assert psl_eq(S * T.inverse() * S * T.inverse() * S, T)


@given(words, words)
def test_product_stays_unimodular(w1, w2):
    # construction would raise if the determinant drifted
    m = mat_of(w1) * mat_of(w2)
    assert m.a * m.d - m.b * m.c == 1


@given(words)
def test_inverse_and_neg(w):
    m = mat_of(w)
    assert m * m.inverse() == I2
    assert m.inverse() * m == I2
    assert -(-m) == m
    assert psl_eq(m, -m)


def test_parse_matrix():
    assert parse_matrix("3,1,8,3") == UnimodularMatrix(3, 1, 8, 3)
    assert parse_matrix("-1,0,0,-1") == -I2
    with pytest.raises(ParseError):
        parse_matrix("1,2,3")
    with pytest.raises(ParseError):
        parse_matrix("a,b,c,d")
    with pytest.raises(DeterminantError):
        parse_matrix("1,2,3,4")
    assert parse_matrix("+3,1,+8,3") == UnimodularMatrix(3, 1, 8, 3)


@pytest.mark.parametrize("text", [
    "1_0,1,9,1",  # int() reads 1_0 as 10
    "\u0661,0,0,\u0661",  # Arabic-Indic digits
    " 1,1,0,1", "1,1,0,1 ", "1, 1,0,1", "1,1,0,1\n", "1,+-1,0,1", "1,1,0,-", "1,1,0,0x1",
    "1" + "0" * 4300 + ",0,0,1",  # beyond Python's 4300-digit int()
])
def test_parse_matrix_refuses_text_outside_the_integer_grammar(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_fricke_construction():
    e = FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))
    assert e.kind == GAMMA0 and e.p == 5
    with pytest.raises(DivisibilityError):
        FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 1, 1))
    with pytest.raises(NotOddPrimeError):
        FrickeElement.gamma0(4, I2)
    with pytest.raises(NotOddPrimeError):
        FrickeElement.gamma0(9, I2)
    with pytest.raises(DeterminantError):
        FrickeElement.coset(5, 1, 1, 1, 1)
    with pytest.raises(DeterminantError, match="Gamma0 part must have determinant 1"):
        FrickeElement(5, GAMMA0, (1, 1, 5, 1))
    with pytest.raises(ValueError, match="unknown kind 'other'"):
        FrickeElement(5, "other", (1, 0, 0, 1))
    with pytest.raises(DivisibilityError, match="^lower-left entry <16610-bit integer> "):
        FrickeElement(5, GAMMA0, (1, 0, 10**5000 + 1, 1))
    w5 = fricke_involution(5)
    assert w5.kind == COSET and w5.q == (0, -1, 1, 0)


def test_fricke_list_quadruple_is_its_tuple_twin():
    # the quadruple is stored as a tuple, so an element built from a list
    # hashes and compares as its twin
    e = FrickeElement(5, GAMMA0, [1, 0, 5, 1])
    twin = FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))
    assert e == twin and hash(e) == hash(twin) and e.q == (1, 0, 5, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: FrickeElement(5, GAMMA0, (1, 0, 5)),
     "an element quadruple must have 4 entries, not 3"),
    (lambda: FrickeElement(5, COSET, [0, -1, 1, 0, 0]),
     "an element quadruple must have 4 entries, not 5"),
    (lambda: FrickeElement(5, GAMMA0, None), "an element quadruple must be iterable, not NoneType"),
    (lambda: FrickeElement(5, GAMMA0, 5), "an element quadruple must be iterable, not int"),
    (lambda: FrickeElement(5, GAMMA0, iter([1, 0, 5.0, 1])), "an element entry must be an int, not float"),
    (lambda: FrickeElement(5, "other", (1, 0, 0, 1)),
     "unknown kind 'other', expected 'gamma0' or 'fricke_coset'"),
    (lambda: FrickeElement(5, 10**5000, (1, 0, 5, 1)), "unknown kind of type int, expected 'gamma0' or 'fricke_coset'"),
    (lambda: fricke_involution(5).matrix, "a coset element has no integer SL2 matrix"),
], ids=["short", "long", "None", "int", "iterator", "kind", "kind-type", "coset-matrix"])
def test_a_fricke_element_names_its_fault(build, message):
    # these were a bare ValueError ("not enough values to unpack"), a bare
    # TypeError, and a plain ValueError for the unknown kind and the matrix;
    # a kind that is not a str is named by its type, as an int past 4300
    # digits has no repr
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as info:
        build()
    assert info.value.code == "domain" and isinstance(info.value, ValueError)


def test_fricke_matrix_view():
    e = FrickeElement.gamma0(5, T)
    assert e.matrix == T
    assert e.integer_matrix() == ((1, 1, 0, 1), 1)
    w5 = fricke_involution(5)
    assert w5.integer_matrix() == ((0, -1, 5, 0), 5)
    with pytest.raises(ValueError):
        w5.matrix


def test_coset_times_gamma0():
    w5 = fricke_involution(5)
    g = FrickeElement.gamma0(5, UnimodularMatrix(1, 0, 5, 1))
    prod = w5 * g
    assert prod.kind == COSET and prod.q == (-1, -1, 1, 0)


def test_involution_squares_to_identity():
    for p in (3, 5, 7, 11, 13):
        wp = fricke_involution(p)
        sq = wp * wp
        assert sq.kind == GAMMA0
        assert psl_eq(sq.matrix, I2)


def test_identity_neutral(rng):
    for p in (3, 7):
        e = fricke_identity(p)
        for _ in range(20):
            g = FrickeElement.gamma0(p, _random_gamma0_matrix(rng, p))
            assert (e * g).q == g.q and (g * e).q == g.q


def _random_gamma0_matrix(rng, p):
    m = I2
    for _ in range(rng.randint(1, 3)):
        m = m * t_power(rng.randint(-2, 2))
        m = m * UnimodularMatrix(1, 0, p * rng.choice((-1, 1)), 1)
    return m


def test_coset_parity_multiplies_like_z2(rng):
    # Gamma0 ~ 0, coset ~ 1; kinds must add mod 2 under the product
    p = 7
    wp = fricke_involution(p)
    pool = [FrickeElement.gamma0(p, _random_gamma0_matrix(rng, p)) for _ in range(8)]
    pool += [wp * g for g in pool[:4]] + [wp]
    for x in pool:
        for y in pool:
            got = (x * y).kind
            want = GAMMA0 if (x.kind == y.kind) else COSET
            assert got == want


def test_group_law_associative(rng):
    p = 5
    wp = fricke_involution(p)
    pool = [FrickeElement.gamma0(p, _random_gamma0_matrix(rng, p)) for _ in range(6)]
    pool += [wp * g for g in pool[:3]] + [wp]
    for _ in range(200):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert ((x * y) * z).q == (x * (y * z)).q


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        fricke_identity(5) * fricke_identity(7)


def test_product_with_identity_roundtrip(rng):
    p = 11
    wp = fricke_involution(p)
    one = fricke_identity(p)
    for _ in range(40):
        e = FrickeElement.gamma0(p, _random_gamma0_matrix(rng, p))
        if rng.random() < 0.5:
            e = wp * e
        assert e * one == e == one * e


def test_one_primality_test_per_product(monkeypatch):
    # the constructor checks p once; the product builds its normal form
    # itself and does not check it a second time
    p = 2**61 - 1
    wp = fricke_involution(p)
    pool = [wp, FrickeElement.gamma0(p, UnimodularMatrix(1, 0, p, 1)),
            FrickeElement.coset(p, 1, 1, p - 1, 1)]
    calls = []
    real = matrices.is_odd_prime
    monkeypatch.setattr(matrices, "is_odd_prime", lambda n: calls.append(n) or real(n))
    for x in pool:
        for y in pool:
            calls.clear()
            x * y
            assert calls == [p], (x, y)


def test_parse_fricke():
    e = parse_fricke("5:0,-1,1,0")
    assert e == fricke_involution(5)
    with pytest.raises(ParseError):
        parse_fricke("5;0,-1,1,0")
    with pytest.raises(ParseError):
        parse_fricke("5:1,2,3")
    with pytest.raises(DeterminantError):
        parse_fricke("5:1,1,1,1")
    with pytest.raises(ParseError):
        parse_fricke("5_0:0,-1,1,0")


def test_str_forms(rng):
    assert str(UnimodularMatrix(3, 1, 8, 3)) == "3,1,8,3"
    assert str(fricke_involution(5)) == "5:0,-1,1,0"
    assert str(FrickeElement.gamma0(5, T)) == "5|1,1,0,1"
    m = random_matrix(rng)
    assert parse_matrix(str(m)) == m


@pytest.mark.parametrize("value, field", [
    (UnimodularMatrix(1, 0, 0, 1), "a"),
    (FrickeElement.gamma0(5, T), "q"),
    (Farey(1, 2), "n"),
])
def test_value_types_are_immutable_values(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    twin = copy.deepcopy(value)
    assert twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
    # type-strict: never equal to the tuple of its fields
    assert value != tuple(getattr(value, name) for name in value.__slots__)


@pytest.mark.parametrize("build, name", [
    (lambda: UnimodularMatrix(2.0, 1, 1, 1), "float"),
    (lambda: FrickeElement.coset(5, 0.0, -1, 1, 0), "float"),
    (lambda: Farey(1.5, 2), "float"),
    (lambda: decompose((1, 0, 0, 1)), "tuple"),
    (lambda: rademacher_phi((1, 0, 0, 1)), "tuple"),
], ids=["matrix", "coset", "farey", "decompose", "rademacher_phi"])
def test_value_types_take_ints_only(build, name):
    # each was accepted or failed on its own: rademacher_phi returned 3.0 for
    # the float matrix, Farey(1.5, 2) ended in a TypeError, and a bare tuple
    # in an AttributeError
    with pytest.raises(DomainError, match=f"must be an? [A-Za-z ]+, not {name}$") as info:
        build()
    assert info.value.code == "domain"


def test_a_bool_is_an_int():
    # the one decision about bool, as Python's own: True is the int 1
    assert UnimodularMatrix(True, 1, False, True) == UnimodularMatrix(1, 1, 0, 1)
    assert rademacher_phi(UnimodularMatrix(True, 1, False, True)) == 1
    assert Farey(True, 2) == Farey(1, 2)


def test_value_types_repr():
    assert repr(UnimodularMatrix(1, 0, 0, 1)) == "UnimodularMatrix(a=1, b=0, c=0, d=1)"
    assert repr(Farey(2, -4)) == "Farey(n=-1, d=2)"
    assert repr(fricke_involution(5)) == "FrickeElement(p=5, kind='fricke_coset', q=(0, -1, 1, 0))"
    assert UnimodularMatrix(1, 0, 0, 1) != (1, 0, 0, 1)
