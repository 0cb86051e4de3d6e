import random
import re
from fractions import Fraction
from itertools import count

import pytest
from conftest import (
    I2,
    is_edge,
    mat_of,
    psl_eq,
    random_large_matrix,
    random_matrix,
    round_trip_matrices,
    word_matrix_roundtrip,
)
from hypothesis import given
from hypothesis import strategies as st

from rademacher.errors import DomainError, NotAnEdgeError, ParseError, WrongBaseEdgeError
from rademacher.inertia import km_phi
from rademacher.matrices import S, T, UnimodularMatrix, t_power
from rademacher.words import (
    INFINITY,
    Farey,
    decompose,
    endpoints,
    endpoints_signed,
    reconstruct,
    turns_from_endpoints,
)

ZERO = Farey(0, 1)
any_words = st.lists(st.integers(-6, 6), min_size=0, max_size=8).map(tuple)


def test_farey_normalization():
    assert Farey(2, 4) == Farey(1, 2)
    assert Farey(-3, -6) == Farey(1, 2)
    assert Farey(1, -2) == Farey(-1, 2)
    assert Farey(0, -7) == Farey(0, 1)
    assert str(Farey(3, 8)) == "3/8"
    assert Farey(1, 0).is_infinity and Farey(-1, 0).is_infinity
    # one 1/0, whatever sign or multiple the pair carries
    assert Farey(-1, 0) == Farey(3, 0) == INFINITY
    assert hash(Farey(-1, 0)) == hash(Farey(3, 0)) == hash(INFINITY)
    assert str(Farey(-1, 0)) == "1/0" and Farey(-5, 0).n == 1
    with pytest.raises(ParseError):
        Farey(0, 0)


def test_farey_unpacks_as_its_pair():
    n, d = Farey(3, 8)
    assert (n, d) == (3, 8)
    assert tuple(INFINITY) == tuple(Farey(-5, 0)) == (1, 0)
    assert list(Farey(6, -16)) == [-3, 8]


def test_is_edge():
    assert is_edge(INFINITY, ZERO)
    assert is_edge(Farey(1, 3), Farey(3, 8))
    assert not is_edge(ZERO, Farey(2, 5))
    assert is_edge(Farey(1, 2), Farey(1, 3))


def test_reconstruct_frozen():
    assert reconstruct(()) == S
    assert reconstruct((-2, 1, -2)) == UnimodularMatrix(3, 1, 8, 3)
    assert psl_eq(reconstruct((-1, -1)), T)


def test_recurrence_is_sign_exact_exhaustive():
    # every word of length <= 6 over [-3, 3], interior zeros included: the
    # column recurrence against the product of checked matrices, sign and all
    count = 0

    def walk(word, m, pts, depth):
        nonlocal count
        count += 1
        assert reconstruct(word) == m, word
        assert endpoints_signed(word) == pts, word
        if depth:
            for a in range(-3, 4):
                child = m * UnimodularMatrix(a, -1, 1, 0)
                walk(word + (a,), child, pts + [(child.a, child.c)], depth - 1)

    walk((), S, [(1, 0), (0, 1)], 6)
    assert count == 137_257


def test_recurrence_is_sign_exact_random():
    rng = random.Random(4040)
    for _ in range(2000):
        w = tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 40)))
        assert reconstruct(w) == mat_of(w), w
        partials = [mat_of(w[:j]) for j in range(len(w) + 1)]
        assert endpoints_signed(w) == [(1, 0)] + [(m.a, m.c) for m in partials], w


def test_decompose_word_cap():
    # nearest-integer quotients at least halve |c|: at most bitlen(|a|) + 2
    # letters, the reconstruction is +-g and no letter inside is zero
    rng = random.Random(4300)
    for bits in [*range(1, 65), *range(100, 4001, 300), 4300]:
        for _ in range(4):
            g = random_large_matrix(rng, bits)
            w = decompose(g)
            assert len(w) <= g.a.bit_length() + 2, (bits, len(w))
            assert psl_eq(reconstruct(w), g), bits
            assert 0 not in w[1:-1], bits


def test_decompose_refuses_huge_words():
    # S (T^-2 S)^n = (n, n-1; n+1, n): a word of n letters in T^-2 S, which
    # nearest-integer quotients never build; 13-digit n gets four letters
    for n in (2, 3, 5, 1000, 10**13, -3, -10**13):
        assert decompose(UnimodularMatrix(n, n - 1, n + 1, n)) == (-1, n, 1, 0), n


def test_decompose_frozen():
    assert decompose(S) == ()
    assert decompose(I2) == (0,)
    assert decompose(T) == (0, 1, 0)
    assert psl_eq(reconstruct(decompose(UnimodularMatrix(3, 1, 8, 3))), UnimodularMatrix(3, 1, 8, 3))


def test_endpoints_frozen():
    assert endpoints(()) == [INFINITY, ZERO]
    assert endpoints((-2, 1, -2)) == [INFINITY, ZERO, Farey(1, 2), Farey(1, 3), Farey(3, 8)]
    assert endpoints((2,)) == [INFINITY, ZERO, Farey(-1, 2)]
    assert [str(v) for v in endpoints((-2, 1, -2))] == ["1/0", "0/1", "1/2", "1/3", "3/8"]


def test_turns_frozen():
    assert turns_from_endpoints([INFINITY, ZERO]) == ()
    assert turns_from_endpoints(endpoints((-2, 1, -2))) == (-2, 1, -2)
    assert turns_from_endpoints([Farey(1, 0), Farey(0, 1), Farey(-1, 2)]) == (2,)
    # raw pairs, either sign on the base vertices, mixed with Farey vertices
    assert turns_from_endpoints([(1, 0), (0, 1), (-1, 2)]) == (2,)
    assert turns_from_endpoints([(-1, 0), (0, -1), Farey(-1, 2)]) == (2,)


def test_turns_errors():
    with pytest.raises(WrongBaseEdgeError):
        turns_from_endpoints([INFINITY])
    with pytest.raises(WrongBaseEdgeError):
        turns_from_endpoints([ZERO, INFINITY, Farey(1, 1)])
    with pytest.raises(NotAnEdgeError):
        turns_from_endpoints([INFINITY, ZERO, Farey(2, 5)])
    # raw pairs are read as given: unreduced vertices are not edges
    with pytest.raises(WrongBaseEdgeError):
        turns_from_endpoints([(2, 0), (0, 1)])
    with pytest.raises(WrongBaseEdgeError):
        turns_from_endpoints([(1, 0), (0, 0)])
    with pytest.raises(NotAnEdgeError):
        turns_from_endpoints([(1, 0), (0, 1), (-2, 4)])
    # too long to print: named by bit length, not a bare ValueError
    big = 10**5000
    with pytest.raises(WrongBaseEdgeError, match="got <16610-bit integer>/0, 0/1$"):
        turns_from_endpoints([(big, 0), (0, 1)])
    with pytest.raises(NotAnEdgeError, match=r"-> <16610-bit integer>/3 .*\(determinant "
                                             r"-<16610-bit integer>\)$"):
        turns_from_endpoints([(1, 0), (0, 1), (big, 3)])


@pytest.mark.parametrize("word, kind", [
    ([0.5], "float"), (["a"], "str"), ((1, 2, 0.0, 3), "float"), ([Fraction(1)], "Fraction"),
    ((1, "a", 2.5), "str"),
])
def test_a_letter_that_is_not_an_int_is_refused(word, kind):
    # endpoints_signed once returned float pairs; reconstruct and endpoints
    # read their letters through it
    for call in (endpoints_signed, reconstruct, endpoints):
        for letters in (word, iter(word)):
            with pytest.raises(DomainError, match=f"^a letter must be an int, not {kind}$"):
                call(letters)


@pytest.mark.parametrize("pts, kind", [
    ([(1, 0), (0, 1), (1.0, 1)], "float"), ([(1.0, 0), (0, 1)], "float"),
    ([(1, 0), (0, 1), ("a", 1)], "str"), ([(1, 0), (0, 1), (-1, Fraction(2))], "Fraction"),
    ([(1, 0.0), (0, 1)], "float"), ([(1, 0), (Fraction(0), 1)], "Fraction"),
])
def test_a_vertex_part_that_is_not_an_int_is_refused(pts, kind):
    # turns_from_endpoints once returned (-1.0,) for the first path, and ()
    # for a base edge with a zero part that is not an int
    with pytest.raises(DomainError, match=f"^a vertex part must be an int, not {kind}$"):
        turns_from_endpoints(pts)


@pytest.mark.parametrize("call, arg, message", [
    (km_phi, 5, "a word must be iterable, not int"),
    (km_phi, None, "a word must be iterable, not NoneType"),
    (endpoints_signed, 5, "a word must be iterable, not int"),
    (reconstruct, None, "a word must be iterable, not NoneType"),
    (turns_from_endpoints, 5, "a path must be iterable, not int"),
    (turns_from_endpoints, [(1, 0), (0, 1), 5], "a vertex must be a pair, not int"),
    (turns_from_endpoints, [5, (0, 1)], "a vertex must be a pair, not int"),
    (turns_from_endpoints, [(1, 0), (0, 1), (1, 2, 3)],
     "a vertex must be a pair, not a tuple of length 3 or more"),
    (turns_from_endpoints, [(1, 0), (0, 1), [1]],
     "a vertex must be a pair, not a list of length 1"),
    (turns_from_endpoints, [(1, 0), (0, 1), count()],
     "a vertex must be a pair, not a count of length 3 or more"),
    (turns_from_endpoints, [(1, 0), (0, 1), (2.0, 1)], "a vertex part must be an int, not float"),
    (turns_from_endpoints, [(2.0, 0), (0, 1)], "a vertex part must be an int, not float"),
    (turns_from_endpoints, [(1.0, 0), (0, 1), (2, 5)], "a vertex part must be an int, not float"),
    (turns_from_endpoints, iter([(1, 0), (0, 1), (1.0, 1)]),
     "a vertex part must be an int, not float"),
])
def test_a_word_or_path_of_the_wrong_shape_is_refused(call, arg, message):
    # each once ended in a bare TypeError or ValueError, or in not_an_edge
    # with a float determinant
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as info:
        call(arg)
    assert info.value.code == "domain"


@pytest.mark.parametrize("good", [(), (2,), (2, -1)])
@pytest.mark.parametrize("call", [endpoints_signed, km_phi])
def test_a_failing_iterator_is_not_cut_short(call, good):
    # a TypeError that names no bad letter is raised again, where
    # endpoints_signed once returned the path up to it, and an iterator
    # that failed before its first letter was said to hold a NoneType one
    def letters():
        yield from good
        raise TypeError("from the iterator")

    with pytest.raises(TypeError, match="^from the iterator$"):
        call(letters())


@given(any_words)
def test_signed_endpoints_oriented_plus_one(w):
    pts = endpoints_signed(w)
    assert pts[0] == (1, 0) and pts[1] == (0, 1)
    for (n1, d1), (n2, d2) in zip(pts, pts[1:]):
        assert n1 * d2 - n2 * d1 == 1


@given(any_words)
def test_canonical_endpoints_are_edges(w):
    pts = endpoints(w)
    assert len(pts) == len(w) + 2
    for u, v in zip(pts, pts[1:]):
        assert u.d >= 0 and is_edge(u, v)


@given(any_words, st.lists(st.booleans(), min_size=10, max_size=10))
def test_turn_recovery_identity(w, raw):
    # holds for arbitrary words, zero exponents and backtracking included,
    # from Farey vertices, raw pairs or a mix, in any iterable
    signed, canonical = endpoints_signed(w), endpoints(w)
    mixed = [p if raw[i % 10] else v for i, (p, v) in enumerate(zip(signed, canonical))]
    for pts in (signed, canonical, mixed):
        for form in (tuple, list, iter, lambda vs: (v for v in vs)):
            assert turns_from_endpoints(form(pts)) == w


@given(any_words, st.lists(st.booleans(), min_size=10, max_size=10))
def test_turn_recovery_flip_invariant(w, flips):
    # the recovered word may not depend on per-vertex representative signs
    pts = endpoints_signed(w)
    flipped = [
        (-n, -d) if flips[i % len(flips)] else (n, d) for i, (n, d) in enumerate(pts[2:], 2)
    ]
    assert turns_from_endpoints(pts[:2] + flipped) == w


def test_infinity_pivot_regressions():
    # words whose paths revisit 1/0 in the interior; the canonical 1/0
    # representative cannot carry the turn sign, the flanking edge
    # orientations must
    for w in ((1, 1, -3), (-1, -1, 3), (-1, -1, -3), (0, 3), (0, -3), (1, 1, 2, -1, -1)):
        pts = endpoints(w)
        assert turns_from_endpoints(pts) == w, w
    assert endpoints((-1, -1, -3))[3] == INFINITY


def test_decompose_no_interior_zeros(rng):
    # decompose's docstring proves this; check it on criterion 9's set too
    for _ in range(300):
        w = decompose(random_matrix(rng, max_len=8, cap=5))
        assert 0 not in w[1:-1]
    for m in round_trip_matrices():
        w = decompose(m)
        assert 0 not in w[1:-1], m


def test_roundtrip_random(rng):
    for _ in range(300):
        m = random_matrix(rng, max_len=8, cap=5)
        assert word_matrix_roundtrip(m)


def test_roundtrip_exhaustive_small():
    # every PSL class reachable by words of length <= 4 over [-3, 3]
    def walk(word, depth):
        m = reconstruct(word)
        assert psl_eq(reconstruct(decompose(m)), m)
        w = decompose(m)
        assert 0 not in w[1:-1]
        if depth == 0:
            return
        for a in range(-3, 4):
            walk(word + (a,), depth - 1)

    walk((), 4)


def test_t_powers_roundtrip():
    for n in range(-6, 7):
        assert word_matrix_roundtrip(t_power(n))
        assert word_matrix_roundtrip(-t_power(n))
