from fractions import Fraction

import pytest
from conftest import random_word
from hypothesis import given
from hypothesis import strategies as st
from oracles import inertia_elimination

from rademacher.dedekind import rademacher_phi
from rademacher.errors import DomainError
from rademacher.inertia import inertia_minors, km_phi, tridiag_signature, tridiag_trace
from rademacher.words import reconstruct

any_words = st.lists(st.integers(-7, 7), min_size=0, max_size=10).map(tuple)


def test_trace():
    assert tridiag_trace(()) == 0
    assert tridiag_trace((-2, 1, -2)) == -3
    assert tridiag_trace((2,)) == 2


def test_signature_frozen():
    assert tridiag_signature(()) == 0
    assert tridiag_signature((-2, 1, -2)) == -1
    assert tridiag_signature((5,)) == 1
    assert tridiag_signature((0,)) == 0
    assert tridiag_signature((-3,)) == -1


def test_inertia_hand_cases():
    # [] and small matrices with known eigenstructure
    assert inertia_elimination(()) == (0, 0, 0)
    assert inertia_minors(()) == (0, 0, 0)
    assert inertia_elimination((0,)) == (0, 0, 1)
    assert inertia_minors((0,)) == (0, 0, 1)
    # [[0,1],[1,0]] has eigenvalues +-1
    assert inertia_elimination((0, 0)) == (1, 1, 0)
    assert inertia_minors((0, 0)) == (1, 1, 0)
    # minors 1, -2, -3, 8: two sign changes
    assert inertia_minors((-2, 1, -2)) == (1, 2, 0)


def test_km_frozen():
    assert km_phi(()) == 0
    assert km_phi((-2, 1, -2)) == 0
    assert km_phi((2,)) == -1


@pytest.mark.parametrize("word, kind", [
    ([1.5], "float"), (["a"], "str"), ([Fraction(2)], "Fraction"), ((3, -2.0, 1), "float"),
    ((1, None), "NoneType"), ((1, "a", 2.5), "str"),
])
def test_km_refuses_a_letter_that_is_not_an_int(word, kind):
    # a float letter once gave a float symbol, and a str a bare TypeError;
    # of an iterator the one pass has spent, the letter that failed or the
    # trace it left names the type
    for letters in (word, iter(word)):
        with pytest.raises(DomainError, match=f"^a letter must be an int, not {kind}$"):
            km_phi(letters)
    assert km_phi((True, 2)) == km_phi((1, 2))  # a bool is an int


@pytest.mark.parametrize("call", [tridiag_trace, tridiag_signature, inertia_minors, km_phi])
@pytest.mark.parametrize("word, message", [
    (lambda: [1.5], "a letter must be an int, not float"),
    (lambda: iter([2, 1.5]), "a letter must be an int, not float"),
    (lambda: 5, "a word must be iterable, not int"),
], ids=["list", "iterator", "int"])
def test_the_inertia_functions_refuse_alike(call, word, message):
    # tridiag_trace once returned 1.5 for the list, as sum() did
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(word())


@given(any_words)
def test_two_inertia_routes_agree(w):
    assert inertia_elimination(w) == inertia_minors(w) == inertia_minors(iter(w))


@given(any_words)
def test_km_reads_any_iterable_once(w):
    assert km_phi(iter(w)) == km_phi(tuple(w)) == km_phi(list(w))
    assert km_phi(a for a in w) == km_phi(w)


@given(any_words)
def test_inertia_counts_consistent(w):
    n_pos, n_neg, n_zero = inertia_elimination(w)
    k = len(w)
    assert n_pos + n_neg + n_zero == k
    assert n_zero in (0, 1)  # unit off-diagonals leave at most a simple kernel
    sig = n_pos - n_neg
    assert abs(sig) <= k
    rank = k - n_zero
    assert (sig - rank) % 2 == 0


@given(any_words)
def test_signature_reversal_invariant(w):
    assert tridiag_signature(w) == tridiag_signature(tuple(reversed(w)))


@given(any_words)
def test_km_matches_phi_any_word(w):
    # zero exponents included: the algebraic identity holds regardless of
    # whether such words arise from geometric paths
    assert km_phi(w) == rademacher_phi(reconstruct(w))


def test_km_matches_phi_exhaustive_tiny():
    def walk(word, depth):
        assert km_phi(word) == rademacher_phi(reconstruct(word))
        if depth:
            for a in range(-2, 3):
                walk(word + (a,), depth - 1)

    walk((), 4)


def test_km_matches_phi_random_long(rng):
    for _ in range(300):
        w = random_word(rng, max_len=30, cap=9)
        assert km_phi(w) == rademacher_phi(reconstruct(w))
