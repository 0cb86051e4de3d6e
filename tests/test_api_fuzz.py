"""The exact library's contract under generated arguments.

Whatever the arguments, each exact function and value constructor either
returns an exact result (an int, a Fraction, a value object with exact
fields, or tuples and lists of these) or raises DomainError or ParseError;
an iterator given as an argument may also end it with its own exception.
Arguments are junk scalars, value objects of the wrong type, containers and
iterators of them, and valid words, paths and quadruples with one part
replaced by junk, so a case gets past the first checks to a later one.
"""

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rademacher.dedekind import rademacher_phi
from rademacher.errors import DomainError, ParseError
from rademacher.fricke import phi_p, phi_p_geometric
from rademacher.inertia import inertia_minors, km_phi, tridiag_signature, tridiag_trace
from rademacher.matrices import (
    COSET,
    GAMMA0,
    FrickeElement,
    UnimodularMatrix,
    _Value,
    fricke_involution,
)
from rademacher.words import (
    Farey,
    decompose,
    endpoints,
    endpoints_signed,
    reconstruct,
    turns_from_endpoints,
)


class Spent(Exception):
    """The own exception of an argument's iterator."""


def _failing(items):
    yield from items
    raise Spent


VALUES = (UnimodularMatrix(2, 1, 1, 1), Farey(3, 8), fricke_involution(5),
          FrickeElement(5, GAMMA0, (1, 0, 5, 1)))
scalar = st.one_of(
    st.integers(-5, 5),
    st.sampled_from((10**400, -(2**61 - 1), 2**89 - 1)),
    st.booleans(),
    st.floats(),
    st.fractions(max_denominator=4),
    st.sampled_from((Decimal(2), Decimal("NaN"), Decimal("sNaN"), 1j)),
    st.text(max_size=3),
    st.none(),
    st.sampled_from(VALUES),
)


def _containers(items):
    lists = st.lists(items, max_size=5)
    return st.one_of(lists, lists.map(tuple), lists.map(iter), lists.map(_failing))


junk = st.one_of(scalar, _containers(st.one_of(scalar, _containers(scalar))))


@st.composite
def spoiled(draw, good):
    """A valid sequence with at most one entry replaced by junk, as a list,
    tuple, iterator or failing iterator."""
    items = list(draw(good))
    if items and draw(st.booleans()):
        items[draw(st.integers(0, len(items) - 1))] = draw(junk)
    return draw(st.sampled_from((list, tuple, iter, _failing)))(items)


word = st.lists(st.integers(-6, 6), max_size=6)
words = st.one_of(spoiled(word), junk)
paths = st.one_of(spoiled(word.map(endpoints_signed)), spoiled(word.map(endpoints)), junk)
part = st.one_of(st.integers(-3, 3), scalar)
quadruple = st.one_of(spoiled(st.sampled_from(((1, 0, 5, 1), (0, -1, 1, 0), (2, 1, 5, 3)))),
                      junk)
elements = st.one_of(
    st.builds(FrickeElement.coset, st.sampled_from((3, 5, 7)), st.just(0), st.just(-1),
              st.just(1), st.just(0)),
    st.sampled_from(VALUES), junk)
matrices = st.one_of(st.sampled_from(VALUES), word.map(reconstruct), junk)

CASES = {
    km_phi: st.tuples(words),
    tridiag_trace: st.tuples(words),
    tridiag_signature: st.tuples(words),
    inertia_minors: st.tuples(words),
    endpoints_signed: st.tuples(words),
    endpoints: st.tuples(words),
    reconstruct: st.tuples(words),
    turns_from_endpoints: st.tuples(paths),
    decompose: st.tuples(matrices),
    rademacher_phi: st.tuples(matrices),
    phi_p: st.tuples(elements),
    phi_p_geometric: st.tuples(elements),
    UnimodularMatrix: st.tuples(part, part, part, part),
    Farey: st.tuples(part, part),
    FrickeElement: st.tuples(st.one_of(st.sampled_from((3, 5, 4)), scalar),
                             st.one_of(st.sampled_from((GAMMA0, COSET)), scalar), quadruple),
}


def _exact(x) -> bool:
    if type(x) in (list, tuple):
        return all(map(_exact, x))
    if isinstance(x, _Value):
        return all(_exact(f) for f in x._fields if f not in (GAMMA0, COSET))
    return isinstance(x, (int, Fraction))


@settings(max_examples=600, deadline=None)
@given(st.one_of([st.tuples(st.just(call), args) for call, args in CASES.items()]))
def test_exact_functions_keep_their_contract(case):
    call, args = case
    try:
        result = call(*args)
    except (DomainError, ParseError, Spent):
        return
    assert _exact(result), (call.__name__, args, result)
