"""Edge words and based edge paths in the Farey triangulation.

Vertices of the triangulation are reduced fractions n/d together with
1/0 = infinity; n1/d1 and n2/d2 span an edge iff n1 d2 - n2 d1 = +-1.
A word w = (a_1, ..., a_k) stands for the product

    S (T^{a_1} S) (T^{a_2} S) ... (T^{a_k} S),

whose partial products trace out a path of edges starting from the based
edge (1/0, 0/1): the j-th partial product (a, b; c, d) covers the directed
edge b/d -> a/c.  Right-multiplying by T^a S = (a, -1; 1, 0) maps the
columns (L, R) to (a L + R, -L), so the left columns obey one three-term
recurrence

    (n_j, d_j) = a_j (n_{j-1}, d_{j-1}) - (n_{j-2}, d_{j-2}),

from (n_{-1}, d_{-1}) = (1, 0) and (n_0, d_0) = (0, 1).  endpoints_signed
runs it; reconstruct reads the product off its last two columns.
decompose inverts this up to sign, endpoints and turns_from_endpoints
convert between words and vertex sequences.  endpoints_signed and
turns_from_endpoints read their input once (matrices.sequence), in one
loop, with the int held as the left factor of every product, so that a
letter or vertex part never runs its own __mul__; they look at its shape
and types only when that loop, or the type of its result, fails.
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from .errors import DomainError, NotAnEdgeError, ParseError, WrongBaseEdgeError
from .matrices import UnimodularMatrix, _Value, check_ints, int_text, sequence

EdgeWord = tuple[int, ...]


class Farey(_Value):
    """Reduced fraction n/d with d >= 0; d = 0 only for 1/0."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        check_ints("a Farey part", (n, d))
        g = gcd(n, d)
        if g == 0:
            raise ParseError("0/0 is not a vertex")
        if d < 0 or d == 0 and n < 0:  # d > 0, or d = 0 and n = 1
            g = -g
        object.__setattr__(self, "n", n // g)
        object.__setattr__(self, "d", d // g)

    @property
    def is_infinity(self) -> bool:
        return self.d == 0

    def __iter__(self):
        """n, d = v unpacks a Farey as it does a raw pair."""
        return iter((self.n, self.d))

    def __str__(self) -> str:
        return f"{self.n}/{self.d}"


INFINITY = Farey(1, 0)


def reconstruct(word) -> UnimodularMatrix:
    """S (T^{a_1} S) ... (T^{a_k} S); the empty word gives S itself.

    The product's left column is the last pair of endpoints_signed and its
    right column the negated pair before it: (n_k, -n_{k-1}; d_k, -d_{k-1}).
    """
    (n0, d0), (n1, d1) = endpoints_signed(word)[-2:]
    return UnimodularMatrix(n1, -n0, d1, -d0)


def decompose(g: UnimodularMatrix) -> EdgeWord:
    """A word w with reconstruct(w) = +-g.  Words are not unique; only PSL
    equality of the reconstruction is promised, plus no interior zeros."""
    if not isinstance(g, UnimodularMatrix):
        raise DomainError(f"g must be a UnimodularMatrix, not {type(g).__name__}")
    return tuple(_descend(g.a, g.b, g.c, g.d))


def _descend(a: int, b: int, c: int, d: int) -> list[int]:
    """The word of (a, b; c, d) as a list.

    Peel C = S^{-1} g from the left by the nearest-integer Euclidean
    algorithm on the left column (Hurwitz); a residual T^m is closed with
    T^m = (T^m S)(T^0 S).  A step (a, c) -> (c, n c - a) with
    n = floor(a/c + 1/2) leaves |c'| = |c| |n - a/c| <= |c|/2.  The first c
    is -a, so at most bitlen(|a|) steps run and the word has at most
    bitlen(|a|) + 2 letters.  After the first step |a| >= 2 |c|, so every
    later quotient has |n| >= 2: the only zero letters are a leading
    quotient and the last one of the closing [m, 0].
    """
    a, b, c, d = c, d, -a, -b  # S^{-1} g
    word: list[int] = []
    while c:
        n = (2 * a + c) // (2 * c)
        word.append(n)
        a, b, c, d = c, d, n * c - a, n * d - b
    # upper triangular now: (e, f; 0, e) with e = +-1 is T^{e f} up to sign
    m = a * b
    if m != 0:
        word += [m, 0]
    return word


def endpoints_signed(word) -> list[tuple[int, int]]:
    """Raw endpoint representatives (n, d), sign-carrying.

    The sequence starts (1, 0), (0, 1) and appends the left column of each
    partial product by the recurrence of the module docstring; every
    consecutive pair satisfies n_j d_{j+1} - n_{j+1} d_j = +1 exactly.
    DomainError unless word is an iterable of int letters, which the last
    pair shows.
    """
    if type(word) is not tuple and type(word) is not list:
        word = sequence("a word", word)
    n0, d0, n1, d1 = 1, 0, 0, 1
    pts = [(n0, d0), (n1, d1)]
    try:
        for a in word:
            n0, d0, n1, d1 = n1, d1, n1 * a - n0, d1 * a - d0
            pts.append((n1, d1))
    except (TypeError, ArithmeticError, MemoryError):  # MemoryError: a str letter repeated
        check_ints("a letter", word)
        raise
    if type(n1) is not int or type(d1) is not int:
        check_ints("a letter", word)
    return pts


def endpoints(word) -> list[Farey]:
    """Vertex sequence of the based edge path, canonicalized.

    k + 2 vertices for a length-k word; the Farey constructor makes each
    denominator non-negative and every visit to infinity 1/0 (columns of
    unimodular matrices are already reduced).
    """
    return [Farey(n, d) for n, d in endpoints_signed(word)]


def turns_from_endpoints(pts) -> EdgeWord:
    """Recover the word from a based vertex sequence.

    pts is any iterable.  Each vertex is a Farey or a raw integer pair
    (n, d), unpacked where it stands and taken as given: the path must start
    (+-1, 0), (0, +-1), and consecutive vertices must have determinant +-1
    (an unreduced pair never does).  For each interior vertex the turn is

        a_j = (n_{j-1} d_{j+1} - n_{j+1} d_{j-1}) * sgn(D_{j-1}) * sgn(D_j),

    where D_i = n_i d_{i+1} - n_{i+1} d_i is the oriented determinant of the
    i-th edge.  The outer determinant carries the turn; the two flanking
    edge orientations correct its sign, which makes the result independent
    of the choice of representative sign at every vertex (in particular at
    interior visits to 1/0, where a fixed representative could not encode
    the turn direction on its own).  DomainError unless every vertex is a
    pair of ints, which the sum of the letters and the last determinant
    shows; the vertices are looked at only when that test, the base edge or
    an edge fails.
    """
    if type(pts) is not tuple and type(pts) is not list:
        pts = sequence("a path", pts)
    if len(pts) < 2:
        raise WrongBaseEdgeError("need at least the two base vertices")
    vertices = iter(pts)
    word = []
    try:
        (n0, d0), (n1, d1) = next(vertices), next(vertices)
        if d0 != 0 or n0 not in (1, -1) or n1 != 0 or d1 not in (1, -1):
            _check_vertices(pts)
            n0, d0, n1, d1 = map(int_text, (n0, d0, n1, d1))
            raise WrongBaseEdgeError(f"path must start 1/0, 0/1; got {n0}/{d0}, {n1}/{d1}")
        # D_0 = +-1; adding the zero parts d0 and n1 carries their type to the trace
        det_prev = n0 * d1 + d0 + n1
        for n2, d2 in vertices:
            det = n1 * d2 - d1 * n2
            if det != 1 and det != -1:
                _check_vertices(pts)
                n1, d1, n2, d2, det = map(int_text, (n1, d1, n2, d2, det))
                raise NotAnEdgeError(f"{n1}/{d1} -> {n2}/{d2} is not an edge (determinant {det})")
            # sgn(D) = D for D = +-1
            word.append((n0 * d2 - d0 * n2) * det_prev * det)
            det_prev = det
            n0, d0, n1, d1 = n1, d1, n2, d2
        trace = sum(word, det_prev)
    except DomainError:
        raise
    except (TypeError, ValueError, ArithmeticError, MemoryError):
        _check_vertices(pts)  # a vertex that does not unpack, or parts that do not multiply
        raise
    if type(trace) is not int:
        _check_vertices(pts)
    return tuple(word)


def _check_vertices(pts) -> None:
    """DomainError naming the first vertex that is not a pair of ints."""
    for v in pts:
        try:
            pair = tuple(islice(v, 3))  # a vertex may be an endless iterator
        except TypeError:
            raise DomainError(f"a vertex must be a pair, not {type(v).__name__}") from None
        if len(pair) != 2:
            length = "3 or more" if len(pair) == 3 else len(pair)
            raise DomainError(f"a vertex must be a pair, not a {type(v).__name__} "
                              f"of length {length}")
        check_ints("a vertex part", pair)
