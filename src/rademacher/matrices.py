"""Integer 2x2 matrices of determinant one and Fricke group elements.

UnimodularMatrix is an element of SL2(Z).  FrickeElement represents an
element of the extension of Gamma0(p) by the Fricke involution
W_p = (1/sqrt p)(0,-1;p,0): either a Gamma0(p) matrix itself, or a matrix
in the coset W_p Gamma0(p), stored exactly through the normal form

    (1/sqrt p) (p*alpha, beta; p*gamma, p*delta),   p*alpha*delta - beta*gamma = 1.

All arithmetic is exact; sqrt(p) never appears outside the eta module.
Each value type takes int entries only; sequence reads every word, path
and element quadruple.  The number grammars of the command line live
here too: integer, and the rational one _is_number gates.
"""

from __future__ import annotations

import math
import re
from operator import attrgetter

from .errors import (
    DeterminantError,
    DivisibilityError,
    DomainError,
    NotOddPrimeError,
    ParseError,
    PrimeMismatchError,
    PrimeTooLargeError,
)

_set = object.__setattr__


def sgn(x) -> int:
    """Sign of x with sgn(0) = 0."""
    return (x > 0) - (x < 0)


def int_text(n: int) -> str:
    """str(n) for a message, or n by its bit length where Python refuses
    to print an int of more than 4300 digits."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


# the first 13 primes: Miller-Rabin to these bases is exact below
# MILLER_RABIN_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_ODD_PRIMES = frozenset(_MR_BASES[1:])
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic: trial division by the primes up to 41, then
    Miller-Rabin to the first 13 prime bases, which is exact below
    MILLER_RABIN_LIMIT (~3.3e24).  PrimeTooLargeError for a candidate at or
    beyond the limit that no trial divisor rules out."""
    if p <= 41:
        return p in _SMALL_ODD_PRIMES
    for b in _MR_BASES:
        if p % b == 0:
            return False
    if p >= MILLER_RABIN_LIMIT:
        raise PrimeTooLargeError(
            f"p = {int_text(p)} is beyond {MILLER_RABIN_LIMIT}, where the primality test "
            f"is no longer deterministic"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_ints(what: str, values) -> None:
    """DomainError naming the type of the first value that is not an int.
    A bool is an int here, as everywhere in Python (True is 1)."""
    for x in values:
        if not isinstance(x, int):
            raise DomainError(f"{what} must be an int, not {type(x).__name__}")


def sequence(what: str, values) -> tuple:
    """values copied to a tuple once; DomainError naming its type unless it is
    iterable.  Callers pass a list or tuple on by an inline type test, at no call."""
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"{what} must be iterable, not {type(values).__name__}") from None
    return tuple(values)


def check_odd_prime(p: int) -> None:
    """NotOddPrimeError unless p is an int and is_odd_prime(p)."""
    if not isinstance(p, int):
        raise NotOddPrimeError(f"p must be an int, not {type(p).__name__}")
    if not is_odd_prime(p):
        raise NotOddPrimeError(f"p = {int_text(p)} is not an odd prime")


def _product(m1: tuple, m2: tuple) -> tuple[int, int, int, int]:
    """The 2x2 product of two raw quadruples (a, b, c, d)."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2


def integer(text: str) -> int:
    """int(text) for text matching [+-]?[0-9]+ whole, else ValueError;
    int() alone would also take spaces, underscores and non-ASCII digits."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# at most this many digits in a number, the ceiling Python puts on
# int("..."); render's rational flags also bound the exponent by it
MAX_DIGITS = 4300
# the exponent bound of --z and --tolerance: mpmath reads an exponent in
# time quadratic in its digits, and 10^5 still reaches point_too_large
# (--z=0.1,1e5000) and residuals far below 1e-4300
MAX_EXPONENT = 10**5
# every non-integer number the CLI reads: p/q with q > 0, or a decimal such
# as 5, -.5, 5. or 2.5e-3, a leading point followed by a nonzero digit
# (mpmath fails on .0); ASCII digits only as in integer; group 1 is the
# exponent
_RATIONAL = (
    r"[+-]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+(?:\.[0-9]*)?|\.0*[1-9][0-9]*)(?:[eE]([+-]?[0-9]+))?)")


def _is_number(text: str, max_exponent: int) -> bool:
    # the only gate before Fraction or mpmath reads text: both would take
    # padding, _ and non-ASCII digits, and fail on p/0
    match = re.fullmatch(_RATIONAL, text)
    return (match is not None and sum(map(str.isdigit, text)) <= MAX_DIGITS
            and abs(int(match[1] or 0)) <= max_exponent)


def check_tolerance(text: str) -> None:
    """ParseError unless text is a number of the grammar above with an
    exponent of at most MAX_EXPONENT; the message names the bound when only
    the exponent breaks it."""
    if not _is_number(text, MAX_EXPONENT):
        if _is_number(text, math.inf):
            raise ParseError(f"tolerance must be a number with an exponent of at most "
                             f"{MAX_EXPONENT}, got {text!r}")
        raise ParseError(f"tolerance must be a number, got {text!r}")


def parse_integers(text: str, count: int | None = None, arg: str | None = None,
                   what: str = "comma-separated integers") -> tuple[int, ...]:
    """The integers of the comma-separated text, exactly count of them unless
    count is None; else ParseError "expected <what>, got <arg>", quoting arg,
    the whole argument as given (text by default)."""
    try:
        values = tuple(integer(part) for part in text.split(","))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ParseError(f"expected {what}, got {text if arg is None else arg!r}")
    return values


class _Value:
    """Immutable value object over the fields named in __slots__ (two or
    more): type-strict equality and hashing on the field tuple, and a
    dataclass-style repr.  Subclasses set their fields in __init__ with
    object.__setattr__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields


class UnimodularMatrix(_Value):
    """(a, b; c, d) with ad - bc = 1 over arbitrary-size integers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)
                and isinstance(d, int)):
            check_ints("a matrix entry", (a, b, c, d))
        det = a * d - b * c
        if det != 1:
            raise DeterminantError(f"determinant is {int_text(det)}, expected 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(*_product(self.entries(), other.entries()))

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"


S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)


def t_power(n: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, n, 0, 1)


def parse_matrix(text: str) -> UnimodularMatrix:
    """Parse "a,b,c,d" (signed decimal integers, no spaces)."""
    return UnimodularMatrix(*parse_integers(text, 4, what="four comma-separated integers"))


GAMMA0 = "gamma0"
COSET = "fricke_coset"


class FrickeElement(_Value):
    """Element of the group generated by Gamma0(p) and the involution W_p.

    kind is GAMMA0 or COSET.  For GAMMA0 the integer quadruple is a
    UnimodularMatrix (a,b;c,d) with p | c.  For COSET it is
    (alpha, beta, gamma, delta) with p*alpha*delta - beta*gamma = 1,
    standing for the real matrix (1/sqrt p)(p*alpha, beta; p*gamma, p*delta).
    """

    __slots__ = ("p", "kind", "q")

    def __init__(self, p: int, kind: str, q: tuple[int, int, int, int]):
        check_odd_prime(p)
        if type(q) is not tuple:  # a list would be unhashable and unequal to its tuple twin
            q = sequence("an element quadruple", q)
        if len(q) != 4:
            raise DomainError(f"an element quadruple must have 4 entries, not {len(q)}")
        check_ints("an element entry", q)
        a, b, c, d = q
        if kind == GAMMA0:
            if a * d - b * c != 1:
                raise DeterminantError("Gamma0 part must have determinant 1")
            if c % p != 0:
                raise DivisibilityError(f"lower-left entry {int_text(c)} not divisible by {p}")
        elif kind == COSET:
            if p * a * d - b * c != 1:
                raise DeterminantError(
                    f"coset normal form needs p*alpha*delta - beta*gamma = 1, "
                    f"got {int_text(p * a * d - b * c)}"
                )
        else:
            what = repr(kind) if type(kind) is str else f"of type {type(kind).__name__}"
            raise DomainError(f"unknown kind {what}, expected {GAMMA0!r} or {COSET!r}")
        _set(self, "p", p)
        _set(self, "kind", kind)
        _set(self, "q", q)

    # -- constructors -------------------------------------------------

    @classmethod
    def gamma0(cls, p: int, m: UnimodularMatrix) -> "FrickeElement":
        return cls(p, GAMMA0, m.entries())

    @classmethod
    def coset(cls, p: int, alpha: int, beta: int, gamma: int, delta: int) -> "FrickeElement":
        return cls(p, COSET, (alpha, beta, gamma, delta))

    # -- views ---------------------------------------------------------

    @property
    def matrix(self) -> UnimodularMatrix:
        """The Gamma0 part as a UnimodularMatrix; COSET has none."""
        if self.kind != GAMMA0:
            raise DomainError("a coset element has no integer SL2 matrix")
        return UnimodularMatrix(*self.q)

    def integer_matrix(self) -> tuple[tuple[int, int, int, int], int]:
        """Integer matrix plus det scale: (entries, 1) for the Gamma0 part,
        ((p*alpha, beta; p*gamma, p*delta), p) for the coset."""
        if self.kind == GAMMA0:
            return self.q, 1
        al, be, ga, de = self.q
        return (self.p * al, be, self.p * ga, self.p * de), self.p

    # -- group law ------------------------------------------------------

    def __mul__(self, other: "FrickeElement") -> "FrickeElement":
        if self.p != other.p:
            raise PrimeMismatchError(f"cannot multiply level {self.p} by level {other.p}")
        p = self.p
        m1, s1 = self.integer_matrix()
        m2, s2 = other.integer_matrix()
        a, b, c, d = _product(m1, m2)
        # Each // p is exact.  p | c' for g = (a', b'; c', d') in Gamma0(p), and
        # a coset's integer matrix is w = (p al, be; p ga, p de).  The 11, 21
        # and 22 entries of g w are p (a' al + b' ga), p (c' al + d' ga) and
        # c' be + p d' de, and those of w g are p al a' + be c', p (ga a' + de c')
        # and p (ga b' + de d').  Every entry of w w* is divisible by p:
        # p (p al al* + be ga*), p (al be* + be de*), p^2 (ga al* + de ga*) and
        # p (ga be* + p de de*).
        if s1 * s2 == p:
            return FrickeElement(p, COSET, (a // p, b, c // p, d // p))
        if s1 * s2 == p * p:
            a, b, c, d = a // p, b // p, c // p, d // p
        return FrickeElement(p, GAMMA0, (a, b, c, d))

    def __str__(self) -> str:
        if self.kind == GAMMA0:
            return f"{self.p}|{','.join(map(str, self.q))}"
        return f"{self.p}:{','.join(map(str, self.q))}"


def fricke_involution(p: int) -> FrickeElement:
    """W_p = (1/sqrt p)(0, -1; p, 0)."""
    return FrickeElement.coset(p, 0, -1, 1, 0)


def parse_fricke(text: str) -> FrickeElement:
    """Parse "p:alpha,beta,gamma,delta" (coset normal form)."""
    head, sep, tail = text.partition(":")
    # without the ':' the empty field fails like any other malformed one
    p, *q = parse_integers(f"{head},{tail}" if sep else "", 5, text,
                           "'p:alpha,beta,gamma,delta'")
    return FrickeElement.coset(p, *q)
