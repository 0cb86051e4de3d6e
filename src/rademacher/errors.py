"""Error types shared across the package.

DomainError covers mathematically invalid input (bad determinant, wrong
divisibility, points off or too close to the real axis, ...).  ParseError
covers malformed text input; the CLI maps it to a usage error instead.
Every error carries a short machine-readable ``code``.
"""


class ParseError(ValueError):
    """Malformed textual input (matrix strings, words, rationals)."""

    code = "parse"


class DomainError(ValueError):
    """Input is well-formed but outside the operation's domain."""

    code = "domain"


class DeterminantError(DomainError):
    code = "bad_determinant"


class NotOddPrimeError(DomainError):
    code = "not_odd_prime"


class PrimeTooLargeError(DomainError):
    """p is beyond the range where the primality test is deterministic."""

    code = "prime_too_large"


class DivisibilityError(DomainError):
    code = "bad_divisibility"


class PrimeMismatchError(DomainError):
    code = "prime_mismatch"


class NotCoprimeError(DomainError):
    code = "not_coprime"


class NotAnEdgeError(DomainError):
    code = "not_an_edge"


class WrongBaseEdgeError(DomainError):
    code = "wrong_base_edge"


class ImaginaryPartError(DomainError):
    """Im(z) too small for the requested precision to be affordable."""

    code = "imaginary_part_too_small"


class PointTooLargeError(DomainError):
    """|z| or its image too large for the digits it would have to carry."""

    code = "point_too_large"


class NotUpperHalfPlaneError(DomainError):
    """z has a non-finite part or Im(z) <= 0."""

    code = "not_upper_half_plane"


class ResultTooLargeError(DomainError):
    """A result holds an integer longer than the command line prints."""

    code = "result_too_large"
