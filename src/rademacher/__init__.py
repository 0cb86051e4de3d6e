"""Exact Rademacher symbols, Farey edge paths, and eta transformation checks.

The eta names are loaded on first use (PEP 562), so the exact parts of
the package run without importing mpmath.
"""

from .dedekind import dedekind_sum, rademacher_phi
from .errors import (
    CosetBodyError,
    DeterminantError,
    DivisibilityError,
    DomainError,
    ImaginaryPartError,
    NotAnEdgeError,
    NotCoprimeError,
    NotOddPrimeError,
    NotUpperHalfPlaneError,
    ParseError,
    PointTooLargeError,
    PrimeMismatchError,
    PrimeTooLargeError,
    WordTooLongError,
    WrongBaseEdgeError,
)
from .fricke import conjugate_by_p, k_of_p, phi_p, phi_p_geometric, random_gamma0
from .inertia import inertia_minors, km_phi, tridiag_signature, tridiag_trace
from .matrices import (
    COSET,
    GAMMA0,
    I2,
    S,
    T,
    FrickeElement,
    UnimodularMatrix,
    fricke_involution,
    parse_fricke,
    parse_matrix,
    psl_eq,
    sgn,
    t_power,
)
from .render import RenderOptions, render_svg
from .words import (
    INFINITY,
    ZERO,
    Farey,
    decompose,
    endpoints,
    endpoints_signed,
    is_edge,
    reconstruct,
    turns_from_endpoints,
)

__version__ = "0.1.0"

__all__ = [
    "COSET",
    "CosetBodyError",
    "DeterminantError",
    "DivisibilityError",
    "DomainError",
    "Farey",
    "FrickeElement",
    "GAMMA0",
    "I2",
    "INFINITY",
    "ImaginaryPartError",
    "NotAnEdgeError",
    "NotCoprimeError",
    "NotOddPrimeError",
    "NotUpperHalfPlaneError",
    "ParseError",
    "PointTooLargeError",
    "PrimeMismatchError",
    "PrimeTooLargeError",
    "RenderOptions",
    "S",
    "T",
    "UnimodularMatrix",
    "VerificationReport",
    "WordTooLongError",
    "WrongBaseEdgeError",
    "ZERO",
    "conjugate_by_p",
    "decompose",
    "dedekind_sum",
    "endpoints",
    "endpoints_signed",
    "eta_p_branch_ratio",
    "fricke_involution",
    "inertia_minors",
    "is_edge",
    "k_of_p",
    "km_phi",
    "log_eta",
    "log_eta_p",
    "parse_fricke",
    "parse_matrix",
    "phi_p",
    "phi_p_geometric",
    "psl_eq",
    "rademacher_phi",
    "random_gamma0",
    "reconstruct",
    "render_svg",
    "sgn",
    "t_power",
    "tridiag_signature",
    "tridiag_trace",
    "turns_from_endpoints",
    "verify_eta_transform",
    "verify_theorem1",
    "__version__",
]

_ETA_NAMES = frozenset({
    "VerificationReport",
    "eta_p_branch_ratio",
    "log_eta",
    "log_eta_p",
    "verify_eta_transform",
    "verify_theorem1",
})


def __getattr__(name):
    if name in _ETA_NAMES:
        from . import eta

        value = getattr(eta, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
