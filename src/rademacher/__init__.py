"""Exact Rademacher symbols, Farey edge paths, and eta transformation checks.

The package exports what a user calls; constants, inertia helpers and the
error subclasses live in their submodules.  The eta names are loaded on
first use (PEP 562), so the exact parts of the package run without
importing mpmath.
"""

from .dedekind import dedekind_sum, rademacher_phi
from .errors import DomainError, ParseError
from .fricke import phi_p, phi_p_geometric, random_gamma0
from .inertia import km_phi
from .matrices import FrickeElement, UnimodularMatrix, fricke_involution, parse_fricke, parse_matrix
from .render import RenderOptions, render_svg
from .words import Farey, decompose, endpoints, endpoints_signed, reconstruct, turns_from_endpoints

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Farey",
    "FrickeElement",
    "ParseError",
    "RenderOptions",
    "UnimodularMatrix",
    "VerificationReport",
    "decompose",
    "dedekind_sum",
    "endpoints",
    "endpoints_signed",
    "eta_p_branch_ratio",
    "fricke_involution",
    "km_phi",
    "log_eta",
    "log_eta_p",
    "parse_fricke",
    "parse_matrix",
    "phi_p",
    "phi_p_geometric",
    "rademacher_phi",
    "random_gamma0",
    "reconstruct",
    "render_svg",
    "turns_from_endpoints",
    "verify_eta_transform",
    "verify_theorem1",
    "__version__",
]


def __getattr__(name):
    # the names of __all__ not bound above are the eta ones
    if name in __all__:
        from . import eta

        value = getattr(eta, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
