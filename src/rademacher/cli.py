"""Command line front end.

Every subcommand prints a single JSON object on stdout (or a bare value
with --plain).  Domain errors come back as {"error": {"code", "message"}}
with exit status 1, malformed input with exit status 2; malformed flags
exit 2 the usual argparse way.  Any other failure inside a subcommand is
a bug, reported as code "internal" with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .dedekind import rademacher_phi
from .errors import DomainError, ParseError
from .fricke import phi_p
from .inertia import km_phi, tridiag_signature, tridiag_trace
from .matrices import FrickeElement, integer, parse_fricke, parse_integers, parse_matrix
from .render import render_svg
from .words import decompose, endpoints

DEFAULT_TOLERANCE = "1e-40"
# at most this many digits in a number, the ceiling Python puts on
# int("..."); render's rational flags also bound the exponent by it
MAX_DIGITS = 4300
# the exponent bound of --z and --tolerance: mpmath reads an exponent in
# time quadratic in its digits, and 10^5 still reaches point_too_large
# (--z=0.1,1e5000) and residuals far below 1e-4300
MAX_EXPONENT = 10**5
# every non-integer number the CLI reads: p/q with q > 0, or a decimal such
# as 5, -.5, 5. or 2.5e-3, a leading point followed by a nonzero digit
# (mpmath fails on .0); ASCII digits only as in matrices.integer; group 1 is
# the exponent
_RATIONAL = re.compile(
    r"[+-]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+(?:\.[0-9]*)?|\.0*[1-9][0-9]*)(?:[eE]([+-]?[0-9]+))?)")


def _is_number(text: str, max_exponent: int) -> bool:
    # the only gate before Fraction or mpmath reads CLI text: both would
    # take padding, _ and non-ASCII digits, and fail on p/0
    match = _RATIONAL.fullmatch(text)
    return (match is not None and sum(map(str.isdigit, text)) <= MAX_DIGITS
            and abs(int(match[1] or 0)) <= max_exponent)


def _parse_word(text: str) -> tuple[int, ...]:
    return parse_integers(text) if text else ()


def _parse_z(text: str, prec: int):
    import mpmath

    from .eta import GUARD_DIGITS

    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"z must be re,im with decimal parts, got {text!r}")

    def readable(max_exponent) -> bool:
        return all(part in ("nan", "inf", "+inf", "-inf") or _is_number(part, max_exponent)
                   for part in parts)

    if not readable(MAX_EXPONENT):
        if readable(math.inf):
            raise ParseError(f"could not read z from {text!r}: an exponent may be at "
                             f"most {MAX_EXPONENT}")
        raise ParseError(f"could not read z from {text!r}")
    with mpmath.workdps(prec + GUARD_DIGITS):
        return mpmath.mpc(*map(mpmath.mpf, parts))


def _parse_fraction(text: str) -> Fraction:
    # Fraction() would build 10**exponent exactly however large
    if not _is_number(text, MAX_DIGITS):
        raise ParseError(f"expected p/q or a decimal with an exponent of at most "
                         f"{MAX_DIGITS}, got {text!r}")
    return Fraction(text)


def _fricke_arg(args) -> FrickeElement:
    if args.fricke is not None:
        if args.matrix is not None or args.p is not None:
            raise ParseError("--fricke cannot be combined with --p/--matrix")
        return parse_fricke(args.fricke)
    if args.p is None or args.matrix is None:
        raise ParseError("need either --fricke or both --p and --matrix")
    return FrickeElement.gamma0(args.p, parse_matrix(args.matrix))


def _add_element_flags(sub):
    sub.add_argument("--p", type=integer, help="odd prime level")
    sub.add_argument("--matrix", help="a,b,c,d in Gamma0(p)")
    sub.add_argument("--fricke", help="p:alpha,beta,gamma,delta coset element")


def _add_precision_flags(sub):
    sub.add_argument("--precision", type=integer, help="decimal digits (default 50)")
    sub.add_argument("--tolerance", default=DEFAULT_TOLERANCE,
                     help="pass threshold for the residual")


def _sub(subs, name, help_text, handler):
    p = subs.add_parser(name, help=help_text)
    p.set_defaults(handler=handler)
    # SUPPRESS keeps a pre-subcommand --plain from being clobbered by a default
    p.add_argument("--plain", action="store_true", default=argparse.SUPPRESS,
                   help="bare values instead of JSON")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rademacher",
        description="Rademacher symbols, edge path decompositions, and eta checks",
    )
    parser.add_argument("--plain", action="store_true",
                        help="bare values instead of JSON")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _sub(subs, "phi", "Rademacher symbol of an SL(2,Z) matrix", _run_phi)
    p.add_argument("--matrix", required=True, help="a,b,c,d")

    p = _sub(subs, "phi-p", "level p symbol of a group element", _run_phi_p)
    _add_element_flags(p)

    p = _sub(subs, "decompose", "edge word of a matrix, with path endpoints", _run_decompose)
    p.add_argument("--matrix", required=True, help="a,b,c,d")

    p = _sub(subs, "endpoints", "vertices of the path of a word", _run_endpoints)
    p.add_argument("--word", required=True, help="comma separated integers (may be empty)")

    p = _sub(subs, "km", "trace and signature form of the symbol", _run_km)
    p.add_argument("--word", required=True, help="comma separated integers")

    p = _sub(subs, "verify-eta", "check the eta transformation law at a point", _run_verify)
    p.add_argument("--matrix", required=True, help="a,b,c,d")
    p.add_argument("--z", required=True, help="re,im in the upper half plane")
    _add_precision_flags(p)

    p = _sub(subs, "verify-theorem1", "check the level p eta product law at a point", _run_verify)
    _add_element_flags(p)
    p.add_argument("--z", required=True, help="re,im in the upper half plane")
    _add_precision_flags(p)

    p = _sub(subs, "render", "SVG picture of the path of a word", _run_render)
    p.add_argument("--word", required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--x-min", help="left edge in plane units")
    p.add_argument("--x-max", help="right edge in plane units")
    p.add_argument("--height-cap", help="clip height for vertical edges")
    p.add_argument("--width-px", type=integer)
    p.add_argument("--height-px", type=integer)
    p.add_argument("--stroke-width")
    p.add_argument("--font-size")
    p.add_argument("--no-labels", action="store_true", help="skip vertex labels")

    return parser


def _run_phi(args):
    value = rademacher_phi(parse_matrix(args.matrix))
    return {"phi": value}, [str(value)]


def _run_phi_p(args):
    value = phi_p(_fricke_arg(args))
    return {"phi_p": str(value)}, [str(value)]


def _run_decompose(args):
    word = decompose(parse_matrix(args.matrix))
    pts = [str(v) for v in endpoints(word)]
    return {"word": list(word), "endpoints": pts}, [
        ",".join(str(a) for a in word),
        " ".join(pts),
    ]


def _run_endpoints(args):
    pts = [str(v) for v in endpoints(_parse_word(args.word))]
    return {"endpoints": pts}, [" ".join(pts)]


def _run_km(args):
    word = _parse_word(args.word)
    trace, signature, phi = tridiag_trace(word), tridiag_signature(word), km_phi(word)
    return (
        {"word": list(word), "trace": trace, "signature": signature, "phi": phi},
        [f"trace {trace}", f"signature {signature}", f"phi {phi}"],
    )


def _run_verify(args):
    from . import eta

    if not _is_number(args.tolerance, MAX_EXPONENT):
        if _is_number(args.tolerance, math.inf):
            raise ParseError(f"tolerance must be a number with an exponent of at most "
                             f"{MAX_EXPONENT}, got {args.tolerance!r}")
        raise ParseError(f"tolerance must be a number, got {args.tolerance!r}")
    prec = eta.DEFAULT_PRECISION if args.precision is None else args.precision
    if args.command == "verify-eta":
        g, verify = parse_matrix(args.matrix), eta.verify_eta_transform
    else:
        g, verify = _fricke_arg(args), eta.verify_theorem1
    eta.check_precision(prec)
    z = _parse_z(args.z, prec)
    payload = verify(g, z, prec=prec).to_dict(tolerance=args.tolerance)
    return payload, [f"residual {payload['residual']}", f"pass {str(payload['pass']).lower()}"]


def _run_render(args):
    # render_svg holds the defaults, so it gets only the flags given
    fractions = ("x_min", "x_max", "height_cap", "stroke_width", "font_size")
    given = {name: _parse_fraction(getattr(args, name)) for name in fractions
             if getattr(args, name) is not None}
    given.update((name, getattr(args, name)) for name in ("width_px", "height_px")
                 if getattr(args, name) is not None)
    data = render_svg(_parse_word(args.word), **given, label_vertices=not args.no_labels)
    if args.out is not None:
        with open(args.out, "wb") as handle:
            handle.write(data)
        return {"written": args.out, "bytes": len(data)}, [args.out]
    sys.stdout.write(data.decode("ascii"))
    return None, None


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        result = args.handler(args)
    except (ParseError, DomainError) as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 2 if isinstance(exc, ParseError) else 1
    except (ValueError, ArithmeticError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": {"code": "internal", "message": message}}))
        return 1

    payload, plain = result
    if payload is None:
        return 0
    if args.plain:
        for line in plain:
            print(line)
    else:
        print(json.dumps(payload))
    return 0 if payload.get("pass", True) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
