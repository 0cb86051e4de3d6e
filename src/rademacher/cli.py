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
import sys
from fractions import Fraction

from .dedekind import rademacher_phi
from .errors import DomainError, ParseError, ResultTooLargeError
from .fricke import phi_p
from .inertia import km_phi, tridiag_signature, tridiag_trace
from .matrices import (MAX_DIGITS, MAX_EXPONENT, FrickeElement, _is_number, check_tolerance,
                       integer, parse_fricke, parse_integers, parse_matrix)
from .render import render_svg
from .words import decompose, endpoints

DEFAULT_TOLERANCE = "1e-40"


def _printable(numbers) -> None:
    """ResultTooLargeError before anything is printed if an int among
    numbers has more than MAX_DIGITS digits: the CLI prints no integer
    longer than those it reads."""
    limit = 10**MAX_DIGITS
    for n in numbers:
        if abs(n) >= limit:
            raise ResultTooLargeError(
                f"the result holds a {n.bit_length()}-bit integer, more than the "
                f"{MAX_DIGITS} digits the command line prints")


def _vertex_parts(pts) -> list[int]:
    """The integers n and d of each vertex n/d, as str(vertex) prints them."""
    return [x for v in pts for x in (v.n, v.d)]


def _parse_word(text: str) -> tuple[int, ...]:
    return parse_integers(text) if text else ()


def _parse_z(text: str, prec: int):
    import mpmath
    from mpmath.libmp import dps_to_prec, from_str, round_nearest

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
    bits = dps_to_prec(prec + GUARD_DIGITS)
    return mpmath.mp.make_mpc(tuple(from_str(part, bits, round_nearest) for part in parts))


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
    _printable([value])
    return {"phi": value}, [str(value)]


def _run_phi_p(args):
    value = phi_p(_fricke_arg(args))
    _printable([value.numerator, value.denominator])
    return {"phi_p": str(value)}, [str(value)]


def _run_decompose(args):
    word = decompose(parse_matrix(args.matrix))
    pts = endpoints(word)
    _printable([*word, *_vertex_parts(pts)])
    pts = [str(v) for v in pts]
    return {"word": list(word), "endpoints": pts}, [
        ",".join(str(a) for a in word),
        " ".join(pts),
    ]


def _run_endpoints(args):
    pts = endpoints(_parse_word(args.word))
    _printable(_vertex_parts(pts))
    pts = [str(v) for v in pts]
    return {"endpoints": pts}, [" ".join(pts)]


def _run_km(args):
    word = _parse_word(args.word)
    trace, signature, phi = tridiag_trace(word), tridiag_signature(word), km_phi(word)
    _printable([trace, phi])
    return (
        {"word": list(word), "trace": trace, "signature": signature, "phi": phi},
        [f"trace {trace}", f"signature {signature}", f"phi {phi}"],
    )


def _run_verify(args):
    from . import eta

    check_tolerance(args.tolerance)
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
    word = _parse_word(args.word)
    if not args.no_labels:
        # the labels print the vertices
        _printable(_vertex_parts(endpoints(word)))
    data = render_svg(word, **given, label_vertices=not args.no_labels)
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
