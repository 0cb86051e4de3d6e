"""The CLI contract under generated argv.

Whatever the flags, ``run`` returns 0, 1 or 2 without raising; stdout is
empty (an argparse usage error, exit 2), exactly one JSON object, or an
SVG document (render, exit 0); every error code is one of errors.py.
--help, --plain and --out are left out (they change what goes to
stdout); a well-formed --precision stays <= 60 and z parts <= 1e6 in
size so a case costs milliseconds, and a larger --precision must be
refused before it costs more.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rademacher import errors
from rademacher.cli import run

ERROR_CODES = {
    cls.code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, ValueError) and hasattr(cls, "code")
}

M61 = 2**61 - 1
HUGE = ("1" + "0" * 70, str(M61), "-" + "9" * 400, "9" * 5000, "1e400", "-1e400",
        "1e-400", "1e999999999")
SPECIAL = ("", "nan", "inf", "-inf", "-0", "+7", " 3", "1_000", "3/2", "0x10", "1.5", "1/0",
           "\u0661")

small_int = st.integers(-50, 50).map(str)
junk = st.one_of(
    small_int,
    st.sampled_from(HUGE),
    st.sampled_from(SPECIAL),
    st.text(max_size=6),
)


def _joined(parts, n):
    return st.lists(parts, min_size=n[0], max_size=n[1]).map(",".join)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


z_part = st.one_of(_floats(-1e6, 1e6), st.sampled_from(SPECIAL), st.text(max_size=4))

# flag -> (well-formed values, huge ones among them; junk values).  A case
# has at most one junk flag, so it gets past the others and reaches the
# code behind the junk one.
FLAGS = {
    "--matrix": (
        # in SL2(Z); the first four in Gamma0(p) for p = 3, 5, 7 and 2^61 - 1
        st.sampled_from(("1,0,105,1", "1,1,105,106", f"1,0,{105 * M61},1", "-1,0,0,-1",
                         "3,1,8,3", "0,-1,1,0", "2,1,1,1"))
        | st.builds("1,{},0,1".format, junk)
        # S (T^-2 S)^n, a four-letter word up to 13-digit entries
        | st.sampled_from((2, -3, 1000, 10**13)).map(lambda n: f"{n},{n - 1},{n + 1},{n}"),
        _joined(junk, (0, 5)),
    ),
    "--p": (st.sampled_from(("3", "5", "7", str(M61), str(2**89 - 1), "3215031751")), junk),
    "--fricke": (
        st.sampled_from(("5:0,-1,1,0", "3:1,1,2,1", "13:1,3,4,1", f"{M61}:0,-1,1,0")),
        st.builds("{}:{}".format, junk, _joined(junk, (0, 5))) | st.text(max_size=8),
    ),
    "--word": (_joined(small_int, (0, 7)), _joined(junk, (0, 7))),
    "--z": (
        st.builds("{},{}".format, _floats(-2, 2), _floats(0.01, 2)),
        st.builds("{},{}".format, z_part, z_part) | _joined(z_part, (0, 3)),
    ),
    "--precision": (st.integers(30, 60).map(str),
                    st.integers(max_value=60).map(str)
                    | st.sampled_from(SPECIAL + ("100000", "1000000000"))),
    "--tolerance": (st.sampled_from(("1e-40", "1e-10", "0", "-1", "1e400", "1/2")), junk),
    "--x-min": (st.sampled_from(("-2", "-1/2", "0.25", "-1e400")), junk),
    "--x-max": (st.sampled_from(("1", "3/2", "100", "1e400")), junk),
    **{flag: (st.sampled_from(("100", "800", "1" + "0" * 70)), junk)
       for flag in ("--width-px", "--height-px")},
    **{flag: (st.sampled_from(("1", "3/2", "0.5", "14", "1e400", "1e-400")), junk)
       for flag in ("--height-cap", "--stroke-width", "--font-size")},
    "--no-labels": (st.none(), st.none()),
}

# a level-p element comes as --p with --matrix, or as --fricke
LEVEL_P = (("--p", "--matrix"), ("--fricke",))
OWN_FLAGS = {
    "phi": (("--matrix",),),
    "phi-p": LEVEL_P,
    "decompose": (("--matrix",),),
    "endpoints": (("--word",),),
    "km": (("--word",),),
    "verify-eta": (("--matrix", "--z", "--precision", "--tolerance"),),
    "verify-theorem1": tuple(f + ("--z", "--precision", "--tolerance") for f in LEVEL_P),
    "render": (("--word", "--x-min", "--x-max", "--height-cap", "--width-px", "--height-px",
                "--stroke-width", "--font-size", "--no-labels"),),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    # now and then a flag is missing, or one of another subcommand is added
    flags = [f for f in draw(st.sampled_from(OWN_FLAGS[command])) if draw(st.integers(0, 7))]
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(sorted(FLAGS))))
    flags = draw(st.permutations(flags))
    bad = draw(st.integers(0, len(flags)))  # len(flags): no junk flag
    argv = [command]
    for i, flag in enumerate(flags):
        value = draw(FLAGS[flag][i == bad])
        if value is None:
            argv.append(flag)
        elif draw(st.integers(0, 3)):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_run_keeps_its_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    text = out.getvalue()
    assert status in (0, 1, 2), (argv, status)
    if not text:
        assert status == 2, (argv, err.getvalue())
        return
    if argv[0] == "render" and status == 0:
        assert text.startswith("<svg ") and text.endswith("</svg>\n"), argv
        return
    lines = text.splitlines()
    assert len(lines) == 1, (argv, text)
    payload = json.loads(lines[0])
    assert isinstance(payload, dict), (argv, text)
    if "error" in payload:
        assert status in (1, 2), (argv, payload)
        assert payload["error"]["code"] in ERROR_CODES, (argv, payload)
        assert (payload["error"]["code"] == "parse") == (status == 2), (argv, payload)
    else:
        assert status == 0 or payload.get("pass") is False, (argv, payload)
