import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rademacher
from rademacher import cli
from rademacher.cli import run
from rademacher.dedekind import rademacher_phi
from rademacher.fricke import phi_p
from rademacher.inertia import km_phi
from rademacher.matrices import _RATIONAL, MAX_EXPONENT, FrickeElement, _is_number, parse_matrix
from rademacher.render import render_svg
from rademacher.words import decompose, endpoints

GOLDEN = Path(__file__).parent / "golden" / "figure_path.svg"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_phi_example(capsys):
    code, payload = run_json(capsys, ["phi", "--matrix", "3,1,8,3"])
    assert code == 0 and payload == {"phi": 0}


def test_phi_p_example(capsys):
    code, payload = run_json(capsys, ["phi-p", "--p", "5", "--matrix", "1,0,5,1"])
    assert code == 0 and payload == {"phi_p": "0"}


def test_phi_p_fricke_flag(capsys):
    code, payload = run_json(capsys, ["phi-p", "--fricke", "5:0,-1,1,0"])
    assert code == 0 and payload == {"phi_p": "0"}


def test_decompose_example(capsys):
    code, payload = run_json(capsys, ["decompose", "--matrix", "0,-1,1,0"])
    assert code == 0 and payload == {"word": [], "endpoints": ["1/0", "0/1"]}


def test_decompose_long_parabolic(capsys):
    # S (T^-2 S)^n has a four-letter word for every n
    n = 10**13
    code, payload = run_json(capsys, ["decompose", f"--matrix={n},{n - 1},{n + 1},{n}"])
    assert code == 0 and payload["word"] == [-1, n, 1, 0]
    assert payload["endpoints"] == ["1/0", "0/1", "1/1", f"{n}/{n + 1}", f"{n - 1}/{n}",
                                    f"{n}/{n + 1}"]


def test_endpoints_word_equals_form(capsys):
    code, payload = run_json(capsys, ["endpoints", "--word=-2,1,-2"])
    assert code == 0
    assert payload == {"endpoints": ["1/0", "0/1", "1/2", "1/3", "3/8"]}


def test_endpoints_empty_word(capsys):
    code, payload = run_json(capsys, ["endpoints", "--word="])
    assert code == 0 and payload == {"endpoints": ["1/0", "0/1"]}


def test_km(capsys):
    code, payload = run_json(capsys, ["km", "--word=-2,1,-2"])
    assert code == 0
    assert payload == {"word": [-2, 1, -2], "trace": -3, "signature": -1, "phi": 0}


def test_json_outputs_recompute(capsys):
    # parse the JSON, recompute through the library, values must agree
    _, payload = run_json(capsys, ["phi", "--matrix", "4,1,11,3"])
    assert payload["phi"] == rademacher_phi(parse_matrix("4,1,11,3"))

    _, payload = run_json(capsys, ["phi-p", "--p", "7", "--matrix", "1,1,7,8"])
    e = FrickeElement.gamma0(7, parse_matrix("1,1,7,8"))
    assert payload["phi_p"] == str(phi_p(e))

    _, payload = run_json(capsys, ["decompose", "--matrix", "3,1,8,3"])
    word = tuple(payload["word"])
    assert word == decompose(parse_matrix("3,1,8,3"))
    assert payload["endpoints"] == [str(v) for v in endpoints(word)]

    _, payload = run_json(capsys, ["km", "--word=2,-1,3"])
    assert payload["phi"] == km_phi((2, -1, 3))


def test_plain_mode(capsys):
    assert run(["--plain", "phi", "--matrix", "1,1,0,1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["--plain", "phi-p", "--p", "5", "--matrix", "1,1,0,1"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert run(["--plain", "km", "--word=2"]) == 0
    assert capsys.readouterr().out == "trace 2\nsignature 1\nphi -1\n"


def test_plain_flag_after_subcommand(capsys):
    # trailing placement must work too, and not clobber the leading form
    assert run(["phi", "--matrix", "1,1,0,1", "--plain"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["--plain", "endpoints", "--word="]) == 0
    assert capsys.readouterr().out == "1/0 0/1\n"


def test_verify_eta_pass_and_fail_exit(capsys):
    code, payload = run_json(
        capsys,
        ["verify-eta", "--matrix", "3,1,8,3", "--z", "0.333,0.5",
         "--precision", "60", "--tolerance", "1e-55"],
    )
    assert code == 0 and payload["pass"] is True
    assert payload["precision"] == 60 and payload["truncation_terms"] > 0
    assert float(payload["tail_bound"]) < 1e-70 and payload["working_digits"] >= 70

    code, payload = run_json(
        capsys,
        ["verify-eta", "--matrix", "3,1,8,3", "--z", "0.333,0.5",
         "--precision", "60", "--tolerance", "1e-200"],
    )
    assert code == 1 and payload["pass"] is False


# the README's verify commands, and one that fails its tolerance: argv, exit
# status, stdout, --plain stdout
FROZEN_VERIFY = [
    ('verify-eta --matrix=3,1,8,3 --z=0.333,0.5 --precision=60',
     0,
     ('{"lhs": "0.86015628817687292569463598835537243007464506535714768944628'
      '9,-0.425830612095577697724432327365174873885160006936610217435886", "r'
      'hs": "0.860156288176872925694635988355372430074645065357147689446289,-'
      '0.425830612095577697724432327365174873885160006936610217435886", "resi'
      'dual": "5.4334074e-71", "truncation_terms": 83, "lhs_terms": 83, "rhs_'
      'terms": 13, "series": "pentagonal", "precision": 60, "tail_bound": "2.'
      '1646958e-74", "working_digits": 70, "tolerance": "1e-40", "pass": true'
      '}\n'),
     'residual 5.4334074e-71\npass true\n'),
    ('verify-theorem1 --p=7 --matrix=1,1,7,8 --z=0.2,0.9 --precision=100',
     0,
     ('{"lhs": "0.27009401725599151391233788483689138585096318024812277540762'
      '44075905048622526861371978477729747929641,0.50299635720529465787229690'
      '5577503227101733352105423494837252086905378246221809647630844397284015'
      '6678", "rhs": "0.27009401725599151391233788483689138585096318024812277'
      '54076244075905048622526861371978477729747929641,0.50299635720529465787'
      '2296905577503227101733352105423494837252086905378246221809647630844397'
      '2840156678", "residual": "1.8017096e-112", "truncation_terms": 125, "l'
      'hs_terms": 125, "rhs_terms": 11, "series": "pentagonal", "precision": '
      '100, "tail_bound": "1.2675624e-113", "working_digits": 112, "tolerance'
      '": "1e-40", "pass": true}\n'),
     'residual 1.8017096e-112\npass true\n'),
    ('verify-theorem1 --fricke=5:0,-1,1,0 --z=0.2,0.8',
     0,
     ('{"lhs": "-0.32336219361441274698416627780839027063407529478334,0.03145'
      '1293658221246507587170963769043178571755122344", "rhs": "-0.3233621936'
      '1441274698416627780839027063407529478334,0.031451293658221246507587170'
      '963769043178571755122344", "residual": "1.5192908e-64", "truncation_te'
      'rms": 17, "lhs_terms": 17, "rhs_terms": 9, "series": "pentagonal", "pr'
      'ecision": 50, "tail_bound": "1.1820813e-71", "working_digits": 62, "to'
      'lerance": "1e-40", "pass": true}\n'),
     'residual 1.5192908e-64\npass true\n'),
    ('verify-eta --matrix=3,1,8,3 --z=0.333,0.5 --precision=60 --tolerance=1e-200',
     1,
     ('{"lhs": "0.86015628817687292569463598835537243007464506535714768944628'
      '9,-0.425830612095577697724432327365174873885160006936610217435886", "r'
      'hs": "0.860156288176872925694635988355372430074645065357147689446289,-'
      '0.425830612095577697724432327365174873885160006936610217435886", "resi'
      'dual": "5.4334074e-71", "truncation_terms": 83, "lhs_terms": 83, "rhs_'
      'terms": 13, "series": "pentagonal", "precision": 60, "tail_bound": "2.'
      '1646958e-74", "working_digits": 70, "tolerance": "1e-200", "pass": fal'
      'se}\n'),
     'residual 5.4334074e-71\npass false\n'),
]


def test_verify_outputs_frozen(capsys):
    # the digits, the report fields and the exit status, byte for byte
    for command, status, out, plain in FROZEN_VERIFY:
        assert run(command.split()) == status
        assert capsys.readouterr().out == out, command
        assert run(["--plain"] + command.split()) == status
        assert capsys.readouterr().out == plain, command


def test_huge_precision_is_refused_at_once(capsys):
    # checked before z is read at that precision: 10^9 digits would
    # allocate gigabytes and run for hours
    for argv in (["verify-eta", "--matrix", "1,1,0,1"],
                 ["verify-theorem1", "--p", "5", "--matrix", "1,0,5,1"]):
        start = time.perf_counter()
        status = run(argv + ["--z", "0.1,1", "--precision", "1000000000"])
        lines = capsys.readouterr().out.splitlines()
        assert time.perf_counter() - start < 1
        assert status == 1 and len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "domain" and "ceiling" in error["message"]


def test_verify_theorem1_both_forms(capsys):
    code, payload = run_json(
        capsys,
        ["verify-theorem1", "--p", "5", "--matrix", "1,0,5,1", "--z", "0.21,0.83",
         "--precision", "40"],
    )
    assert code == 0 and payload["pass"] is True

    code, payload = run_json(
        capsys,
        ["verify-theorem1", "--fricke", "5:0,-1,1,0", "--z", "0.1,0.9",
         "--precision", "40", "--tolerance", "1e-35"],
    )
    assert code == 0 and payload["pass"] is True


def test_domain_error_exit_1(capsys):
    code, payload = run_json(capsys, ["phi", "--matrix", "1,2,3,4"])
    assert code == 1 and payload["error"]["code"] == "bad_determinant"

    code, payload = run_json(capsys, ["phi-p", "--p", "4", "--matrix", "1,0,4,1"])
    assert code == 1 and payload["error"]["code"] == "not_odd_prime"

    code, payload = run_json(
        capsys, ["verify-eta", "--matrix", "1,1,0,1", "--z", "0.3,0.000001",
                 "--precision", "50"],
    )
    assert code == 1 and payload["error"]["code"] == "imaginary_part_too_small"


def test_large_prime_level(capsys):
    p = 2**61 - 1
    start = time.perf_counter()
    code, payload = run_json(capsys, ["phi-p", "--p", str(p), "--matrix", f"1,0,{p},1"])
    assert time.perf_counter() - start < 1
    e = FrickeElement.gamma0(p, parse_matrix(f"1,0,{p},1"))
    assert code == 0 and payload == {"phi_p": str(phi_p(e))}

    p = 2**89 - 1
    code, payload = run_json(capsys, ["phi-p", "--p", str(p), "--matrix", f"1,0,{p},1"])
    assert code == 1 and payload["error"]["code"] == "prime_too_large"


@pytest.mark.parametrize("z, code", [
    ("nan,1", "not_upper_half_plane"),
    ("inf,1", "not_upper_half_plane"),
    ("0,inf", "not_upper_half_plane"),
    ("0,-1", "not_upper_half_plane"),
    # finite in mpmath; its image under (3,1;8,3) has Im ~ 1.6e-402
    ("0.1,1e400", "imaginary_part_too_small"),
    # checked before the image's tiny Im: 5000 extra digits would be needed
    ("0.1,1e5000", "point_too_large"),
])
def test_bad_z_one_json_error_exit_1(capsys, z, code):
    for argv in (["verify-eta", "--matrix", "3,1,8,3"],
                 ["verify-theorem1", "--p", "5", "--matrix", "1,0,5,1"]):
        status = run(argv + ["--z", z])
        lines = capsys.readouterr().out.splitlines()
        assert status == 1 and len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == code


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.from_regex(_RATIONAL, fullmatch=True).filter(
           lambda text: _is_number(text, MAX_EXPONENT)) | st.sampled_from(("nan", "inf", "-inf")),
       min_size=2, max_size=2),
       prec=st.sampled_from((30, 50, 100)))
def test_z_parts_read_as_mpmath_reads_them(parts, prec):
    # each part is rounded once at P + 10 digits, to the bits mpmath.mpf
    # gives it at that precision; the oracle sets the precision, the CLI not
    import mpmath

    from rademacher.eta import GUARD_DIGITS

    with mpmath.workdps(prec + GUARD_DIGITS):
        expected = tuple(mpmath.mpf(part)._mpf_ for part in parts)
    assert cli._parse_z(",".join(parts), prec)._mpc_ == expected


def test_internal_error_not_reported_as_domain(capsys, monkeypatch):
    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "_run_phi", broken)
    code, payload = run_json(capsys, ["phi", "--matrix", "1,1,0,1"])
    assert code == 1
    assert payload["error"] == {"code": "internal", "message": "ValueError: bug"}


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    src = str(Path(rademacher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rademacher", "phi", "--matrix=1,1,0,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0 and json.loads(done.stdout) == {"phi": 1}


def test_parse_error_exit_2(capsys):
    code, payload = run_json(capsys, ["phi", "--matrix", "1,2,3"])
    assert code == 2 and payload["error"]["code"] == "parse"

    code, payload = run_json(capsys, ["km", "--word=a,b"])
    assert code == 2 and payload["error"]["code"] == "parse"

    code, payload = run_json(capsys, ["phi-p", "--matrix", "1,0,5,1"])
    assert code == 2  # missing --p / --fricke

    code, payload = run_json(capsys, ["phi-p", "--fricke=5:0,-1,1,0", "--p=5"])
    assert code == 2 and payload["error"] == {
        "code": "parse", "message": "--fricke cannot be combined with --p/--matrix"}


@pytest.mark.parametrize("argv, bits", [
    (["phi", f"--matrix={'9' * 4000},1,1,{'9' * 4000}"], 26576),
    (["phi-p", f"--fricke=5:{'9' * 4000},1,1,{'9' * 4000}"], 26578),
], ids=["phi", "phi-p"])
def test_a_determinant_beyond_4300_digits_is_named_by_its_bits(capsys, argv, bits):
    # Python prints no int of more than 4300 digits: the refusal used to end
    # as internal, a ValueError raised while formatting its own message
    code, payload = run_json(capsys, argv)
    assert code == 1 and payload["error"]["code"] == "bad_determinant"
    assert payload["error"]["message"].endswith(f"<{bits}-bit integer>" + (
        ", expected 1" if argv[0] == "phi" else ""))


NINES, SHORTER = "9" * 4300, "9" * 3000


@pytest.mark.parametrize("argv", [
    ["phi", f"--matrix={NINES},{int(NINES) - 1},1,1"],
    ["phi-p", "--p=5", f"--matrix=1,{NINES},0,1"],
    ["km", f"--word={NINES},{NINES}"],
    ["endpoints", f"--word={SHORTER},{SHORTER}"],
    ["render", f"--word={SHORTER},{SHORTER}"],
], ids=["phi", "phi-p", "km", "endpoints", "render"])
def test_a_result_beyond_4300_digits_is_refused(capsys, argv):
    # each ended as internal, a ValueError raised while printing the result:
    # Phi = 10^4300, Phi_p = 3 (10^4300 - 1), a trace of 2 (10^4300 - 1),
    # and a vertex (10^3000 - 1)^2 - 1 in the endpoints and the labels
    for plain in ([], ["--plain"]):
        code, payload = run_json(capsys, plain + argv)
        assert code == 1 and payload["error"]["code"] == "result_too_large"
        assert payload["error"]["message"].endswith("more than the 4300 digits the "
                                                    "command line prints")


def test_a_result_of_4300_digits_is_printed(capsys):
    code, payload = run_json(capsys, ["km", f"--word={NINES}"])
    assert code == 0 and len(str(payload["trace"])) == len(str(payload["phi"])) == 4300
    # without labels no vertex is printed
    assert run(["render", f"--word={SHORTER},{SHORTER}", "--no-labels"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg ") and len(svg.encode()) == 757


def test_usage_error_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2
    assert run(["phi"]) == 2  # --matrix required
    capsys.readouterr()


def test_render_out_matches_golden(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, payload = run_json(capsys, ["render", "--word=-2,1,-2", "--out", str(target)])
    assert code == 0 and payload["written"] == str(target)
    assert target.read_bytes() == GOLDEN.read_bytes()


def test_render_stdout(capsys):
    assert run(["render", "--word=2", "--no-labels"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")


def test_render_bad_range_exit_2(capsys):
    code, payload = run_json(
        capsys, ["render", "--word=2", "--x-min", "1", "--x-max", "1"]
    )
    assert code == 2 and payload["error"]["code"] == "parse"


def test_render_huge_and_tiny_options(capsys):
    # coordinates beyond 60 digits used to fail in Decimal.quantize
    assert run(["render", "--word=2", "--width-px", "1" + "0" * 70]) == 0
    assert run(["render", "--word=2", "--x-min=-1e400", "--height-cap=1e-400"]) == 0
    capsys.readouterr()
    # Fraction("1e999999999") would build the whole power of ten
    code, payload = run_json(capsys, ["render", "--word=2", "--height-cap=1e999999999"])
    assert code == 2 and payload["error"]["code"] == "parse"


@pytest.mark.parametrize("flag", ["--x-min=-\u0661", "--x-max= 3/2 ", "--stroke-width=1_0"])
def test_rationals_outside_the_grammar_are_parse_errors(capsys, flag):
    # Fraction() alone would take non-ASCII digits, padding and underscores
    code, payload = run_json(capsys, ["render", "--word=2", flag])
    assert code == 2 and payload["error"]["code"] == "parse"


@pytest.mark.parametrize("z", [
    "1_0,0.5",  # mpmath read 10 + 0.5i
    "\u0661,0.5",  # an Arabic-Indic one
    "0.3,0.5 ",
    "0.3,1/0",  # ZeroDivisionError, reported as internal
    ".0,0.5",  # mpmath cannot read .0
    "0.3",
    "0.3,0.5,1",
])
def test_z_outside_the_grammar_is_parse_error(capsys, z):
    code, payload = run_json(capsys, ["verify-eta", "--matrix=3,1,8,3", f"--z={z}"])
    assert code == 2 and payload["error"]["code"] == "parse"


def test_numbers_at_the_edges_of_the_grammar_are_read(capsys):
    argv = ["verify-eta", "--matrix=3,1,8,3", "--precision=30"]
    assert run_json(capsys, argv + ["--z=.5,0.5"]) == run_json(capsys, argv + ["--z=0.5,0.5"])
    assert run_json(capsys, argv + ["--z=0.5,5."]) == run_json(capsys, argv + ["--z=0.5,5"])
    code, payload = run_json(capsys, argv + ["--z=0.3,0.5", "--tolerance=" + "9" * 4300])
    assert code == 0 and payload["pass"] is True
    assert run(["render", "--word=2", "--x-min=.5", "--x-max=3."]) == 0
    short = capsys.readouterr().out
    assert run(["render", "--word=2", "--x-min=0.5", "--x-max=3"]) == 0
    assert capsys.readouterr().out == short


@pytest.mark.parametrize("flag", ["--x-min=100", "--x-max=-100"])
def test_render_one_edge_past_the_default_other_is_parse_error(capsys, flag):
    code, payload = run_json(capsys, ["render", "--word=2", flag])
    assert code == 2 and payload["error"]["code"] == "parse"


def test_render_rounds_a_near_tie_half_even(capsys):
    # scale 1 px per unit puts the 0/1 line at x = 5e-13 + 1e-80, just
    # above the tie between 0.000000000000 and 0.000000000001
    x_min = -Fraction(5 * 10**67 + 1, 10**80)
    assert run(["render", "--word=", f"--x-min={x_min}", f"--x-max={800 + x_min}"]) == 0
    svg = capsys.readouterr().out
    assert '<line x1="0.000000000001" y1=' in svg and "0.000000000000" not in svg


def test_render_defaults_live_in_render_options(capsys):
    assert run(["render", "--word=-2,1,-2", "--width-px", "800", "--height-px", "560",
                "--stroke-width", "3/2", "--font-size", "14"]) == 0
    explicit = capsys.readouterr().out
    assert run(["render", "--word=-2,1,-2"]) == 0
    assert capsys.readouterr().out == explicit == render_svg((-2, 1, -2)).decode("ascii")


def test_verify_theorem1_help_describes_the_element_flags(capsys):
    assert run(["verify-theorem1", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "odd prime level" in help_text and "coset element" in help_text


@pytest.mark.parametrize("argv", [
    ["phi", "--matrix=1_0,1,9,1"],  # int() reads (10, 1; 9, 1), phi -5
    ["phi", "--matrix=\u0661,0,0,\u0661"],  # Arabic-Indic ones
    ["phi", "--matrix= 1,1,0,1"],
    ["endpoints", "--word=1_0"],
    ["endpoints", "--word= "],
    ["km", "--word=2, -1"],
    ["render", "--word=1_0"],
    ["phi-p", "--fricke=5_0:0,-1,1,0"],
])
def test_integers_outside_the_grammar_are_parse_errors(capsys, argv):
    code, payload = run_json(capsys, argv)
    assert code == 2 and payload["error"]["code"] == "parse"


@pytest.mark.parametrize("argv", [
    ["phi-p", "--p", "1_1", "--matrix", "1,0,11,1"],
    ["phi-p", "--p= 5", "--matrix", "1,0,5,1"],
    ["verify-eta", "--matrix=3,1,8,3", "--z=0.3,0.5", "--precision=6_0"],
    ["render", "--word=2", "--width-px=8_00"],
    ["render", "--word=2", "--height-px=\u0665\u0666\u0660"],  # Arabic-Indic 560
])
def test_integer_flags_outside_the_grammar_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid integer value" in captured.err


def test_signed_integers_are_read(capsys):
    assert run_json(capsys, ["endpoints", "--word=+2"]) == run_json(capsys, ["endpoints", "--word=2"])
    code, payload = run_json(capsys, ["phi-p", "--p=+5", "--matrix=+1,-0,+5,1"])
    assert code == 0 and payload == {"phi_p": "0"}


@pytest.mark.parametrize("tolerance", [
    "junk", "nan", "", " 1e-40", "1_0", "\u0661", "1/0", "inf",
    pytest.param("9" * 4301, id="4301-digits"),  # more digits than mpmath reads
])
def test_bad_tolerance_is_parse_error(capsys, tolerance):
    code, payload = run_json(capsys, ["verify-eta", "--matrix=1,1,0,1", "--z=0.1,1",
                                      f"--tolerance={tolerance}"])
    assert code == 2 and payload["error"]["code"] == "parse"


@pytest.mark.parametrize("flag", ["--z=0.1,1e", "--tolerance=1e-"])
def test_long_exponent_is_parse_error_at_once(capsys, flag):
    # mpmath reads an exponent in time quadratic in its digits: 4298 of
    # them took half a minute.  A later --z replaces the first.
    argv = ["verify-eta", "--matrix=3,1,8,3", "--z=0.3,0.5", flag + "9" * 4298]
    start = time.perf_counter()
    code, payload = run_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"]["code"] == "parse"


@pytest.mark.parametrize("flag, message", [
    ("--z=0.1,1e100001",
     "could not read z from '0.1,1e100001': an exponent may be at most 100000"),
    ("--tolerance=1e-100001",
     "tolerance must be a number with an exponent of at most 100000, got '1e-100001'"),
])
def test_exponent_beyond_the_bound_names_it(capsys, flag, message):
    code, payload = run_json(capsys, ["verify-eta", "--matrix=1,1,0,1", "--z=0.1,1", flag])
    assert code == 2 and payload["error"] == {"code": "parse", "message": message}


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_precision_help_names_the_real_default(capsys):
    # the parser may not import eta (it loads mpmath), so the help text
    # hard-codes the default
    from rademacher import eta

    for command in ("verify-eta", "verify-theorem1"):
        assert run([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default {eta.DEFAULT_PRECISION})" in help_text, command
