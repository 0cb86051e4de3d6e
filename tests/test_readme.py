"""The README's library quick tour runs as written in a fresh process, and
each line `expression  # value` whose value is Python gives that value; each
command of its command-line block exits 0 and prints the JSON it shows."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rademacher
from rademacher.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"

# reads the tour on stdin, runs it statement by statement, and prints how
# many values it compared
RUNNER = """
import ast, sys
source = sys.stdin.read()
lines = source.splitlines()
namespace, checked = {}, 0
for node in ast.parse(source).body:
    if not isinstance(node, ast.Expr):
        exec(compile(ast.Module([node], []), "README", "exec"), namespace)
        continue
    value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
    try:
        expected = eval(lines[node.end_lineno - 1].partition("#")[2], namespace)
    except Exception:
        continue  # no comment, or prose
    if value != expected:
        sys.exit(f"line {node.lineno}: {value!r} != {expected!r}")
    checked += 1
print(checked)
"""


def test_quick_tour_runs_as_written():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    tour = re.search(r"```python\n(.*?)```", section, re.S)[1]
    env = dict(os.environ)
    src = str(Path(rademacher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RUNNER], input=tour, capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 8


def _command_line_examples():
    """(argv, expected) for each command of the README's "Command line"
    block: expected is the JSON that starts its `#` comment, which may span
    lines and end in prose, or None where the comment is prose alone."""
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("## Command line"):], re.S)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("rademacher "):
            examples.append([shlex.split(line)[1:], ""])
        elif line.startswith("#") and examples:
            examples[-1][1] += line[1:].strip() + " "
    decoder = json.JSONDecoder()
    return [(argv, decoder.raw_decode(comment)[0] if comment.startswith("{") else None)
            for argv, comment in examples]


def _matches(payload, expected):
    # a "..." value in the README stands for any value
    return payload.keys() == expected.keys() and all(
        want == "..." or payload[key] == want for key, want in expected.items())


def test_command_line_examples_print_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # render --out writes its file here
    examples = _command_line_examples()
    assert len(examples) >= 10 and sum(expected is not None for _, expected in examples) >= 7
    for argv, expected in examples:
        assert run(argv) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert expected is None or _matches(payload, expected), (argv, payload)
