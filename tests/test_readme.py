"""The README's library quick tour runs as written in a fresh process, and
each line `expression  # value` whose value is Python gives that value."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rademacher

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
