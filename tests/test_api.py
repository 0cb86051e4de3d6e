"""The public namespace: every exported name resolves, and the slow
reference implementations live only under tests/."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import oracles

import rademacher

# names that left the library, for the tests or for good, besides the oracles
MOVED = {"dedekind_sum_fast", "word_matrix_roundtrip", "LITERAL_THRESHOLD",
         "psl_eq", "I2", "trace", "identity", "same_psl", "is_edge", "ZERO", "parse",
         "conjugate_by_p", "CosetBodyError", "_t_s", "_default_precision",
         "_HANDLERS", "_ETA_NAMES", "RenderOptions"}
ETA_NAMES = {"VerificationReport", "eta_p_branch_ratio", "log_eta", "log_eta_p",
             "verify_eta_transform", "verify_theorem1"}
PUBLIC = {
    "UnimodularMatrix", "FrickeElement", "Farey", "fricke_involution", "parse_matrix",
    "parse_fricke",
    "rademacher_phi", "dedekind_sum", "km_phi", "phi_p", "phi_p_geometric", "random_gamma0",
    "decompose", "reconstruct", "endpoints", "endpoints_signed", "turns_from_endpoints",
    "render_svg",
    "DomainError", "ParseError",
    "__version__",
} | ETA_NAMES
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _oracle_names():
    return {
        name for name, obj in vars(oracles).items()
        if inspect.isfunction(obj) and obj.__module__ == oracles.__name__
    }


def test_every_exported_name_resolves():
    assert len(set(rademacher.__all__)) == len(rademacher.__all__)
    for name in rademacher.__all__:
        assert getattr(rademacher, name, None) is not None, name


def test_public_surface_is_what_users_call():
    assert len(PUBLIC) == 27 and set(rademacher.__all__) == PUBLIC
    namespace = {}
    exec("from rademacher import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_no_oracle_in_the_library():
    names = _oracle_names()
    assert {"sawtooth", "dedekind_sum_literal", "inertia_elimination",
            "log_eta_product"} <= names
    modules = [rademacher] + [
        importlib.import_module(f"rademacher.{info.name}")
        for info in pkgutil.iter_modules(rademacher.__path__)
        if info.name != "__main__"
    ]
    classes = [obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__.startswith("rademacher.")]
    for name in names | MOVED:
        assert name not in rademacher.__all__, name
        for owner in modules + classes:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def _rademacher_reads(path: Path) -> set:
    """(submodule, attribute) for every attribute read on a rademacher
    submodule that the file imports with `from rademacher import ...`."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rademacher"
        for alias in node.names
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_benchmark_reads_resolve():
    # perfbench reads library internals by name; a pruned name would only
    # show as a failing benchmark run
    reads = _rademacher_reads(PERFBENCH / "workloads.py") | _rademacher_reads(PERFBENCH / "run.py")
    assert {("matrices", "t_power"), ("inertia", "tridiag_trace"), ("eta", "GUARD_DIGITS")} <= reads
    for module, attr in sorted(reads):
        assert hasattr(importlib.import_module(f"rademacher.{module}"), attr), f"{module}.{attr}"
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    layers = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in layers.elts]
    assert len(pairs) > 10
    for module, attr in pairs:
        assert hasattr(importlib.import_module(f"rademacher.{module}"), attr), f"{module}.{attr}"


def _fresh_modules(code: str) -> set:
    """Modules that running code adds to a fresh interpreter's sys.modules."""
    env = dict(os.environ)
    src = str(Path(rademacher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules)\n" + code +
             "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return set(done.stdout.split())


def test_exact_cli_loads_neither_mpmath_nor_dataclasses():
    added = _fresh_modules("import rademacher.cli")
    assert "rademacher.cli" in added
    assert not {"mpmath", "dataclasses", "rademacher.eta"} & added
    added = _fresh_modules(
        "import contextlib, io\n"
        "from rademacher.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['phi', '--matrix=2,1,1,1']) == 0"
    )
    assert not {"mpmath", "dataclasses"} & added


def test_eta_names_load_on_first_use():
    from rademacher import eta

    assert rademacher.log_eta is eta.log_eta
    namespace = {}
    exec("from rademacher import *", namespace)
    assert ETA_NAMES <= set(namespace) and ETA_NAMES <= set(rademacher.__all__)
    for name in ETA_NAMES:
        assert namespace[name] is getattr(eta, name)
    assert "mpmath" in _fresh_modules("from rademacher import log_eta")


def test_no_assert_in_the_library():
    # python -O strips assert statements: invariants must be raised
    package = Path(rademacher.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.rglob("*.py"))) > 5 and found == []


def test_no_unused_import_in_the_library():
    # an import that is never read is a decision stated twice or a dead
    # dependency; the package re-exports its __all__ on purpose
    package = Path(rademacher.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = set(rademacher.__all__) if path.name == "__init__.py" else set()
        found += [f"{path.name}:{name}" for name in sorted(imported - read - exempt)]
    assert len(list(package.rglob("*.py"))) > 5 and found == []
