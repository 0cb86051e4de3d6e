"""The public namespace: every exported name resolves, and the slow
reference implementations live only under tests/."""

import importlib
import inspect
import pkgutil

import oracles

import rademacher

# helpers that left the library for the tests, besides the oracles themselves
MOVED = {"dedekind_sum_fast", "word_matrix_roundtrip", "LITERAL_THRESHOLD"}


def _oracle_names():
    return {
        name for name, obj in vars(oracles).items()
        if inspect.isfunction(obj) and obj.__module__ == oracles.__name__
    }


def test_every_exported_name_resolves():
    assert len(set(rademacher.__all__)) == len(rademacher.__all__)
    for name in rademacher.__all__:
        assert getattr(rademacher, name, None) is not None, name


def test_no_oracle_in_the_library():
    names = _oracle_names()
    assert {"sawtooth", "dedekind_sum_literal", "inertia_elimination",
            "log_eta_product"} <= names
    modules = [rademacher] + [
        importlib.import_module(f"rademacher.{info.name}")
        for info in pkgutil.iter_modules(rademacher.__path__)
        if info.name != "__main__"
    ]
    for name in names | MOVED:
        assert name not in rademacher.__all__, name
        for module in modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
