"""In-memory spans around the library's public functions.

The tracer replaces each function listed in ``LAYERS`` by a wrapper in
every ``rademacher`` module that holds it, so calls between modules are
traced too.  A span is (name, start, end, parent) in four flat arrays;
spans are written out only when the run ends.  While ``active`` is False
the wrappers call straight through and record nothing.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from rademacher import cli, dedekind, eta, fricke, inertia, matrices, render, words

# (module, function): the layers the per-layer metrics are derived from;
# tridiag_trace is here so that phi_p_geometric's self time excludes it.
LAYERS = (
    (dedekind, "rademacher_phi"),
    (inertia, "km_phi"),
    (inertia, "tridiag_trace"),
    (inertia, "tridiag_signature"),
    (words, "decompose"),
    (words, "turns_from_endpoints"),
    (matrices, "is_odd_prime"),
    (fricke, "phi_p"),
    (fricke, "phi_p_geometric"),
    (eta, "log_eta"),
    (eta, "verify_eta_transform"),
    (eta, "verify_theorem1"),
    (render, "render_svg"),
    (cli, "run"),
)

# Extra exact counts read from a layer's result.
_AMOUNTS = {
    "words.decompose": len,
    "eta.verify_eta_transform": lambda report: report.truncation_terms,
    "eta.verify_theorem1": lambda report: report.truncation_terms,
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.nested = array("b")  # inside another span of the same name
        self.amount = array("q")
        self._stack = [-1]
        self._depth: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(self._depth[nid] > 0)
        self.amount.append(0)
        self.end.append(0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation, a grid point)."""
        nid = self._id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        amount = _AMOUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if amount is not None:
                self.amount[idx] = amount(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rademacher"]
        for module, fname in LAYERS:
            original = getattr(module, fname)
            wrapper = self._wrap(f"{_short(module)}.{fname}", original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def stats(self, lo: int, hi: int) -> dict:
        """Per span name over spans [lo, hi): outermost calls, their total
        time, the total self time (children subtracted), every duration and
        the summed amount."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            par = self.parent[i]
            if par >= lo:
                child[par - lo] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            s = out.setdefault(self.names[self.name[i]],
                               {"calls": 0, "total_ns": 0, "self_ns": 0, "amount": 0, "durations": []})
            s["self_ns"] += dur - child[i - lo]
            s["amount"] += self.amount[i]
            if not self.nested[i]:
                s["calls"] += 1
                s["total_ns"] += dur
                s["durations"].append(dur)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                handle.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")
