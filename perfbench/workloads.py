"""The four benchmark workloads.

A workload is an endless sequence of cycles.  Cycle ``i`` is a list of
operations that depends only on ``(seed, i)``; it is built before it is
timed, so the timed region holds only library calls and result checks.
Every cycle of a workload has the same composition (same word lengths,
same primes, same cost quantiles), which keeps the cost of a run nearly
independent of the seed while the inputs themselves change with it.

Each operation is checked as strictly as the acceptance criterion it comes
from; ``check`` returns False on any mismatch.  The library is always
reached through its module attributes (``inertia.km_phi``, not a name
imported once), so the tracer in ``spans.py`` can wrap those functions.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath

from rademacher import dedekind, eta, fricke, inertia, matrices, render, words

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (3, 5, 7, 11, 13)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds are hashed with SHA-512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


# ------------------------------------------------------------ exact-sweep

class ExactSweep:
    """Truncated criterion-2/9 enumeration.

    A cycle is the full subtree of the exhaustive sweep (length <= 7,
    letters in [-4, 4], no interior zero) under one seeded prefix of three
    nonzero letters: 5266 words, each checked for km_phi == rademacher_phi
    and turns_from_endpoints(endpoints) == word.  Every subtree has the
    same shape, so every cycle has the same length profile.
    """

    name = "exact-sweep"
    MAX_LEN = 7
    LETTERS = range(-4, 5)
    PREFIX_LEN = 3

    def _prefix(self, seed: int, index: int):
        rng = _rng(self.name, seed, index)
        word = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(self.PREFIX_LEN)]
        mat = (0, -1, 1, 0)
        pts = [(1, 0), (0, 1)]
        for x in word:
            a, b, c, d = mat
            mat = (a * x + b, -a, c * x + d, -c)
            pts.append((mat[0], mat[2]))
        return word, mat, pts

    def first_op(self, seed: int):
        word, mat, pts = self._prefix(seed, 0)
        return ("word", tuple(word), mat, tuple(pts))

    def cycle(self, seed: int, index: int) -> list:
        word, mat, pts = self._prefix(seed, index)
        mats = [mat]
        ops = []

        def go():
            ops.append(("word", tuple(word), mats[-1], tuple(pts)))
            if len(word) == self.MAX_LEN or word[-1] == 0:
                return
            a, b, c, d = mats[-1]
            for x in self.LETTERS:
                child = (a * x + b, -a, c * x + d, -c)
                word.append(x)
                mats.append(child)
                pts.append((child[0], child[2]))
                go()
                word.pop()
                mats.pop()
                pts.pop()

        go()
        return ops

    def check(self, op) -> bool:
        _, word, mat, pts = op
        km_ok = inertia.km_phi(word) == dedekind.rademacher_phi(matrices.UnimodularMatrix(*mat))
        turn_ok = words.turns_from_endpoints(pts) == word
        return km_ok and turn_ok


# ---------------------------------------------------------------- level-p

class LevelP:
    """Criterion-5 check at the default entry cap of 10^6.

    A cycle draws 150 random_gamma0 elements per prime p in {3, 5, 7, 11,
    13} and pairs each with its W_p coset element; every element is
    checked for phi_p == phi_p_geometric.
    """

    name = "level-p"
    PER_PRIME = 150

    def first_op(self, seed: int):
        e = fricke.random_gamma0(PRIMES[0], _rng(self.name, seed, 0))
        return ("element", e)

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        ops = []
        for p in PRIMES:
            wp = matrices.fricke_involution(p)
            for _ in range(self.PER_PRIME):
                e = fricke.random_gamma0(p, rng)
                ops.append(("element", e))
                ops.append(("element", wp * e))
        return ops

    def check(self, op) -> bool:
        _, e = op
        return fricke.phi_p(e) == fricke.phi_p_geometric(e)


# --------------------------------------------------------------- eta-cert

def _circle_point(u: float, rng: random.Random, dps: int):
    # angle at fraction u of [pi/3, 2pi/3]; the mirror angle has the same sine
    th = math.pi / 3 * (1 + u)
    if rng.random() < 0.5:
        th = math.pi - th
    with mpmath.workdps(dps):
        return mpmath.mpc(mpmath.cos(th), mpmath.sin(th))


def _z_for_gamma0(q, u: float, rng: random.Random, dps: int):
    # |cz + d| = 1 keeps Im(gz) = Im(z), as in acceptance criteria 6 and 7
    a, b, c, d = q
    with mpmath.workdps(dps):
        if c == 0:
            return mpmath.mpc(rng.uniform(-0.5, 0.5), 0.7 + 0.6 * u)
        return (matrices.sgn(c) * _circle_point(u, rng, dps) - d) / c


def _z_for_coset(p: int, q, u: float, rng: random.Random, dps: int):
    # |sqrt(p) (gamma z + delta)| = 1; gamma != 0 on the coset
    al, be, ga, de = q
    with mpmath.workdps(dps):
        return (matrices.sgn(ga) * _circle_point(u, rng, dps) / mpmath.sqrt(p) - de) / ga


def _classical_element(rng: random.Random, i: int) -> matrices.UnimodularMatrix:
    """Criterion 7's generator: every tenth draw is +-T^n, the rest short words with |c| <= 40."""
    if i % 10 == 0:
        g = matrices.t_power(rng.randint(-6, 6))
        return -g if rng.random() < 0.5 else g
    while True:
        g = words.reconstruct(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        if rng.random() < 0.5:
            g = -g
        if abs(g.c) <= 40:
            return g


class EtaCert:
    """Criteria 6 and 7 at P = 100 with the residual bound 1e-85.

    The cost of a case grows like 1/Im z, and Im z on the isometric circle
    is sin(theta)/|c|, so a plain random draw makes the cost of a run
    depend on the seed.  A cycle therefore has fixed slots: per prime the
    W_p fixed point, three Gamma0(p) and three coset cases
    (verify_theorem1), then ten SL(2,Z) cases (verify_eta_transform).  Each
    slot fixes |c| and sin(theta); the seed draws the element from the
    acceptance generator, conditioned on that |c|, and the side of the
    circle.
    """

    name = "eta-cert"
    PREC = 100
    DPS = PREC + eta.GUARD_DIGITS
    BOUND = mpmath.mpf(10) ** -85
    # |c| per slot: the 1/6, 1/2 and 5/6 quantiles of random_gamma0(p,
    # steps=2, entry_cap=30) and of its W_p coset (|gamma| of the normal
    # form), from 4000 draws per prime
    GAMMA0_KEYS = {3: (3, 3, 9), 5: (5, 5, 10), 7: (7, 7, 7), 11: (11, 11, 11), 13: (13, 13, 13)}
    COSET_KEYS = {3: (1, 5, 11), 5: (1, 6, 11), 7: (1, 8, 15), 11: (1, 12, 21), 13: (1, 14, 25)}
    # the ten decile midpoints of |c| in criterion 7's generator
    CLASSICAL_KEYS = (0, 0, 1, 1, 2, 3, 3, 5, 8, 17)
    MAX_DRAWS = 10_000

    def __init__(self):
        self.min_digits = math.inf

    def _fixed_point(self, p: int):
        with mpmath.workdps(self.DPS):
            z = mpmath.mpc(0, 1) / mpmath.sqrt(p)
        return ("theorem1", matrices.fricke_involution(p), z)

    def first_op(self, seed: int):
        return self._fixed_point(PRIMES[0])

    def _draw(self, make, key: int):
        for _ in range(self.MAX_DRAWS):
            x = make()
            if abs(x.q[2] if isinstance(x, matrices.FrickeElement) else x.c) == key:
                return x
        raise RuntimeError(f"no draw with |c| = {key} in {self.MAX_DRAWS} tries")

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        ops = []
        for p in PRIMES:
            wp = matrices.fricke_involution(p)
            ops.append(self._fixed_point(p))
            for j, (kg, kc) in enumerate(zip(self.GAMMA0_KEYS[p], self.COSET_KEYS[p])):
                u = (2 * j + 1) / 6
                e = self._draw(lambda: fricke.random_gamma0(p, rng, steps=2, entry_cap=30), kg)
                ops.append(("theorem1", e, _z_for_gamma0(e.q, u, rng, self.DPS)))
                c = self._draw(lambda: wp * fricke.random_gamma0(p, rng, steps=2, entry_cap=30), kc)
                ops.append(("theorem1", c, _z_for_coset(p, c.q, u, rng, self.DPS)))
        draws = itertools.count()
        for j, key in enumerate(self.CLASSICAL_KEYS):
            u = (2 * j + 1) / 20
            g = self._draw(lambda: _classical_element(rng, next(draws)), key)
            ops.append(("classical", g, _z_for_gamma0(g.entries(), u, rng, self.DPS)))
        return ops

    def check(self, op) -> bool:
        kind, element, z = op
        if kind == "theorem1":
            report = eta.verify_theorem1(element, z, prec=self.PREC)
        else:
            report = eta.verify_eta_transform(element, z, prec=self.PREC)
        residual = report.residual
        if residual > 0:
            self.min_digits = min(self.min_digits, float(-mpmath.log10(residual)))
        return residual < self.BOUND


# -------------------------------------------------------------------- cli

CLI_MAIN = "import sys; from rademacher.cli import main; sys.argv[0] = 'rademacher'; main()"
CLI_TIMEOUT_S = 60
HWM_MARK = "perfbench-hwm-kb"
# CLI_MAIN that also reports its peak RSS on stderr when it exits
CLI_MAIN_HWM = (
    "import atexit, sys\n"
    "def _hwm():\n"
    "    with open('/proc/self/status') as f:\n"
    f"        sys.stderr.write(''.join('\\n{HWM_MARK} ' + l.split()[1] + '\\n'\n"
    "                                 for l in f if l.startswith('VmHWM:')))\n"
    "atexit.register(_hwm)\n" + CLI_MAIN.replace("; ", "\n"))


def vm_hwm_kb() -> int:
    """Peak RSS of this process since its last exec.

    ru_maxrss is not used: Linux carries it over from the parent across
    fork and exec, so a child started by a large parent would report the
    parent's size.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def cli_env() -> dict:
    """Child environment: the checkout's sources, default precision."""
    env = dict(os.environ)
    env.pop("RADEMACHER_PRECISION", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _matrix_arg(m) -> str:
    # the "=" form keeps a leading minus sign from reading as a flag
    return "--matrix=" + ",".join(str(x) for x in m.entries())


def _word_arg(w) -> str:
    return "--word=" + ",".join(str(x) for x in w)


def _z_arg(z) -> tuple:
    re_part, im_part = f"{float(z.real):.15g}", f"{float(z.imag):.15g}"
    # parsed exactly as the CLI parses --z at the default precision
    with mpmath.workdps(eta.DEFAULT_PRECISION + eta.GUARD_DIGITS):
        return f"--z={re_part},{im_part}", mpmath.mpc(mpmath.mpf(re_part), mpmath.mpf(im_part))


def _small_word(rng: random.Random, lo: int, hi: int, cap: int = 4) -> tuple:
    return tuple(rng.randint(-cap, cap) for _ in range(rng.randint(lo, hi)))


class Cli:
    """Fresh ``rademacher`` processes, one at a time.

    A cycle holds the eight subcommands with seeded small arguments at the
    default precision P = 50, verify-theorem1 once per coset: nine calls.
    The expected stdout comes from the library in this process; a call
    passes when it exits 0 and its JSON (or SVG) equals that value.
    """

    name = "cli"
    VERIFY_PRIME = 5
    SUBCOMMANDS = ("phi", "phi-p", "decompose", "endpoints", "km",
                   "verify-eta", "verify-theorem1", "render")

    def __init__(self):
        self.env = cli_env()

    def first_op(self, seed: int):
        return self.cycle(seed, 0)[0]

    def _matrix(self, rng: random.Random, lo: int, hi: int):
        m = words.reconstruct(_small_word(rng, lo, hi))
        return -m if rng.random() < 0.5 else m

    def _matrix_with_c(self, rng: random.Random, c: int):
        while True:
            m = self._matrix(rng, 1, 4)
            if abs(m.c) == c:
                return m

    def _verify_element(self, rng: random.Random, p: int, coset: bool):
        """A random_gamma0 element with lower-left entry +-p, or its W_p
        image with gamma = +-1 in the coset normal form."""
        wp = matrices.fricke_involution(p)
        while True:
            e = fricke.random_gamma0(p, rng, steps=2, entry_cap=15)
            if coset:
                e = wp * e
            if abs(e.q[2]) == (1 if coset else p):
                return e

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(self.name, seed, index)
        dps = eta.DEFAULT_PRECISION + eta.GUARD_DIGITS
        ops = []

        def add(argv, expected):
            ops.append(("cli." + argv[0], argv, expected))

        m = self._matrix(rng, 1, 5)
        add(["phi", _matrix_arg(m)], {"phi": dedekind.rademacher_phi(m)})

        p = PRIMES[index % len(PRIMES)]
        e = fricke.random_gamma0(p, rng, steps=3)
        if index % 2:
            e = matrices.fricke_involution(p) * e
            argv = ["phi-p", f"--fricke={p}:" + ",".join(map(str, e.q))]
        else:
            argv = ["phi-p", "--p", str(p), _matrix_arg(e.matrix)]
        add(argv, {"phi_p": str(fricke.phi_p(e))})

        m = self._matrix(rng, 0, 6)
        word = words.decompose(m)
        add(["decompose", _matrix_arg(m)],
            {"word": list(word), "endpoints": [str(v) for v in words.endpoints(word)]})

        w = _small_word(rng, 0, 6)
        add(["endpoints", _word_arg(w)], {"endpoints": [str(v) for v in words.endpoints(w)]})

        w = _small_word(rng, 1, 6)
        trace, signature = inertia.tridiag_trace(w), inertia.tridiag_signature(w)
        add(["km", _word_arg(w)], {"word": list(w), "trace": trace, "signature": signature,
                                   "phi": inertia.km_phi(w)})

        # the verifications have a fixed |c|, angle and prime, so every
        # cycle costs the same whatever the seed and the cycle index
        g = self._matrix_with_c(rng, 2)
        z_text, z = _z_arg(_z_for_gamma0(g.entries(), 0.5, rng, dps))
        report = eta.verify_eta_transform(g, z)
        add(["verify-eta", _matrix_arg(g), z_text], report.to_dict(tolerance="1e-40"))

        p = self.VERIFY_PRIME
        for coset in (False, True):
            e = self._verify_element(rng, p, coset)
            if coset:
                argv = ["verify-theorem1", f"--fricke={p}:" + ",".join(map(str, e.q))]
                z_text, z = _z_arg(_z_for_coset(p, e.q, 0.5, rng, dps))
            else:
                argv = ["verify-theorem1", "--p", str(p), _matrix_arg(e.matrix)]
                z_text, z = _z_arg(_z_for_gamma0(e.q, 0.5, rng, dps))
            report = eta.verify_theorem1(e, z)
            add(argv + [z_text], report.to_dict(tolerance="1e-40"))

        w = _small_word(rng, 1, 4, cap=3)
        add(["render", _word_arg(w)], render.render_svg(w))
        return ops

    @staticmethod
    def matches(out: bytes, expected) -> bool:
        if isinstance(expected, bytes):
            return out == expected
        try:
            payload = json.loads(out)
        except ValueError:
            return False
        # a verification must also pass its tolerance, not just reproduce the report
        return payload == expected and payload.get("pass", True) is True

    def call(self, argv, main: str = CLI_MAIN):
        """(exit status, stdout, stderr) of one fresh rademacher process."""
        proc = subprocess.Popen([sys.executable, "-c", main, *argv], env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, b"", b""
        return proc.returncode, out, err

    def check(self, op) -> bool:
        _, argv, expected = op
        code, out, _ = self.call(argv)
        return code == 0 and self.matches(out, expected)

    def peak_rss_kb(self, op) -> tuple[bool, int]:
        """Check one operation in a child that also reports its peak RSS."""
        _, argv, expected = op
        code, out, err = self.call(argv, CLI_MAIN_HWM)
        marks = [line.split()[1] for line in err.decode().splitlines() if line.startswith(HWM_MARK)]
        return code == 0 and self.matches(out, expected) and bool(marks), int(marks[-1]) if marks else 0


WORKLOADS = {w.name: w for w in (ExactSweep, LevelP, EtaCert, Cli)}
