"""Benchmark of the rademacher library: one closed-loop caller, seeded inputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it times the
workload untraced and prints the end-to-end metrics; with ``--trace 1`` it
times the workload untraced and then traced on the same inputs, and prints
the per-layer metrics derived from the spans plus the tracing overhead.
The last line of stdout is one JSON object; a full record with run
metadata is appended to ``perfbench/out/results.jsonl``.  Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 9
BLOCK_S = 0.01
REF_REPEATS = 6
# typical reference durations on the machine the bounds were set on
LOOP_NOMINAL_S = 0.0007
START_NOMINAL_S = 0.04
IMPORT_REPEATS = 3
PANEL_SWEEP_OPS = 1000
PANEL_LEVEL_P_OPS = 300
PANEL_CLI_REPEATS = 3
GRID_P = (50, 100, 200)
GRID_Y = (0.5, 0.05, 0.003)
GRID_X = 0.3
GRID_POINT_S = 0.2
GRID_MAX_CALLS = 25
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rademacher.cli; "
                "print(time.perf_counter() - t)")


class Tally:
    """Attempted and failed operations; a failure is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, op, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op[0]} {op[1:]!r:.300} {error or 'mismatch'}")


def run_op(w, op, tally: Tally) -> int:
    """Run and check one operation; returns its wall time in ns."""
    error = None
    t0 = perf_counter_ns()
    try:
        ok = w.check(op)
    except Exception as exc:  # any exception is a failed operation, not a crash
        ok, error = False, repr(exc)
    dt = perf_counter_ns() - t0
    tally.record(ok, op, error)
    return dt


def _reference_work() -> int:
    """Fixed pure-Python work (small and big integers, Fractions, calls)
    that never touches the library, so its speed tracks only the machine."""
    acc = 0
    for k in range(1, 120):
        a, b = (k * 7919) % 997 + 1, 1009
        while b:
            a, b = b, a % b
            acc += a
    f = Fraction(0)
    for k in range(1, 25):
        f += Fraction(1, k)
    x = 3 ** 230
    for _ in range(60):
        x = (x * x + acc) >> 365
    return acc + f.numerator % 7 + x % 11


def loop_reference_s() -> float:
    """Current duration of REF_REPEATS runs of the reference work."""
    t0 = perf_counter_ns()
    for _ in range(REF_REPEATS):
        _reference_work()
    return (perf_counter_ns() - t0) / 1e9


def start_reference_s() -> float:
    """Current wall time of a bare interpreter start, ``python -c pass``."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e9


class Reference:
    """A reference measurement and its nominal value: ``factor(before,
    after)`` scales a time taken between two measurements to the nominal
    machine speed."""

    def __init__(self, measure, nominal_s: float):
        self.measure = measure
        self.nominal_s = nominal_s

    def factor(self, before: float, after: float) -> float:
        return 2 * self.nominal_s / (before + after)


LOOP = Reference(loop_reference_s, LOOP_NOMINAL_S)
START = Reference(start_reference_s, START_NOMINAL_S)


def reference_for(name: str) -> Reference:
    # a cli call is mostly interpreter start, which follows a bare
    # interpreter start far more closely than it follows Python work; the
    # set-up probes of the other workloads follow Python work more closely
    return START if name == "cli" else LOOP


class Pass:
    """Whole cycles run until ``seconds`` of timed work have accumulated.

    The machine's speed drifts by tens of percent within seconds when it
    is shared, and it drifts alike for the library and for other code of
    the same kind.  So the operations run in blocks of about ``BLOCK_S``
    (at least one operation), the reference is measured between blocks,
    and every time in a block is scaled by the reference's nominal value
    over the mean of the two measurements around it: times are reported
    at a fixed machine speed.  The raw cycle rates are kept as well.
    """

    def __init__(self, w, seed: int, seconds: float, tally: Tally, ref: Reference, tracer=None):
        self.latencies_ms = array("d")
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.factors: list[float] = []
        self.cycle_ends: list[int] = []  # span count after each cycle
        elapsed = 0
        index = 0
        before = ref.measure()
        while elapsed < seconds * 1e9:
            ops = w.cycle(seed, index)
            scaled = raw = block = 0
            pending: list[int] = []
            for n, op in enumerate(ops, 1):
                if tracer is None:
                    dt = run_op(w, op, tally)
                else:
                    tracer.active = True
                    with tracer.span(op[0]):
                        dt = run_op(w, op, tally)
                    tracer.active = False
                pending.append(dt)
                block += dt
                if block >= BLOCK_S * 1e9 or n == len(ops):
                    after = ref.measure()
                    factor = ref.factor(before, after)
                    self.factors.append(factor)
                    self.latencies_ms.extend(t * factor / 1e6 for t in pending)
                    scaled += block * factor
                    raw += block
                    before = after
                    pending.clear()
                    block = 0
            if tracer is not None:
                self.cycle_ends.append(len(tracer))
            self.rates.append(len(ops) / (scaled / 1e9))
            self.raw_rates.append(len(ops) / (raw / 1e9))
            elapsed += raw
            index += 1
        self.seconds = elapsed / 1e9


def _probe(name: str, seed: int, scope: str, tally: Tally) -> tuple[float, float]:
    """Run probe.py in a fresh interpreter: (wall seconds, its peak RSS in MB)."""
    t0 = perf_counter_ns()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed), scope],
                          capture_output=True, timeout=150)
    dt = (perf_counter_ns() - t0) / 1e9
    try:
        report = json.loads(proc.stdout)
        ops, failed, rss_mb = report["ops"], report["failed"], report["maxrss_kb"] / 1024
    except (ValueError, KeyError, TypeError):
        ops, failed, rss_mb = 1, 1, 0.0
    error = proc.stderr.decode(errors="replace")[-300:] or None
    for i in range(ops):
        tally.record(i >= failed and proc.returncode == 0, ("probe", name, seed, scope), error)
    return dt, rss_mb


def _setup_once(w, name: str, seed: int, tally: Tally) -> float:
    """Seconds from a fresh interpreter to the first verified result."""
    if name == "cli":
        op = w.first_op(seed)  # expected value computed before timing
        return run_op(w, op, tally) / 1e9
    return _probe(name, seed, "first", tally)[0]


def _peak_rss_mb(w, name: str, seed: int, tally: Tally) -> float:
    """Peak RSS of a fresh process running the first cycle; for cli, of
    the largest rademacher process over the first cycle."""
    if name != "cli":
        return _probe(name, seed, "cycle", tally)[1]
    peak = 0
    for op in w.cycle(seed, 0):
        ok, kb = w.peak_rss_kb(op)
        tally.record(ok, op)
        peak = max(peak, kb)
    return peak / 1024


def end_to_end(w, name: str, seed: int, seconds: float, tally: Tally):
    ref = reference_for(name)
    setups, raw_setups = [], []
    before = ref.measure()
    for _ in range(SETUP_REPEATS):
        raw_setups.append(_setup_once(w, name, seed, tally))
        after = ref.measure()
        setups.append(raw_setups[-1] * ref.factor(before, after))
        before = after
    run_op(w, w.first_op(seed), tally)  # warm-up: lazy set-up and caches fill before timing
    timed = Pass(w, seed, seconds, tally, ref)
    lat = timed.latencies_ms
    metrics = {
        "ops_per_s": statistics.median(timed.rates),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(w, name, seed, tally),
    }
    samples = {"ops": len(lat), "cycles": len(timed.rates), "setups": len(setups),
               "timed_seconds": timed.seconds, "blocks": len(timed.factors),
               "speed_factor_median": statistics.median(timed.factors),
               "raw_ops_per_s": statistics.median(timed.raw_rates),
               "raw_setup_s": statistics.median(raw_setups)}
    return metrics, samples


# ------------------------------------------------------------- traced run

def _panel(tracer, w, ops, tally: Tally) -> None:
    tracer.active = True
    for op in ops:
        with tracer.span(op[0]):
            run_op(w, op, tally)
    tracer.active = False


def _panel_cli_in_process(tracer, cli_w, ops, tally: Tally) -> None:
    from rademacher import cli

    tracer.active = True
    for _ in range(PANEL_CLI_REPEATS):
        for op in ops:
            _, argv, expected = op
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(argv)
                ok, error = code == 0 and cli_w.matches(buf.getvalue().encode(), expected), None
            except Exception as exc:  # counted like any other failed operation
                ok, error = False, repr(exc)
            tally.record(ok, ("cli.run",) + tuple(argv), error)
    tracer.active = False


def _import_ms(env: dict) -> float:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, timeout=120, check=True)
        runs.append(float(proc.stdout) * 1e3)
    return statistics.median(runs)


def _grid(tracer) -> None:
    import mpmath
    from rademacher import eta

    tracer.active = True
    for prec in GRID_P:
        for y in GRID_Y:
            z = mpmath.mpc(GRID_X, y)
            spent = calls = 0
            while spent < GRID_POINT_S * 1e9 and calls < GRID_MAX_CALLS:
                t0 = perf_counter_ns()
                with tracer.span(f"eta.log_eta.P{prec}.y{y}"):
                    eta.log_eta(z, prec=prec)
                spent += perf_counter_ns() - t0
                calls += 1
    tracer.active = False


def per_layer(w, name: str, seed: int, seconds: float, tally: Tally):
    import workloads
    from spans import Tracer

    run_op(w, w.first_op(seed), tally)
    ref = reference_for(name)
    base = Pass(w, seed, seconds / 2, tally, ref)
    # speed factors sampled through the traced part; layer times are scaled
    # by their median, in-process times by LOOP's and process times by START's
    speeds: dict[Reference, list[float]] = {LOOP: [], START: []}

    def sample(r: Reference) -> None:
        m = r.measure()
        speeds[r].append(r.factor(m, m))

    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(w, seed, seconds / 2, tally, ref, tracer=tracer)
        speeds[ref].extend(traced.factors)
        workload_end = len(tracer)
        # layers this workload never reaches are timed on slices of the others
        sample(LOOP)
        _panel(tracer, workloads.ExactSweep(), workloads.ExactSweep().cycle(seed, 0)[:PANEL_SWEEP_OPS], tally)
        sample(LOOP)
        _panel(tracer, workloads.LevelP(), workloads.LevelP().cycle(seed, 0)[:PANEL_LEVEL_P_OPS], tally)
        sample(LOOP)
        cli_w = workloads.Cli()
        cli_ops = cli_w.cycle(seed, 0)
        _panel_cli_in_process(tracer, cli_w, cli_ops, tally)
        sample(LOOP)
        _grid(tracer)
        sample(LOOP)
        if name != "cli":
            sample(START)
            _panel(tracer, cli_w, cli_ops, tally)
            sample(START)
    finally:
        tracer.uninstall()
    import_ms = _import_ms(cli_w.env)
    sample(START)
    loop = statistics.median(speeds[LOOP])
    start = statistics.median(speeds[START])

    whole = tracer.stats(0, workload_end)
    first = tracer.stats(0, traced.cycle_ends[0])
    panel = tracer.stats(workload_end, len(tracer))

    def timing(layer: str) -> dict:
        own = whole.get(layer)
        return own if own and own["calls"] else panel[layer]

    def us(layer: str) -> float:
        s = timing(layer)
        return s["total_ns"] / s["calls"] / 1e3 * loop

    def count(layer: str, field: str = "calls") -> int:
        return first.get(layer, {}).get(field, 0)

    def median_ms(layer: str, factor: float) -> float:
        return statistics.median(timing(layer)["durations"]) / 1e6 * factor

    geo = timing("fricke.phi_p_geometric")
    metrics = {
        "dedekind.rademacher_phi.calls": count("dedekind.rademacher_phi"),
        "dedekind.rademacher_phi.us_per_call": us("dedekind.rademacher_phi"),
        "inertia.km_phi.us_per_call": us("inertia.km_phi"),
        "inertia.tridiag_signature.calls": count("inertia.tridiag_signature"),
        "inertia.tridiag_signature.us_per_call": us("inertia.tridiag_signature"),
        "words.turns_from_endpoints.us_per_call": us("words.turns_from_endpoints"),
        "words.decompose.us_per_call": us("words.decompose"),
        "words.decompose.letters": count("words.decompose", "amount"),
        "matrices.is_odd_prime.calls": count("matrices.is_odd_prime"),
        "matrices.is_odd_prime.us_per_call": us("matrices.is_odd_prime"),
        "fricke.phi_p.us_per_call": us("fricke.phi_p"),
        "fricke.phi_p_geometric.self_us_per_call": geo["self_ns"] / geo["calls"] / 1e3 * loop,
        "eta.verify_theorem1.ms_per_call": us("eta.verify_theorem1") / 1e3,
        "eta.verify_eta_transform.ms_per_call": us("eta.verify_eta_transform") / 1e3,
        "eta.truncation_terms.sum": (count("eta.verify_theorem1", "amount")
                                     + count("eta.verify_eta_transform", "amount")),
        "cli.import_ms": import_ms * start,
        "cli.run.us_per_call": us("cli.run"),
        "render.render_svg.us_per_call": us("render.render_svg"),
        "trace.overhead_pct": (statistics.median(base.rates) / statistics.median(traced.rates) - 1) * 100,
    }
    for prec in GRID_P:
        for y in GRID_Y:
            metrics[f"eta.log_eta.P{prec}.y{y}.ms"] = median_ms(f"eta.log_eta.P{prec}.y{y}", loop)
    for sub in workloads.Cli.SUBCOMMANDS:
        metrics[f"cli.{sub}.ms"] = median_ms(f"cli.{sub}", start)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    samples = {"spans": len(tracer), "untraced_cycles": len(base.rates),
               "loop_speed_factor": loop, "start_speed_factor": start,
               "traced_cycles": len(traced.rates), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples


# --------------------------------------------------------------- metadata

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    import mpmath

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "commit": _git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-sweep", "level-p", "eta-cert", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rademacher" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/rademacher package or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values, samples = measure(w, args.workload, args.seed, args.seconds, tally)
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    record = dict(result, fail_frac=tally.failed / tally.attempted, samples=samples,
                  failures=tally.failures, **metadata(args))
    if args.workload == "eta-cert":
        record["min_digits"] = w.min_digits if w.min_digits != float("inf") else None
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: fail_frac {record['fail_frac']:.3g} "
          f"over {tally.attempted} operations, samples {samples}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
