"""Smoke test of the benchmark itself, at the smallest run length.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the benchmark command in a copy of the checkout (sources, benchmark
and BENCHMARK.json only), so the repository's own result files stay
untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _assert_result(proc: subprocess.CompletedProcess, wanted: list) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(checkout, workload):
    _assert_result(_bench(checkout, workload, 0), SPEC["end_to_end"])
    record = json.loads((checkout / "perfbench/out/results.jsonl").read_text().splitlines()[-1])
    assert record["fail_frac"] == 0
    for key in ("python", "mpmath", "mpmath_backend", "nproc", "cpu_model", "seed", "commit"):
        assert key in record


def test_per_layer_metrics_emitted_with_units(checkout):
    _assert_result(_bench(checkout, "exact-sweep", 1), SPEC["per_layer"])
    assert (checkout / "perfbench/out/spans-exact-sweep-seed7.csv.gz").is_file()


def test_refuses_checkout_without_sources(tmp_path):
    proc = _bench(_copy_checkout(tmp_path, with_sources=False), "exact-sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _WrongSweepWord(workloads.ExactSweep):
    def cycle(self, seed, index):
        ops = super().cycle(seed, index)[:50]
        kind, word, mat, pts = ops[0]
        ops[0] = (kind, word[:-1] + (word[-1] + 1,), mat, pts)
        return ops


class _WrongCliValue(workloads.Cli):
    def cycle(self, seed, index):
        kind, argv, expected = super().cycle(seed, index)[0]
        return [(kind, argv, {"phi": expected["phi"] + 1})]


@pytest.mark.parametrize("tampered", [_WrongSweepWord, _WrongCliValue])
def test_wrong_expected_value_counts_as_failure(tampered):
    w = tampered()
    n_ops = len(w.cycle(7, 0))
    tally = run.Tally()
    run.Pass(w, 7, 1e-9, tally, run.LOOP)
    assert tally.attempted == n_ops
    assert tally.failed == 1
    assert len(tally.failures) == 1
