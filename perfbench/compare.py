"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 1]

Each file holds records appended by ``run.py`` (``perfbench/out/results.jsonl``
of a base and a changed checkout).  Records are paired in file order per
workload, so run the two sides alternately, at least ten pairs.  Verdicts:

* improved   -- NEW wins at least 9 of 10 pairs and the medians differ by
                more than the base's own quartile spread;
* worse      -- NEW's median is worse than BASE's by more than the bound
                in BENCHMARK.json;
* unresolved -- the base's spread (quartile distance over median) is wider
                than the bound, unless every NEW run beats every BASE run;
* unchanged  -- otherwise.

Per-layer metrics (``--trace 1``) have no bound, so they are never
called worse or unresolved, only improved or unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str, trace: int) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == trace:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], higher: bool, bound: float | None) -> tuple[str, str]:
    sign = 1 if higher else -1
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    score = f"{wins}/{len(pairs)}"
    if sign * (nm - bm) > 0 and wins >= 0.9 * len(pairs) and abs(nm - bm) > b3 - b1:
        return "improved", score
    if bound is None:
        return "unchanged", score
    if sign * (bm - nm) > bound * abs(bm):
        return "worse", score
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if bm and (b3 - b1) / abs(bm) > bound and not all_better:
        return "unresolved", score
    return "unchanged", score


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base, new = load(args.base, args.trace), load(args.new, args.trace)

    header = (f"{'workload':12} {'metric':40} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'wins':>6}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for m in metrics:
            bv = [r["metrics"][m["name"]]["value"] for r in b_runs]
            nv = [r["metrics"][m["name"]]["value"] for r in n_runs]
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            change = f"{(nm - bm) / bm * 100:+.1f}%" if bm else "n/a"
            word, score = verdict(bv, nv, m["better"] == "higher", m.get("bound"))
            print(f"{workload:12} {m['name']:40} {bm:12.5g} [{b1:.5g}, {b3:.5g}]".ljust(87)
                  + f"{nm:12.5g} [{n1:.5g}, {n3:.5g}]".rjust(33)
                  + f" {change:>8} {score:>6}  {word}")
        for label, runs in (("base", b_runs), ("new", n_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{workload:12} fail_frac ({label}) {failed}/{attempted} over {len(runs)} runs")
    missing = set(base) ^ set(new)
    if missing:
        print(f"workloads present on one side only: {sorted(missing)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
