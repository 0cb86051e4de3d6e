"""Fresh-interpreter probe behind ``setup_s`` and ``peak_rss_mb``.

    python3 perfbench/probe.py <workload> <seed> first|cycle

Imports the library, builds the workload's first input (``first``) or its
whole first cycle (``cycle``) from the seed, checks every result and
prints one JSON line: the number of operations, the number that failed
and this process's peak resident set in KiB.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, scope = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    w = workloads.WORKLOADS[name]()
    ops = [w.first_op(seed)] if scope == "first" else w.cycle(seed, 0)
    failed = sum(not w.check(op) for op in ops)
    print(json.dumps({"ops": len(ops), "failed": failed,
                      "maxrss_kb": workloads.vm_hwm_kb()}))
