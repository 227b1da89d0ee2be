"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the root of a checkout. One pass of limit-traces runs twice:
as is, and with faults injected into the worker's view of three ops
(one output byte of a CLI op flipped, a CLI op forced to exit 1, one
byte of a library op's result flipped). Each fault must count as one
more failed op, each flip as a wrong output, and the faulty run must
not report `correct`. Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import sys

import run

FAULTS = {"thm31-p3-m2": "flip", "eq5-p5": "exit", "hit_union": "flip"}


def main() -> int:
    root = os.getcwd()
    clean = run.run("limit-traces", 0, 0, 0, root)
    faulty = run.run("limit-traces", 0, 0, 0, root, inject=[f"{k}:{op}" for op, k in FAULTS.items()])
    flips = sum(k == "flip" for k in FAULTS.values())
    checks = {
        "faults hit ops that pass when clean": not set(FAULTS) & set(clean["failures"]),
        "each fault is one more failed op": faulty["failed"] == clean["failed"] + len(FAULTS),
        "the faulty ops are the ones reported": set(faulty["failures"]) == set(clean["failures"]) | set(FAULTS),
        "each flip is a wrong output": faulty["wrong"] == clean["wrong"] + flips,
        "a faulty run is not correct": faulty["wrong"] > 0,
        "the forced exit is reported as an exit": faulty["failures"]["eq5-p5"].startswith("exit 1"),
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
