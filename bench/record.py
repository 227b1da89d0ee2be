"""Record the deterministic ops' expected results into bench/expected.json.

    python3 bench/record.py

Run from the root of a checkout whose outputs are the reference (the
file in the repository was recorded on the commit that added the
benchmark). Each workload's op list runs once; for every op that
plan.py checks against a recording, the exit code and the SHA-256 of
its output are stored. An op that does not exit 0 is refused.
"""

from __future__ import annotations

import json
import os
import sys

import plan
import run


def main() -> int:
    root = os.getcwd()
    expected = {}
    for workload in plan.WORKLOADS:
        result = run.run(workload, 0, 0, 0, root)
        for name in result["recorded"]:
            seen = result["observed"][name]
            if seen["rc"] != 0:
                print(f"record: {workload}/{name} exited {seen['rc']}", file=sys.stderr)
                return 1
            expected[name] = seen
    with open(plan.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} ops into {plan.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
