"""padicprob benchmark: one workload run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates the workload's
inputs from the seed under .bench_work/, times SETUP_SAMPLES fresh
interpreters that import padicprob and build the CLI parser (set-up),
then starts one more fresh interpreter (bench/worker.py) that repeats
the workload's op list, one op at a time, for S seconds and checks
every op's output. Children run with `python3 -I` and an environment
of PATH and LC_ALL only, so PADICPROB_PRECISION is unset.

A summary goes to stdout, and its last line is one JSON object:
`correct`, `attempted`, `failed` and the metrics. With --trace 0 these
are the end-to-end metrics of BENCHMARK.json: the median time of one
pass over the op list rescaled to reference machine speed (see
worker.REF_SLICE_S), median set-up time, peak RSS of the worker, and
the share of ops that passed their check. With --trace 1 untraced and
traced passes alternate and the metrics are BENCHMARK.json's per-layer
metrics: medians over the traced passes, plus trace.overhead_s, the
traced minus the untraced median pass time, both rescaled.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import plan

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 25
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s


class BenchError(Exception):
    pass


def _worker(root, *args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C"}
    cmd = [sys.executable, "-I", os.path.join(BENCH, "worker.py"), "--root", root, *args]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(root, deadline) -> float:
    """Start of a fresh interpreter to padicprob imported and parser built."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    ready = float(_worker(root, "--setup-only", deadline=deadline).split()[-1])
    return ready - t0


def run(workload, seed, seconds, trace, root, inject=()) -> dict:
    """Generate inputs, measure set-up, run the worker; the raw result."""
    sys.set_int_max_str_digits(0)  # this process writes the oracle's exact outputs as text
    deadline = time.monotonic() + RUN_LIMIT_S
    top = os.path.join(root, ".bench_work")
    work = os.path.join(top, f"{workload}-{seed}-{os.getpid()}")
    try:
        ops = plan.build(workload, seed, work)
        plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "result.json")
        with open(plan_path, "w") as fh:
            json.dump(ops, fh)
        setup_seconds(root, deadline)  # compiles bytecode; not a sample
        setups = [setup_seconds(root, deadline) for _ in range(SETUP_SAMPLES)]
        args = ["--plan", plan_path, "--result", result_path, "--seconds", str(seconds), "--trace", str(trace)]
        _worker(root, *args, *(f"--inject={i}" for i in inject), deadline=deadline)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(top)  # only when no other run is using it
    result["setups"] = setups
    result["ops_per_pass"] = len(ops)
    result["recorded"] = [op["name"] for op in ops if op.get("recorded")]
    return result


def metrics(result, declared, trace) -> dict:
    if not trace:
        values = {
            "wall_ref_s": statistics.median(result["ref_walls"]),
            "setup_s": statistics.median(result["setups"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1 - result["failed"] / result["attempted"],
        }
    else:
        snaps = result["snapshots"]
        overhead = statistics.median(result["traced_ref_walls"]) - statistics.median(result["ref_walls"])
        values = {"trace.overhead_s": overhead}
        for name in declared:
            if name not in values:
                if name not in snaps[0]:
                    raise BenchError(f"per-layer metric {name} is not produced by the tracer")
                values[name] = statistics.median(s[name] for s in snaps)
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padicprob", "cli.py")):
        print("bench: run from a padicprob checkout (src/padicprob not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, root)
        out = metrics(result, declared, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['walls']) + len(result['traced_ref_walls'])} passes of {result['ops_per_pass']} ops")
    for name, m in out.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s (unscaled)':48s} {statistics.median(result['walls']):.6g} s")
    print(f"  {'reference slice':48s} {statistics.median(result['slices']):.6g} s")
    print(f"  {'failed_ratio':48s} {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    for name, why in sorted(result["failures"].items()):
        print(f"  failed op {name}: {why}")
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
