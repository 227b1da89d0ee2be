"""One workload run, in a fresh interpreter started by run.py.

    python3 -I bench/worker.py --root DIR --setup-only
    python3 -I bench/worker.py --root DIR --plan PLAN --result OUT --seconds S --trace 0|1

With --setup-only the process imports padicprob, builds the CLI parser
and prints the CLOCK_MONOTONIC time at which it was ready; run.py takes
set-up time as that instant minus the instant it started the process.

Otherwise it repeats the plan's op list, one op at a time, until the
measuring time is spent. Each op's time covers only the call: a CLI op
is `padicprob.cli.main(argv)` with stdout and stderr captured, a library
op a function of `libops`. A reference slice is timed before every op,
to rescale each pass to reference machine speed (REF_SLICE_S). After
the call the op is checked: its exit
code and the SHA-256 of its stdout (or of its result's canonical text)
must match the plan's expectation. With --trace 1, untraced and traced
passes alternate, the traced ones under the wrappers of `tracing`.
`--inject flip:OP` flips one output byte of OP and `--inject exit:OP`
forces a nonzero exit, for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))


def _import_program(root: str):
    """Import padicprob from the checkout's src/ and build the CLI parser."""
    src = os.path.join(root, "src")
    sys.path[:0] = [src, BENCH]
    import padicprob
    from padicprob import cli

    cli.build_parser()
    if os.path.dirname(os.path.abspath(padicprob.__file__)) != os.path.join(src, "padicprob"):
        sys.exit(f"padicprob imported from {padicprob.__file__}, not from {src}")
    return cli


#: Nominal time of one reference slice: its typical time on a quiet 2-vCPU
#: Intel Xeon host with Python 3.11. wall_ref_s rescales each pass's wall
#: time to a machine that runs one slice in exactly this time.
REF_SLICE_S = 0.008


def reference_slice() -> float:
    """Time a fixed piece of pure-Python work of the kinds the workloads
    do: a big-integer binomial walk, Fraction sums, a string join and
    scan. One slice runs before every op, so the slices of a pass sample
    the machine's speed while that pass ran."""
    t0 = time.perf_counter()
    c = 1
    for j in range(4000):
        c = c * (4000 - j) // (j + 1)
    f = Fraction(0)
    for k in range(1, 150):
        f += Fraction(1, k)
    s = "".join(["0", "1"] * 30000)
    sum(1 for ch in s if ch == "1")
    return time.perf_counter() - t0


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error ends a real CLI run with exit 1
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = 1
    dt = time.perf_counter() - t0
    lines = err.getvalue().splitlines()
    return dt, rc, out.getvalue().encode(), lines[-1] if lines else ""


def _run_lib(libops, oracle, name, inputs):
    t0 = time.perf_counter()
    try:
        result = libops.OPS[name](inputs)
    except Exception as exc:
        return time.perf_counter() - t0, 1, b"", f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, 0, oracle.canon(libops.CANONICAL[name](result)).encode(), ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", action="append", default=[])
    args = ap.parse_args(argv)

    cli = _import_program(os.path.abspath(args.root))
    if args.setup_only:
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0

    import libops
    import oracle
    import tracing

    with open(args.plan) as fh:
        ops = json.load(fh)
    inject = dict(item.split(":", 1)[::-1] for item in args.inject)
    tracer = tracing.Tracer() if args.trace else None
    walls, ref_walls, slices, traced_ref_walls, snapshots = [], [], [], [], []
    attempted = failed = wrong = 0
    failures, observed = {}, {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_ref_walls)
        gc.collect()
        pass_start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        wall = ref = 0.0
        for op in ops:
            name = op["name"]
            ref += reference_slice()
            if op["kind"] == "cli":
                dt, rc, payload, note = _run_cli(cli, op["argv"])
            else:
                dt, rc, payload, note = _run_lib(libops, oracle, name, op["inputs"])
            wall += dt
            if traced:
                tracer.end_op(len(payload) if op["kind"] == "cli" else 0)
            if inject.get(name) == "flip" and payload:
                payload = bytes([payload[0] ^ 1]) + payload[1:]
            elif inject.get(name) == "exit":
                rc = rc or 1
            digest = hashlib.sha256(payload).hexdigest()
            observed.setdefault(name, {"rc": rc, "sha256": digest})
            expect = op["expect"]
            attempted += 1
            if expect is None:
                status = "no recorded expectation"
                wrong += 1
            elif rc != expect["rc"]:
                status = f"exit {rc}, expected {expect['rc']}: {note}"
            elif digest != expect["sha256"]:
                status = "wrong output"
                wrong += 1
            else:
                continue
            failed += 1
            failures.setdefault(name, status)
        scaled = wall * REF_SLICE_S / (ref / len(ops))
        if traced:
            tracer.uninstall()
            snapshots.append(tracer.snapshot())
            traced_ref_walls.append(scaled)
        else:
            walls.append(wall)
            slices.append(ref / len(ops))
            ref_walls.append(scaled)
        now = time.perf_counter()
        done = len(walls) + len(traced_ref_walls) >= (2 if args.trace else 1)
        if done and now - start + (now - pass_start) > args.seconds:
            break

    result = {
        "walls": walls,
        "ref_walls": ref_walls,
        "traced_ref_walls": traced_ref_walls,
        "slices": slices,
        "snapshots": snapshots,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
