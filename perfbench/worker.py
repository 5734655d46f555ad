"""Runs one workload in this (fresh) interpreter and prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds T
        [--rounds R] [--min-ops K] [--trace] [--known-defects]

Ops go through latfm.cli.run(argv, out, err), except fm_count_genus_sum,
which has no CLI and is called through the library.  Each op is timed alone
and stopped at the workload's per-op limit; outputs are checked after the
op, outside its timing.  Whole rounds only, so the per-stratum counts are
exact.  The speed kernel (speed.py) runs between ops, outside their timing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Per-op limits in seconds, about ten times the slowest op a workload draws.
OP_LIMIT_S = {"shadow": 60.0, "family": 30.0, "oracle": 10.0}
# A run stops starting rounds at this point whatever --min-ops asks, so the
# whole benchmark ends inside its time allowance.
DEADLINE_S = 120.0


class OpTimeout(BaseException):
    """Raised inside an op by the per-op timer; BaseException so that no
    handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def call_with_limit(fn, limit_s: float):
    """fn() stopped after limit_s seconds of wall time (also inside a pure
    Python loop).  Returns (value, None) or (None, reason)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn(), None
    except OpTimeout:
        return None, f"timeout after {limit_s:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(op):
    """Run one op; returns (exit code, stdout text, stderr text)."""
    if op.kind == "genus_sum":
        from latfm.fmcount import fm_count_genus_sum
        from latfm.lattices import Lattice
        members = [Lattice(tuple(tuple(row) for row in gram)) for gram in op.args]
        return 0, f"{fm_count_genus_sum(members)}\n", ""
    import latfm.cli
    out, err = io.StringIO(), io.StringIO()
    code = latfm.cli.run(list(op.args), out, err)
    return code, out.getvalue(), err.getvalue()


def run_op(op, limit_s: float):
    """Returns (latency_s, stdout, failure reason or None, wrong answer?)."""
    start = perf_counter()
    try:
        result, timeout = call_with_limit(lambda: execute(op), limit_s)
    except Exception as exc:  # a traceback is a failure of this op, not of the run
        return perf_counter() - start, "", f"traceback: {type(exc).__name__}: {exc}", False
    latency = perf_counter() - start
    if timeout:
        return latency, "", timeout, False
    code, out, err = result
    if code == 0:
        reason = checks.check(op, out)
        return latency, out, reason and f"wrong answer: {reason}", reason is not None
    if code == checks.BUDGET_EXIT and checks.budget_exit_ok(op):
        return latency, out, None, False
    first = err.strip().splitlines()[0] if err.strip() else ""
    if code in (1, 2, 3):
        return latency, out, f"exit {code} on a valid input: {first}", False
    return latency, out, f"undocumented exit {code}: {first}", False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--known-defects", action="store_true")
    args = parser.parse_args(argv)

    import latfm.cli  # noqa: F401  (import before installing the tracer)

    limit = OP_LIMIT_S[args.workload]
    run_op(workloads.WARMUP[args.workload], limit)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer().install()

    ops = []
    kernel_s = []  # the speed kernel's times, taken between ops
    peak_rss_kb = None  # taken once the first --min-ops ops are done: fixed work
    digest = hashlib.sha256()
    stream = workloads.rounds(args.workload, args.seed, args.known_defects)
    begin = perf_counter()
    last_kernel = float("-inf")
    rounds_done = 0
    while True:
        elapsed = perf_counter() - begin
        if args.rounds:
            if rounds_done >= args.rounds:
                break
        elif rounds_done and (elapsed >= DEADLINE_S
                              or (elapsed >= args.seconds and len(ops) >= args.min_ops)):
            break
        for op in next(stream):
            if perf_counter() - last_kernel >= speed.EVERY_S:
                kernel_s.append(speed.time_kernel())
                last_kernel = perf_counter()
            if tracer:
                tracer.op_id = len(ops)
            latency, out, reason, wrong = run_op(op, limit)
            digest.update(out.encode())
            ops.append({"stratum": op.stratum, "latency_s": latency, "kernel_at": len(kernel_s),
                        "failure": reason, "wrong": wrong})
        rounds_done += 1
        if peak_rss_kb is None and len(ops) >= args.min_ops:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if peak_rss_kb is None:  # stopped by the deadline before --min-ops
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rounds": rounds_done,
        "ops": ops,
        "kernel_s": kernel_s,
        "op_limit_s": limit,
        "stdout_sha256": digest.hexdigest(),
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
