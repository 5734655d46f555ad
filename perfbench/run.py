"""latfm benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload {shadow,family,oracle} --seed N
        --seconds T --trace {0,1} [--known-defects]

--trace 0 measures the end-to-end metrics: the workload in a fresh worker
interpreter for at least T seconds and at least 100 ops, in whole rounds,
and setup_s from fresh interpreters started before and after it.  --trace 1
runs the workload for T/3 seconds untraced, then the same rounds traced,
each in a fresh worker, and reports the per-layer metrics and the tracing
overhead; no end-to-end number comes from a traced run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status is 0 when the run completed (whatever the
answers), 1 when a worker broke, 2 when there is no latfm source to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
SETUP_STARTS = 21
WORKER_TIMEOUT_S = 170

# Times `import latfm`, then the speed kernel five times in the same
# interpreter (after the import, so that the kernel's own `fractions` import
# is not taken out of latfm's).
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import latfm; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {HERE!r}); import speed; "
    "print(t, *(speed.time_kernel() for _ in range(5)))"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(starts: int, compile_first: bool = False) -> list[tuple[float, float]]:
    """(wall time, reference time) of `import latfm` in `starts` fresh
    interpreters; the reference time is scaled by the speed kernel run right
    after it.  With compile_first, one more start first writes the bytecode
    cache and is not counted."""
    samples = []
    for i in range(starts + compile_first):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        wall, *kernel = map(float, proc.stdout.split())
        if i or not compile_first:
            samples.append((wall, wall * speed.factor(kernel)))
    return samples


def run_worker(args, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.known_defects:
        cmd.append("--known-defects")
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(ops, q: float, limit_s: float) -> float:
    """Nearest-rank percentile of op latency.  Failed ops rank as slower
    than every success; a percentile that lands on one reads as the per-op
    limit, the latency every failure is taken to have missed."""
    ranked = sorted((op["failure"] is not None, op["latency_s"]) for op in ops)
    failed, latency = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return 1000 * (limit_s if failed else latency)


def speed_factors(result) -> list[float]:
    """Per op, the factor to the reference speed from the speed kernel's
    samples nearest in time: up to speed.WINDOW taken before the op and as
    many after it."""
    samples = result["kernel_s"]
    return [speed.factor(samples[max(0, op["kernel_at"] - speed.WINDOW):
                                 op["kernel_at"] + speed.WINDOW])
            for op in result["ops"]]


def at_reference_speed(result) -> list[dict]:
    """The run's ops with each latency scaled to the reference speed."""
    return [dict(op, latency_s=op["latency_s"] * factor)
            for op, factor in zip(result["ops"], speed_factors(result))]


def run_stats(ops, limit_s: float) -> tuple[float, float, float]:
    """(ops_per_s, op_p50_ms, op_p90_ms) over every op of the run: successful
    ops per second of op time, and the nearest-rank percentiles."""
    ok = sum(op["failure"] is None for op in ops)
    rate = ok / sum(op["latency_s"] for op in ops)
    return rate, percentile_ms(ops, 0.5, limit_s), percentile_ms(ops, 0.9, limit_s)


def end_to_end(args) -> tuple[dict, dict]:
    # Half the set-up starts before the workload and half after it, so that
    # a slow spell of the machine at one end does not set the median.
    before = setup_samples(SETUP_STARTS // 2, compile_first=True)
    result = run_worker(args, "--seconds", str(args.seconds), "--min-ops", str(MIN_OPS))
    setup = before + setup_samples(SETUP_STARTS - len(before))
    ops = at_reference_speed(result)
    failed = sum(op["failure"] is not None for op in ops)
    rate, p50, p90 = run_stats(ops, result["op_limit_s"])
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    wall_rate, wall_p50, wall_p90 = run_stats(result["ops"], result["op_limit_s"])
    factors = speed_factors(result)
    print(f"# {args.workload} seed={args.seed}: {len(ops)} ops in {result['rounds']} rounds of "
          f"{len(ops) // result['rounds']}, {sum(op['latency_s'] for op in result['ops']):.2f} s "
          f"of op time; percentiles over all {len(ops)} ops "
          f"({len(ops) - math.ceil(0.9 * len(ops))} beyond op_p90_ms); setup_s over "
          f"{len(setup)} starts")
    print(f"# wall time, unscaled: setup_s = {statistics.median(w for w, _ in setup):.6g} s, "
          f"ops_per_s = {wall_rate:.6g} 1/s, op_p50_ms = {wall_p50:.6g} ms, "
          f"op_p90_ms = {wall_p90:.6g} ms; speed factor per op "
          f"{min(factors):.3f} to {max(factors):.3f}")
    print(f"# fail_ratio = {failed / len(ops):.4f} ({failed}/{len(ops)})")
    return result, metrics


def traced(args) -> tuple[dict, dict]:
    # A third of the time untraced and the same rounds traced: no longer than
    # an untraced run.
    plain = run_worker(args, "--seconds", str(args.seconds / 3))
    result = run_worker(args, "--rounds", str(plain["rounds"]), "--trace")
    metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
    op_time = [sum(op["latency_s"] for op in at_reference_speed(r)) for r in (result, plain)]
    metrics["trace_overhead"] = (op_time[0] / op_time[1], "ratio")
    result["stdout_differs"] = result["stdout_sha256"] != plain["stdout_sha256"]
    print(f"# {args.workload} seed={args.seed}: traced {len(result['ops'])} ops in "
          f"{result['rounds']} rounds; stdout differs from the untraced run: "
          f"{result['stdout_differs']}")
    return result, metrics


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("shadow", "family", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-defects", action="store_true",
                        help="add the strata that fail at seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latfm", "__init__.py")):
        print(f"no latfm source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    result, metrics = (traced if args.trace else end_to_end)(args)
    ops = result["ops"]
    failures = Counter(f"{op['stratum']}: {op['failure']}" for op in ops if op["failure"])
    for reason, count in sorted(failures.items()):
        print(f"# failed x{count}  {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(op["wrong"] for op in ops) and not result.get("stdout_differs"),
        "attempted": len(ops),
        "failed": sum(op["failure"] is not None for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
