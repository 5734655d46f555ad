"""Failure accounting: failed ops rank slowest, the per-op limit stops pure
Python loops, and the known-defect strata fail at seed."""

import time
from itertools import islice

import run
import worker
import workloads


def sample(latencies_ms, failed_ms):
    ops = [{"failure": None, "latency_s": x / 1000} for x in latencies_ms]
    ops += [{"failure": "exit 1", "latency_s": x / 1000} for x in failed_ms]
    return ops


def test_failed_ops_rank_as_slowest():
    ops = sample(range(1, 9), [0.1, 0.2])  # fast failures must not pull p50 down
    assert run.percentile_ms(ops, 0.5, limit_s=10) == 5.0
    assert run.percentile_ms(ops, 0.8, limit_s=10) == 8.0
    assert run.percentile_ms(ops, 0.9, limit_s=10) == 10_000.0  # lands on a failure


def test_percentile_is_nearest_rank_over_100_samples():
    ops = sample(range(1, 101), [])
    assert run.percentile_ms(ops, 0.9, limit_s=1) == 90.0
    assert run.percentile_ms(ops, 0.5, limit_s=1) == 50.0


def test_run_stats_cover_every_op():
    ops = sample([100 + i for i in range(18)], [0.05])
    ops.append({"failure": None, "latency_s": 5.0})
    rate, p50, p90 = run.run_stats(ops, limit_s=10)
    assert rate == 19 / (sum(op["latency_s"] for op in ops))  # a failure costs time, not a success
    assert p50 == 109.0  # 10th of 20 ranks
    assert p90 == 117.0  # 18th of 20
    assert run.percentile_ms(ops, 0.95, limit_s=10) == 5000.0  # the slowest success
    assert run.percentile_ms(ops, 1.0, limit_s=10) == 10_000.0  # the fast failure ranks last


def test_limit_stops_a_pure_python_loop():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    value, reason = worker.call_with_limit(spin, 0.2)
    assert time.perf_counter() - start < 2
    assert value is None and reason == "timeout after 0.2 s"


def test_timeout_is_recorded_as_a_failure_with_its_reason(monkeypatch):
    def spin(op):
        while True:
            pass

    monkeypatch.setattr(worker, "execute", spin)
    op = workloads.WARMUP["oracle"]
    latency, out, reason, wrong = worker.run_op(op, 0.2)
    assert reason == "timeout after 0.2 s" and not wrong and out == ""
    assert 0.2 <= latency < 2


def test_traceback_is_a_failure_not_a_crash(monkeypatch):
    def boom(op):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(worker, "execute", boom)
    _, _, reason, wrong = worker.run_op(workloads.WARMUP["family"], 5)
    assert reason == "traceback: TypeError: unsupported operand" and not wrong


def test_family_round_fails_exactly_on_the_known_defect_stratum():
    ops = next(workloads.rounds("family", 1, known_defects=True))
    failures = {}
    for op in ops:
        _, _, reason, wrong = worker.run_op(op, worker.OP_LIMIT_S["family"])
        assert not wrong
        if reason:
            failures[op.stratum] = reason
    assert list(failures) == ["over-bound-k3"]
    assert failures["over-bound-k3"].startswith("exit 1 on a valid input: error: module order")


def test_19_digit_fm_count_is_stopped_by_the_limit():
    stream = workloads.rounds("oracle", 1, known_defects=True)
    defects = [op for ops in islice(stream, 2) for op in ops if op.known_defect]
    assert [op.stratum for op in defects] == ["fm-19digit"] * 2
    assert all(len(op.args[2]) == 19 for op in defects)
    _, _, reason, _ = worker.run_op(defects[0], 1.0)
    assert reason == "timeout after 1 s"
