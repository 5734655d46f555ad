"""Scaling to the reference speed: each op's latency by the kernel samples
nearest to it, set-up by the kernel run beside it."""

import run
import speed


def test_each_op_is_scaled_by_the_kernel_samples_nearest_to_it(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW", 2)
    ref = speed.REF_S
    result = {
        # the machine runs at the reference speed, then twice as slow
        "kernel_s": [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref],
        "ops": [{"kernel_at": 1, "latency_s": 0.1, "failure": None},
                {"kernel_at": 5, "latency_s": 0.1, "failure": None},
                {"kernel_at": 7, "latency_s": 0.3, "failure": "exit 1"}],
    }
    # samples [0:3], [3:7] and [5:7]
    ops = run.at_reference_speed(result)
    assert [op["latency_s"] for op in ops] == [0.1, 0.05, 0.15]
    assert [op["failure"] for op in ops] == [None, None, "exit 1"]
    assert result["ops"][1]["latency_s"] == 0.1  # the measured record is kept


def test_setup_probe_reports_wall_and_reference_time():
    [(wall, reference)] = run.setup_samples(1)
    assert 0 < wall < 10 and 0 < reference < 10
