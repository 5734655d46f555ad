"""The generator: same seed, same bytes; other seed, other inputs, same
per-stratum counts."""

from collections import Counter
from itertools import islice
from math import prod

import pytest

import workloads
from nt import is_prime


def op_list(workload, seed, n_rounds=3, known_defects=False):
    stream = workloads.rounds(workload, seed, known_defects)
    return [op for ops in islice(stream, n_rounds) for op in ops]


def as_bytes(ops):
    return "\n".join(op.as_json() for op in ops).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("known_defects", [False, True])
def test_same_seed_same_bytes(workload, known_defects):
    assert as_bytes(op_list(workload, 7, known_defects=known_defects)) == \
        as_bytes(op_list(workload, 7, known_defects=known_defects))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_list_same_strata(workload):
    a, b = op_list(workload, 7), op_list(workload, 8)
    assert as_bytes(a) != as_bytes(b)
    assert Counter(op.stratum for op in a) == Counter(op.stratum for op in b)
    # every round, not just the total, carries the same counts
    rounds_a = islice(workloads.rounds(workload, 7), 3)
    counts = {tuple(sorted(Counter(op.stratum for op in ops).items())) for ops in rounds_a}
    assert len(counts) == 1


def test_shadow_degrees_never_repeat_and_factor_as_stated():
    ops = op_list("shadow", 3, n_rounds=10)
    degrees = [op.expect["d"] for op in ops]
    assert len(set(degrees)) == len(degrees)
    for op in ops:
        factors = op.expect["factors"]
        assert prod(p**e for p, e in factors) == op.expect["d"]
        assert all(is_prime(p) for p, _ in factors)
        assert len(factors) == int(op.stratum[1])  # w<omega>-<band>


def test_family_strata_sit_in_their_order_bands():
    bands = {"order-1e2": (10**2, 10**3), "order-1e3": (10**3, 10**4), "order-1e4": (10**4, 10**5),
             "order-1e5": (10**5, 10**6), "over-bound": (10**6, 3 * 10**6)}
    for op in op_list("family", 5, n_rounds=4, known_defects=True):
        c, d = op.expect["count"], op.expect["d"]
        band = bands.get(op.stratum.rsplit("-", 1)[0])
        if band:
            assert band[0] <= workloads.family_n(c, d) ** 2 < band[1]
        assert op.known_defect == op.stratum.startswith("over-bound")


def test_known_defect_strata_only_when_asked():
    for workload in workloads.WORKLOADS:
        assert not any(op.known_defect for op in op_list(workload, 1))
    shares = {w: sum(op.known_defect for op in op_list(w, 1, known_defects=True))
              for w in workloads.WORKLOADS}
    assert shares == {"shadow": 0, "family": 3, "oracle": 3}
