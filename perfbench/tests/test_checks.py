"""The output checker accepts real outputs and flags corrupted ones."""

import json

import pytest

import checks
import worker
from workloads import Op


def output(op):
    code, out, _ = worker.execute(op)
    assert code == 0
    return out


SHADOW = Op("t", "shadow", ["mukai", "--degree", "60", "--shadow", "--json"],
            {"d": 30, "factors": [[2, 1], [3, 1], [5, 1]]})
FAMILY = Op("t", "family", ["family", "--count", "3", "--degree", "2", "--json"],
            {"count": 3, "d": 1, "ambient": "k3"})
FAMILY_AB = Op("t", "family", ["family", "--count", "2", "--degree", "4", "--json",
                               "--ambient", "abelian"],
               {"count": 2, "d": 2, "ambient": "abelian"})
FM_VERIFY = Op("t", "fm_verify", ["fm-count", "--degree", "420", "--verify", "--json"],
               {"d": 210, "omega": 4})
ISO_WITNESS = Op("t", "isometry", ["isometry", "--gram1", "[[2,5],[5,0]]",
                                   "--gram2", "[[12,5],[5,0]]", "--json"],
                 {"relation": "witness"})
ISO_SCREEN = Op("t", "isometry", ["isometry", "--gram1", "[[2,5],[5,0]]",
                                  "--gram2", "[[2,7],[7,0]]", "--json"],
                {"relation": "screen"})
GENUS = Op("t", "genus_sum", [[[60]], [[2, 0], [0, 2]]], {"total": 5})


@pytest.mark.parametrize("op", [SHADOW, FAMILY, FAMILY_AB, FM_VERIFY, ISO_WITNESS,
                                ISO_SCREEN, GENUS])
def test_real_outputs_pass(op):
    assert checks.check(op, output(op)) is None


def corrupt(op, edit):
    data = json.loads(output(op))
    edit(data)
    return json.dumps(data)


def set_path(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


CORRUPTIONS = [
    (SHADOW, set_path(["shadows", 2, "ns_square"], 62), "ns_square"),
    (SHADOW, set_path(["shadows", 0, "quotient", "det"], 1), "invariants"),
    (SHADOW, set_path(["shadows", 1, "quotient", "signature"], [19, 3]), "invariants"),
    (SHADOW, set_path(["shadows", 3, "quotient", "even"], False), "invariants"),
    (SHADOW, lambda d: d["vectors"].pop(), "vectors"),
    (SHADOW, lambda d: d["shadows"].pop(), "one shadow per vector"),
    (FAMILY, set_path(["witnesses", 0, "alpha"], 4), "not a witness"),
    (FAMILY, set_path(["witnesses", 2, "alpha"], 83), "not a witness"),
    (FAMILY, set_path(["n"], 89), "least prime"),
    (FAMILY, set_path(["attestations", 1, "ell"], 2), "attestation"),
    (FAMILY, set_path(["attestations", 0, "signature"], [1, 19]), "attestation"),
    (FAMILY, set_path(["attestations", 0, "disc_iso"], [[83]]), "not a unit"),
    (FAMILY, set_path(["certificates", 0, "d2"], 1 + 83), "certificate"),
    (FAMILY, lambda d: d["members"].pop(), "members"),
    (FAMILY_AB, set_path(["attestations", 0, "rank"], 20), "attestation"),
    (FM_VERIFY, set_path(["results", 0, "fm_partners_via_cosets"], 4), "!="),
    (FM_VERIFY, set_path(["results", 0, "p"], 3), "!="),
    (ISO_WITNESS, set_path(["matrix"], [[1, 0], [2, 1]]), "not an isometry"),
    (ISO_WITNESS, lambda d: d.update(isometric=False, reason="x"), "rejected by the invariant screen"),
]


@pytest.mark.parametrize("op, edit, needle", CORRUPTIONS)
def test_corrupted_outputs_are_flagged(op, edit, needle):
    reason = checks.check(op, corrupt(op, edit))
    assert reason is not None and needle in reason


def test_certificate_pair_called_isometric_is_flagged():
    op = Op("t", "isometry", ["isometry", "--gram1", "[[2,5],[5,0]]",
                              "--gram2", "[[2,5],[5,0]]", "--json"],
            {"relation": "certificate"})
    assert "reported isometric" in checks.check(op, output(op))


def test_wrong_genus_sum_and_garbage_are_flagged():
    assert "genus sum" in checks.check(GENUS, "4\n")
    assert "unparseable" in checks.check(SHADOW, "not json")
    assert "unparseable" in checks.check(FAMILY, "{}")


def test_budget_exit_is_right_only_without_a_known_witness():
    assert checks.budget_exit_ok(Op("t", "isometry", [], {"relation": "certificate"}))
    assert checks.budget_exit_ok(Op("t", "isometry", [], {"relation": "open"}))
    assert not checks.budget_exit_ok(ISO_WITNESS)
    assert not checks.budget_exit_ok(FM_VERIFY)
