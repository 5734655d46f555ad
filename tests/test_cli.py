import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import family_grid

from latfm import cli
from latfm.arith import MR_LIMIT, prime_factorization
from latfm.binary import search_outcome
from latfm.cli import COMMANDS, run
from latfm.discriminant import ModuleIsometry, cyclic_module
from latfm.errors import BudgetExhaustedError
from latfm.family import FamilyBundle, GenusData, NikulinAttestation, build_family
from latfm.fmcount import fm_count_rho1_via_cosets, fm_count_rho1_with_p
from latfm.lattices import Lattice, make_lattice
from latfm.oracle import SearchBudget
import latfm.fmcount
import latfm.selfcheck
from latfm.selfcheck import CHECKS, run_selftest


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestFmCount:
    def test_single_degree(self):
        code, out, _ = invoke(["fm-count", "--degree", "420"])
        assert code == 0
        assert out.strip() == "degree=420 d=210 p=4 fm_partners=8"

    def test_verify_flag(self):
        code, out, _ = invoke(["fm-count", "--degree", "60", "--verify"])
        assert code == 0
        assert "via_cosets=4" in out

    def test_json(self):
        code, out, _ = invoke(["fm-count", "--degree", "30", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"] == [
            {"degree": 30, "d": 15, "p": 2, "fm_partners": 2}
        ]

    def test_range(self):
        code, out, _ = invoke(["fm-count", "--range", "2..8", "--json"])
        assert code == 0
        degrees = [row["degree"] for row in json.loads(out)["results"]]
        assert degrees == [2, 4, 6, 8]

    def test_odd_degree_is_usage_error(self):
        code, _, err = invoke(["fm-count", "--degree", "3"])
        assert code == 2
        assert "even" in err

    def test_degree_and_range_conflict(self):
        code, _, _ = invoke(["fm-count", "--degree", "4", "--range", "2..4"])
        assert code == 2

    def test_unknown_flag(self):
        code, _, _ = invoke(["fm-count", "--degre", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["fm-count", "--degree", "420"], 1),
            (["fm-count", "--degree", "420", "--verify", "--json"], 1),
            # d = 1 has no prime to find
            (["fm-count", "--range", "2..40", "--verify"], 19),
        ],
    )
    def test_one_factorization_per_row(self, monkeypatch, argv, rows):
        calls = []

        def counted(n):
            calls.append(n)
            return prime_factorization(n)

        monkeypatch.setattr(latfm.fmcount, "prime_factorization", counted)
        code, _, _ = invoke(argv)
        assert code == 0
        assert len(calls) == rows


class TestDisc:
    def test_family_gram(self):
        code, out, _ = invoke(["disc", "--gram", "[[2,3],[3,0]]", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"factors": [9], "q": ["16/9"], "b": [["7/9"]]}

    def test_rank_one(self):
        code, out, _ = invoke(["disc", "--gram", "[[12]]", "--json"])
        assert code == 0
        assert json.loads(out)["q"] == ["1/12"]

    def test_odd_lattice_q_null(self):
        code, out, _ = invoke(["disc", "--gram", "[[3]]", "--json"])
        assert code == 0
        assert json.loads(out)["q"] is None

    def test_lattice_object_form(self):
        code, out, _ = invoke(
            ["disc", "--gram", '{"rank": 1, "gram": [[4]]}', "--json"]
        )
        assert code == 0
        assert json.loads(out)["factors"] == [4]

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_matching_rank_answers_as_the_bare_matrix(self, flags):
        bare = invoke(["disc", "--gram", "[[2,3],[3,0]]"] + flags)
        assert bare[0] == 0
        for text in ('{"rank": 2, "gram": [[2,3],[3,0]]}', '{"gram": [[2,3],[3,0]]}'):
            assert invoke(["disc", "--gram", text] + flags) == bare

    @pytest.mark.parametrize(
        "text",
        ['{"rank": 5, "gram": [[2,3],[3,0]]}', '{"rank": true, "gram": [[4]]}',
         '{"rank": 2.0, "gram": [[2,3],[3,0]]}', '{"rank": null, "gram": [[4]]}'],
        ids=["mismatch", "true", "float", "null"],
    )
    def test_a_rank_other_than_the_row_count_is_usage_error(self, text):
        for argv in (["disc", "--gram", text],
                     ["isometry", "--gram1", "[[2]]", "--gram2", text]):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err.startswith('usage error: "rank" must be the number of rows')

    @pytest.mark.parametrize(
        "gram",
        ["[[2.5]]", '[["a"]]', "[[null]]", "[[[1]]]", "[[1e400]]", "[[true]]",
         "[[NaN]]", "[2]"],
    )
    def test_non_integer_gram_is_domain_error(self, gram):
        code, out, err = invoke(["disc", "--gram", gram])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_degenerate_is_domain_error(self):
        code, _, err = invoke(["disc", "--gram", "[[1,1],[1,1]]"])
        assert code == 1
        assert "error" in err

    # Integers past CPython's default int/str limit of 4300 digits.  The
    # expected text is spelled out digit by digit: converting these ints
    # here would hit the same limit.
    def test_entry_of_5000_digits(self):
        n = "9" * 5000
        saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = invoke(["disc", "--gram", f"[[{n}]]"])
        assert (code, err) == (0, "")
        assert out == f"factors: [{n}]\nq: undefined (odd lattice)\nb: [['1/{n}']]\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == saved

    def test_factor_of_5000_digits(self):
        # coprime a = 10^2500 - 1 and b = a - 1: A = Z/ab with b = (a + b)/ab
        a, b = "9" * 2500, "9" * 2499 + "8"
        ab = "9" * 2499 + "7" + "0" * 2499 + "2"
        a_plus_b = "1" + "9" * 2499 + "7"
        code, out, err = invoke(["disc", "--gram", f"[[{a},0],[0,{b}]]"])
        assert (code, err) == (0, "")
        assert out == (
            f"factors: [{ab}]\nq: undefined (odd lattice)\nb: [['{a_plus_b}/{ab}']]\n"
        )


class TestMukai:
    def test_classes(self):
        code, out, _ = invoke(["mukai", "--degree", "30", "--classes", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["vectors"] == [
            {"r": 1, "s": 15},
            {"r": 3, "s": 5},
            {"r": 5, "s": 3},
            {"r": 15, "s": 1},
        ]
        assert payload["classes"] == [[1, 15], [3, 5]]

    def test_shadow(self):
        code, out, _ = invoke(["mukai", "--degree", "4", "--shadow", "--json"])
        assert code == 0
        payload = json.loads(out)
        for entry in payload["shadows"]:
            assert entry["quotient"]["rank"] == 22
            assert entry["quotient"]["signature"] == [3, 19]
            assert entry["ns_square"] == 4

    def test_text_mode(self):
        code, out, _ = invoke(["mukai", "--degree", "30", "--classes"])
        assert code == 0
        assert "v = (1, h, 15)" in out
        assert "class {3, 5}" in out


def family_payload(bundle, d) -> dict:
    """The payload of `family --count N --degree 2d --json` as a dict, the
    oracle of the command's own JSON writer: its text is
    json.dumps(payload, indent=2)."""
    return {
        "n": bundle.n,
        "degree": bundle.degree,
        "ambient": bundle.ambient,
        "members": [
            {
                "d": m.d,
                "n": m.n,
                "lattice": {"rank": m.lattice.rank, "gram": m.lattice.gram},
                "embedding": m.embedding.basis,
            }
            for m in bundle.members
        ],
        "witnesses": [
            {"d1": w.d1, "d2": w.d2, "n": w.n, "alpha": w.alpha}
            for w in bundle.witnesses
        ],
        "certificates": [
            {"d1": c.d1, "d2": c.d2, "n": c.n} for c in bundle.certificates
        ],
        "attestations": [
            {
                "rank": a.rank,
                "signature": a.signature,
                "ell": a.ell,
                "disc_iso": a.disc_iso.matrix,
            }
            for a in bundle.attestations
        ],
        "polarization": {"member": 1, "square": 2 * d, "vector": [1, 0]},
        "represents_zero": [
            {"d": m.d, "vector": m.represents_zero_vector}
            for m in bundle.members
        ],
    }


class TestFamily:
    def test_json_is_json_dumps_of_the_payload(self):
        # every (count, d) the benchmark runs, and every count <= 6, d <= 40
        for count, d in family_grid():
            for ambient in ("k3", "abelian"):
                argv = ["family", "--count", str(count), "--degree", str(2 * d),
                        "--ambient", ambient, "--json"]
                payload = family_payload(build_family(count, d, ambient), d)
                assert invoke(argv) == (0, json.dumps(payload, indent=2) + "\n", ""), argv

    def test_bundle(self):
        code, out, _ = invoke(["family", "--count", "2", "--degree", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 17
        assert [m["d"] for m in payload["members"]] == [1, 4]
        assert payload["members"][0]["lattice"] == {"rank": 2, "gram": [[2, 17], [17, 0]]}
        assert payload["witnesses"] == [{"d1": 1, "d2": 4, "n": 17, "alpha": 2}]
        assert len(payload["certificates"]) == 1
        assert payload["attestations"][0]["rank"] == 20
        assert payload["attestations"][0]["signature"] == [2, 18]

    def test_abelian(self):
        code, out, _ = invoke(
            ["family", "--count", "2", "--degree", "2", "--ambient", "abelian",
             "--json"]
        )
        assert code == 0
        assert json.loads(out)["attestations"][0]["rank"] == 4


class TestIsometry:
    def test_witness(self):
        code, out, _ = invoke(
            ["isometry", "--gram1", "[[2,5],[5,0]]", "--gram2", "[[12,5],[5,0]]",
             "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["isometric"] is True

    def test_invariant_mismatch(self):
        code, out, _ = invoke(
            ["isometry", "--gram1", "[[2]]", "--gram2", "[[4]]", "--json"]
        )
        assert code == 0
        assert json.loads(out)["isometric"] is False

    def test_budget_exhaustion_exit_code(self):
        code, _, err = invoke(
            ["isometry", "--gram1", "[[2,17],[17,0]]", "--gram2", "[[8,17],[17,0]]",
             "--budget-entries", "12"]
        )
        assert code == 3
        assert "budget" in err

    def test_rank_three_witness(self):
        argv = ["isometry", "--gram1", "[[2,1,0],[1,2,1],[0,1,4]]",
                "--gram2", "[[2,1,1],[1,2,0],[1,0,4]]"]
        start = time.perf_counter()
        code, out, err = invoke(argv)
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (
            0, "isometric via [[-1, -1, 0], [0, 1, -1], [0, 0, 1]]\n", ""
        )
        assert elapsed < 2.0

    def test_rank_four_box_past_the_node_limit_is_reported_at_once(self):
        # the default box has 101^4 vectors, more than the default 10^7 nodes
        argv = ["isometry", "--gram1", "[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]",
                "--gram2", "[[0,1,0,0],[1,2,0,0],[0,0,0,1],[0,0,1,0]]"]
        start = time.perf_counter()
        code, out, err = invoke(argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert err == (
            "budget exhausted: node limit 10000000 reached without a decision\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "flag,value", [("--budget-entries", "0"), ("--budget-nodes", "-5")]
    )
    def test_nonpositive_budget_is_usage_error(self, flag, value):
        code, out, err = invoke(
            ["isometry", "--gram1", "[[2]]", "--gram2", "[[2]]", flag, value]
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: {flag} must be a positive integer, got {value}\n"


def fm_count_payload(ds, verify) -> dict:
    """The payload of `fm-count --json` over the ds as a dict, the oracle of
    the command's own JSON writer: its text is json.dumps(payload, indent=2)."""
    rows = []
    for d in ds:
        p, partners = fm_count_rho1_with_p(d)
        row = {"degree": 2 * d, "d": d, "p": p, "fm_partners": partners}
        if verify:
            row["fm_partners_via_cosets"] = fm_count_rho1_via_cosets(d)
        rows.append(row)
    return {"results": rows}


def isometry_stdout(g1, g2, entries):
    """json.dumps(payload, indent=2) + "\n" of the payload of `isometry
    --json` at --budget-entries `entries`, from the witness search_outcome
    gives; None where it exhausts the budget (exit 3, nothing on stdout)."""
    try:
        witness = search_outcome(make_lattice(g1), make_lattice(g2),
                                 SearchBudget(entry_bound=entries))
    except BudgetExhaustedError:
        return None
    if witness is None:
        payload = {"isometric": False, "reason": "invariant mismatch"}
    else:
        payload = {"isometric": True, "matrix": [list(row) for row in witness.matrix]}
    return json.dumps(payload, indent=2) + "\n"


def gram_arg(gram) -> str:
    return json.dumps(gram).replace(" ", "")


class TestWritersAgainstThePayload:
    """`fm-count --json` and `isometry --json` write fixed templates; their
    stdout is json.dumps(payload, indent=2) + "\n" of the payload dict.

    Grid: fm-count --degree 2..600 with and without --verify, --range with
    one row and with many, a 40-digit degree; isometry on every pair of
    [[2d, n], [n, 0]] with n in {5, 7, 11, 13}, 1 <= d1 <= 12 and
    1 <= d2 <= 51 (what the benchmark draws, and more), on every pair of
    [[a, b], [b, c]] of one determinant -n^2 with n <= 3 and |a|, |b|, |c| <= 3
    at --budget-entries 1, 3 and 50 (witnesses, mismatches of parity and
    exit-3 pairs), a 2x2 mismatch of determinants, and the rank-1 and rank-3
    witnesses and the rank-1 mismatch that the generic writer keeps."""

    @pytest.mark.parametrize("verify", [False, True])
    def test_fm_count_degrees(self, verify):
        flags = ["--verify"] if verify else []
        for degree in range(2, 601, 2):
            argv = ["fm-count", "--degree", str(degree), "--json"] + flags
            expected = json.dumps(fm_count_payload([degree // 2], verify), indent=2) + "\n"
            assert invoke(argv) == (0, expected, ""), argv

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("degrees", ["2..2", "600..600", "2..120", "1000..1200"])
    def test_fm_count_ranges(self, degrees, verify):
        lo, hi = map(int, degrees.split(".."))
        argv = ["fm-count", "--range", degrees] + (["--verify"] if verify else [])
        expected = fm_count_payload(range(lo // 2, hi // 2 + 1), verify)
        assert invoke(argv + ["--json"]) == (0, json.dumps(expected, indent=2) + "\n", "")
        # the text lines read the same rows
        lines = [f"degree={row['degree']} d={row['d']} p={row['p']} "
                 f"fm_partners={row['fm_partners']}"
                 + (f" via_cosets={row['fm_partners_via_cosets']}" if verify else "") + "\n"
                 for row in expected["results"]]
        assert invoke(argv) == (0, "".join(lines), "")

    @pytest.mark.parametrize("verify", [False, True])
    def test_fm_count_of_a_forty_digit_degree(self, verify):
        d = 10**39 // 2 * 3  # degree 3 * 10^39, of 40 digits
        argv = ["fm-count", "--degree", str(2 * d), "--json"] + (["--verify"] if verify else [])
        expected = json.dumps(fm_count_payload([d], verify), indent=2) + "\n"
        assert len(str(2 * d)) == 40
        assert invoke(argv) == (0, expected, "")

    @staticmethod
    def check_isometry(g1, g2, entries):
        argv = ["isometry", "--gram1", gram_arg(g1), "--gram2", gram_arg(g2),
                "--budget-entries", str(entries), "--json"]
        code, out, err = invoke(argv)
        expected = isometry_stdout(g1, g2, entries)
        if expected is None:
            assert (code, out) == (3, ""), argv
            assert err.startswith("budget exhausted: "), argv
        else:
            assert (code, out, err) == (0, expected, ""), argv
        return "exhausted" if expected is None else json.loads(expected)["isometric"]

    def test_family_pairs(self):
        seen = set()
        for n in (5, 7, 11, 13):
            for d1 in range(1, 13):
                for d2 in range(1, 52):
                    seen.add(self.check_isometry([[2 * d1, n], [n, 0]], [[2 * d2, n], [n, 0]], 50))
        assert seen == {True, "exhausted"}

    def test_small_forms_at_small_bounds(self):
        seen = set()
        for n in (1, 2, 3):
            forms = [[[a, b], [b, c]] for a in range(-3, 4) for b in range(-3, 4)
                     for c in range(-3, 4) if b * b - a * c == n * n]
            for g1 in forms:
                for g2 in forms:
                    for entries in (1, 3, 50):
                        seen.add(self.check_isometry(g1, g2, entries))
        assert seen == {True, False, "exhausted"}

    @pytest.mark.parametrize(
        "g1,g2,isometric",
        [
            ([[2, 5], [5, 0]], [[2, 7], [7, 0]], False),  # two determinants
            ([[2]], [[2]], True),
            ([[-6]], [[-6]], True),
            ([[2]], [[4]], False),
            ([[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[2, 1, 1], [1, 2, 0], [1, 0, 4]], True),
        ],
    )
    def test_other_shapes(self, g1, g2, isometric):
        assert self.check_isometry(g1, g2, 50) is isometric


class TestOrbits:
    def test_counts(self):
        code, out, _ = invoke(["orbits", "--degree", "30", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["representatives"] == [[1, 15], [3, 5]]


class TestFactorizationLimits:
    def test_nineteen_digit_prime_degree_is_fast_and_exact(self):
        start = time.perf_counter()
        code, out, err = invoke(["fm-count", "--degree", "2000000000000000006", "--json"])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        # recorded from the former trial division, which took 109 s
        assert json.loads(out)["results"] == [
            {"degree": 2000000000000000006, "d": 1000000000000000003,
             "p": 1, "fm_partners": 1}
        ]

    def test_nineteen_digit_two_three_p(self):
        degree = 2 * 3 * 300000000000000011  # a prime near 3e17
        code, out, _ = invoke(["fm-count", "--degree", str(degree)])
        assert code == 0 and len(str(degree)) == 19
        assert out == f"degree={degree} d={degree // 2} p=2 fm_partners=2\n"

    def test_power_of_two_times_three(self):
        code, out, _ = invoke(["fm-count", "--degree", str(2**90 * 3), "--json"])
        assert code == 0
        assert json.loads(out)["results"][0]["p"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fm-count", "--degree", str(2 * (2**89 - 1))],  # a Mersenne prime
            ["fm-count", "--degree", str(2 * MR_LIMIT)],  # a strong pseudoprime
            # least_prime_above(4e24) crosses MR_LIMIT
            ["family", "--count", "1", "--degree", "4000000000000"],
        ],
    )
    def test_probable_prime_past_the_limit_is_a_domain_error(self, argv):
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"MR_LIMIT = {MR_LIMIT}" in err

    def test_the_limit_error_reaches_the_shell_without_a_traceback(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", "from latfm.cli import main; main()",
             "fm-count", "--degree", str(2 * (2**89 - 1))],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: cannot prove ")
        assert "Traceback" not in proc.stderr


def test_a_closed_stdout_ends_quietly():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from latfm.cli import main; main()",
         "fm-count", "--range", "2..40000"],  # ten pipe buffers of output
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"degree=2 ")
    proc.stdout.close()  # as `| head -1` does
    try:
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
        proc.stderr.close()
    assert proc.returncode == cli.CLOSED_STDOUT == 141
    assert err == b""


def test_python_m_latfm_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "latfm", "fm-count", "--degree", "420"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "degree=420 d=210 p=4 fm_partners=8\n"


# sha256 of stdout, recorded with the trial-division factorization
PINNED_STDOUT = {
    ("fm-count", "--range", "2..2000", "--verify", "--json"):
        "b199a25da4745f5004d60525542508360049c0c4bf9352b5053ad42b2371955b",
    ("family", "--count", "5", "--degree", "2", "--json"):
        "1fdee411e97631f157c0e2e6ee7973f02f74e13584d2958a48f287fa02127603",
    # d = 999999937 is prime
    ("mukai", "--degree", "1999999874", "--shadow", "--json"):
        "c54554339a52b2b2336638b4960878480578abd95b6f9b98d20e4c439a4593e3",
    # d = 30030 = 2*3*5*7*11*13: 2^6 Mukai vectors, 2^5 U-orbits and swap classes
    ("orbits", "--degree", "60060", "--json"):
        "326ba300e69df59611b268e0314f3383e68c4cc950d4a9afbc574e3ebc76a596",
    ("mukai", "--degree", "60060", "--classes", "--json"):
        "3033725c6e081fbc3fecd18a445f5932dfb5eda337b04fd144e8e654d7d5417d",
    # recorded with Fraction-valued module forms: a multi-generator b table,
    # an odd module and trivial modules
    ("disc", "--gram", "[[4,2,0],[2,6,0],[0,0,12]]"):
        "4b8af458662e41be509516c021831562b5afa85eb329fc11b7e02878520424b0",
    ("disc", "--gram", "[[4,2,0],[2,6,0],[0,0,12]]", "--json"):
        "b272f072140fad82a37ddf2409ee8fdb51c168b208e946c0794a00e5a64056cf",
    ("disc", "--gram", "[[-8,-8],[-8,-6]]"):
        "f61ae0dade250567ccdd226d916d0d4773ef5337f076dd217d7f500811c6f7f1",
    ("disc", "--gram", "[[3,1],[1,3]]"):
        "334798486ce0e665f03852f0daae37f6dc8e26d5ed790cab772da1ae55c5ce96",
    ("disc", "--gram", "[[2,0],[0,2]]"):
        "ec73919f064cac68059dd6d37fb04d9d7cecde9411f3c6f584929c6b59a2f812",
    ("disc", "--gram", "[[0,1],[1,0]]"):
        "d529ba9054e668dc3d65d02146431881708d1a70dd3803bd5aac4c1162df2cb1",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_pinned_stdout(argv):
    code, out, err = invoke(list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


class TestParserReuse:
    ARGVS = [
        ["fm-count", "--degree", "420"],
        ["fm-count", "--degre", "4"],  # argparse usage error
        ["--help"],
        ["family", "--help"],
        ["disc", "--gram", "[[2,3],[3,0]]", "--json"],
        ["family", "--count", "0", "--degree", "2"],  # usage error of a handler
        ["fm-count", "--degree", "60", "--verify", "--json"],
        [],
    ]

    @staticmethod
    def run_captured(argv, capsys):
        # anything that bypassed the given streams is compared too
        code, out, err = invoke(argv)
        captured = capsys.readouterr()
        return code, out + captured.out, err + captured.err

    def test_usage_errors_and_help_go_to_the_given_streams(self, capsys):
        code, out, err = invoke(["bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: latfm ")
        assert "invalid choice: 'bogus'" in err
        code, out, err = invoke(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: latfm ")
        assert capsys.readouterr() == ("", "")


DETERMINISM_ARGVS = [
    ["fm-count", "--range", "2..40", "--json"],
    ["family", "--count", "2", "--degree", "2", "--json"],
    ["mukai", "--degree", "60", "--classes", "--json"],
    ["orbits", "--degree", "420", "--json"],
    # the second call of these reads the oracle's memos
    ["isometry", "--gram1", "[[2,5],[5,0]]", "--gram2", "[[12,5],[5,0]]",
     "--json"],
    ["isometry", "--gram1", "[[2,17],[17,0]]", "--gram2", "[[8,17],[17,0]]",
     "--budget-entries", "12", "--json"],
    ["fm-count", "--degree", "1021020", "--verify", "--json"],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_ARGVS)
    def test_byte_identical_output(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == (3 if "--budget-entries" in argv else 0)


class TestSelftest:
    def test_default_run_passes_quickly(self):
        import time

        start = time.perf_counter()
        code, out, _ = invoke(["selftest"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert f"{len(CHECKS)}/{len(CHECKS)} checks passed" in out
        assert elapsed < 60.0

    def test_reduced_run_passes(self):
        code, out, _ = invoke(["selftest", "--range-d", "12"])
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")
        assert len(lines) - 1 == len(CHECKS)

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_range_is_usage_error(self, value):
        code, out, err = invoke(["selftest", "--range-d", value])
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_corrupted_builtin_is_reported(self, monkeypatch):
        # replace U by an odd unimodular lattice: the builtin invariants fail
        monkeypatch.setattr(latfm.selfcheck, "U", Lattice(((1, 0), (0, -1))))
        results = run_selftest(5)
        by_name = {r.name: r for r in results}
        assert not by_name["builtin-lattice-invariants"].passed
        assert "U must" in by_name["builtin-lattice-invariants"].detail

    def test_complement_module_checked_field_for_field(self, monkeypatch):
        # the negated closed form is a module isometric to A(K), but in
        # other generator coordinates than the Smith form of -G gives
        real = latfm.selfcheck.complement_genus_data

        def negated(member, ambient):
            data = real(member, ambient)
            n = member.n
            module = cyclic_module(n * n, 2 * member.d, generator=(n, -2 * member.d))
            return GenusData(signature=data.signature, module=module)

        monkeypatch.setattr(latfm.selfcheck, "complement_genus_data", negated)
        by_name = {r.name: r for r in run_selftest(5)}
        assert not by_name["rank2-closed-form-vs-snf"].passed
        assert by_name["rank2-closed-form-vs-snf"].detail.startswith("complement module of (")

    def test_family_attestations_checked_against_the_search(self, monkeypatch):
        # g_i -> -alpha g_j is an isometry too, but not the least root that
        # the module search returns
        real = latfm.selfcheck.build_family

        def other_root(count, d, ambient):
            bundle = real(count, d, ambient)
            flipped = tuple(
                NikulinAttestation(a.rank, a.signature, a.ell, ModuleIsometry(
                    a.disc_iso.source, a.disc_iso.target, ((-a.disc_iso.matrix[0][0],),)))
                for a in bundle.attestations
            )
            return FamilyBundle(bundle.n, bundle.degree, bundle.ambient, bundle.members,
                                bundle.witnesses, bundle.certificates, flipped)

        monkeypatch.setattr(latfm.selfcheck, "build_family", other_root)
        by_name = {r.name: r for r in run_selftest(5)}
        assert not by_name["family-pipeline"].passed
        assert by_name["family-pipeline"].detail.startswith("attestation isometry of pair (1, 2)")

    @pytest.mark.parametrize(
        "name,corrupt,detail",
        [
            # the lane on the swapped pair gives B^-1 where the search gives B
            ("search_outcome",
             lambda real: lambda l1, l2, budget: real(l2, l1, budget),
             "exact lane and bounded search disagree at ("),
            ("isometries", lambda real: lambda g1, g2: real(g1, g2)[:0],
             "exact isometries of ("),
        ],
        ids=["lane", "candidates"],
    )
    def test_exact_lane_checked_against_the_search(self, monkeypatch, name, corrupt, detail):
        monkeypatch.setattr(latfm.selfcheck, name, corrupt(getattr(latfm.selfcheck, name)))
        by_name = {r.name: r for r in run_selftest(5)}
        assert not by_name["rank2-necessity-grid"].passed
        assert by_name["rank2-necessity-grid"].detail.startswith(detail)

    def test_corrupted_builtin_fails_the_command(self, monkeypatch):
        monkeypatch.setattr(latfm.selfcheck, "U", Lattice(((1, 0), (0, -1))))
        code, out, _ = invoke(["selftest", "--range-d", "5"])
        assert code == 1
        assert "FAIL builtin-lattice-invariants: U must" in out


# Values per option of each subcommand for the argv grid (None: a flag).
# Each pool mixes valid values with ones argparse or a handler rejects;
# values are small so that the valid argvs run fast.
GRID_VALUES = {
    "fm-count": {"--degree": ["4", "420", "3", "x", "", "-4"],
                 "--range": ["2..8", "8..2", "2..x"], "--verify": None, "--json": None},
    "disc": {"--gram": ["[[2,1],[1,2]]", "[[3]]", "[[1,1],[1,1]]", "[2]"],
             "--json": None},
    "mukai": {"--degree": ["2", "4", "7", "-2"], "--classes": None, "--shadow": None,
              "--json": None},
    "family": {"--count": ["1", "2", "0", "x", "2.0", " 2"], "--degree": ["2", "4", "3"],
               "--ambient": ["k3", "abelian", "K3", "torus"], "--json": None},
    "isometry": {"--gram1": ["[[2,5],[5,0]]", "[[2,1],[1,2]]", "[[2]]"],
                 "--gram2": ["[[12,5],[5,0]]", "[[2,1],[1,2]]", "[[4]]"],
                 "--budget-entries": ["3", "0", "x"], "--budget-nodes": ["1000", "1e3"],
                 "--json": None},
    "orbits": {"--degree": ["12", "60", "7"], "--json": None},
    "selftest": {"--range-d": ["1", "0", "x", ""]},
}
MUTATIONS = (None,) * 7 + ("=", "repeat", "--", "-1", "unknown", "-h", "no-value")


def grid_argvs(seed: int = 16, per_command: int = 24) -> list:
    """A seeded grid of argvs per subcommand: a random subset of its options
    (so that required ones go missing), in random order, then at most one
    change that takes the argv off the plain form."""
    rng = random.Random(seed)
    argvs = []
    for command, pool in GRID_VALUES.items():
        for _ in range(per_command):
            # a bare selftest runs the default range, which takes seconds
            options = [option for option in sorted(pool)
                       if command == "selftest" or rng.random() < 0.75]
            rng.shuffle(options)
            pairs = []
            for option in options:
                pairs.append([option] if pool[option] is None
                             else [option, rng.choice(pool[option])])
            mutation = rng.choice(MUTATIONS)
            valued = [pair for pair in pairs if len(pair) == 2]
            if mutation == "=" and valued:
                pair = rng.choice(valued)
                pair[:] = ["=".join(pair)]
            elif mutation == "repeat" and pairs:
                pairs.insert(rng.randint(0, len(pairs)), list(rng.choice(pairs)))
            elif mutation == "-1" and valued:
                rng.choice(valued)[1] = "-1"
            elif mutation == "no-value" and valued:
                del rng.choice(valued)[1]
            elif mutation in ("--", "unknown", "-h"):
                token = {"--": "--", "-h": rng.choice(["-h", "--help"]),
                         "unknown": rng.choice(["--bogus", "--degre", "-x"])}[mutation]
                pairs.insert(rng.randint(0, len(pairs)), [token])
            argvs.append([command] + [token for pair in pairs for token in pair])
    return argvs


class TestArgvTable:
    """A plain argv is read straight from cli.COMMANDS; everything else goes
    to the argparse parser built from it, with the same answer either way."""

    GRID = grid_argvs()
    CHEAP = GRID + TestParserReuse.ARGVS + DETERMINISM_ARGVS

    def test_the_table_reads_what_argparse_reads(self):
        parser = cli.build_parser()
        argvs = self.CHEAP + [list(argv) for argv in PINNED_STDOUT]
        read = 0
        for argv in argvs:
            namespace = cli._read_argv(argv)
            if namespace is not None:
                read += 1
                assert namespace == parser.parse_args(argv), argv
        # neither path is vacuous: the grid has both kinds of argv
        assert 0.2 * len(argvs) < read < 0.8 * len(argvs)

    def test_the_grid_has_each_case(self):
        tokens = {token for argv in self.GRID for token in argv}
        assert {"--", "-1", "-h", "--help", "--bogus", "x", "torus"} <= tokens
        assert any("=" in token for token in tokens)
        assert any(len(argv) > len(set(argv)) for argv in self.GRID)

    def test_run_answers_alike_with_and_without_the_table(self, monkeypatch, capsys):
        # PINNED_STDOUT's argvs are slow; their pins were recorded through argparse
        with_table = [TestParserReuse.run_captured(argv, capsys) for argv in self.CHEAP]
        monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
        assert [TestParserReuse.run_captured(argv, capsys)
                for argv in self.CHEAP] == with_table
        assert {code for code, _, _ in with_table} == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "argv",
        [
            ["fm-count", "--degree", "420", "--json"],
            ["fm-count", "--degree", "420", "--verify", "--json"],
            ["isometry", "--gram1", "[[2,5],[5,0]]", "--gram2", "[[12,5],[5,0]]",
             "--json"],
            ["family", "--count", "2", "--degree", "4", "--json"],
            ["family", "--count", "2", "--degree", "4", "--ambient", "abelian",
             "--json"],
            ["mukai", "--degree", "4", "--shadow", "--json"],
        ],
    )
    def test_the_benchmarked_shapes_bypass_argparse(self, monkeypatch, argv):
        # a later edit to build_parser must not send this traffic to argparse
        def refuse(*args, **kwargs):
            raise AssertionError("parse_args called")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("{")

    def test_the_reader_models_every_declared_option(self):
        # _read_argv reads a store_true flag or a store of one value, with
        # at most a type, choices, a default and required; anything else
        # declared in COMMANDS would be read wrong
        names = [name for name, _, _, _ in COMMANDS]
        assert len(set(names)) == len(names)
        for name, help_text, handler, options in COMMANDS:
            assert isinstance(help_text, str) and callable(handler)
            flags = [flag for flag, _ in options]
            assert len(set(flags)) == len(flags), name
            for flag, kwargs in options:
                assert flag.startswith("--") and flag[2:3].isalpha(), (name, flag)
                assert kwargs.get("action", "store") in ("store", "store_true"), (name, flag)
                allowed = {"action", "help", "required", "default"}
                if kwargs.get("action") != "store_true":
                    allowed |= {"type", "choices"}
                assert set(kwargs) <= allowed, (name, flag)
                convert = kwargs.get("type")
                if convert is not None:
                    assert callable(convert), (name, flag)
                    # parse_args would pass a str default through its type
                    assert not isinstance(kwargs.get("default"), str), (name, flag)

    def test_no_private_argparse_name_in_the_cli(self):
        private = re.compile(r"argparse\._|\._actions|_registry_get|parser\._defaults"
                             r"|_mutually_exclusive_groups|prefix_chars")
        text = Path(cli.__file__).read_text()
        assert [line for line in text.splitlines() if private.search(line)] == []

    def test_nothing_is_built_at_import(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        # every ArgumentParser, subcommand parsers included, runs this __init__
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import latfm.cli\n"
            "print(len(built))\n"
            "latfm.cli.build_parser()\n"
            "print(len(built) > 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\nTrue\n", "")


@contextlib.contextmanager
def unlimited_int_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


JSON_TEXTS = ["", "plain", 'quote " and \\ back', "tab\tnew\nline\r\b\f", "\x00\x1f\x7f",
              "é", "Zürich €", "  ", "😀", "\ud800", "/</script>"]


def random_payload(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return rng.choice(JSON_TEXTS) + rng.choice(JSON_TEXTS)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(2**70), 2**64 + 1])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4, 5):
        return rng.choice([[], {}, (), [[]], {"": {}}, [(), {}]])
    items = [random_payload(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {rng.choice(JSON_TEXTS) + str(i): item for i, item in enumerate(items)}


class StrSubclass(str):
    pass


class IntSubclass(int):
    pass


class TestJsonWriter:
    @staticmethod
    def emitted(payload) -> str:
        out = io.StringIO()
        cli._emit_json(out, payload)
        return out.getvalue()

    def test_random_payloads_match_json_dumps(self):
        rng = random.Random(16)
        payloads = [random_payload(rng, 4) for _ in range(400)]
        payloads += [{"results": list(payloads)}, payloads[:5] + [-3, "x"]]
        assert {type(p) for p in payloads} >= {str, int, bool, list, tuple, dict}
        for payload in payloads:
            assert self.emitted(payload) == json.dumps(payload, indent=2) + "\n"

    def test_an_int_of_5000_digits(self):
        n = -(10**5000 - 1)
        with unlimited_int_digits():
            payload = {"gram": [[n, 1], [1, 0]]}
            assert self.emitted(payload) == json.dumps(payload, indent=2) + "\n"

    def test_int_rows_match_json_dumps(self):
        # rows of ints next to bools, None, big and negative ints and empty
        # lists: what a faster path for int rows would have to tell apart
        big = 10**39 + 7  # 40 digits
        rows = [[1, True], [True, 1], [0, False, None], [-3, 0, 5], [big, -big],
                (1, 2), [], [[]], [[], []], [[1, 2], [], [-1]], [[[]], [0]]]
        for payload in rows + [{"gram": rows}, {"rows": [[big], [-big, 1]]}]:
            assert self.emitted(payload) == json.dumps(payload, indent=2) + "\n"
        assert self.emitted([1, True]) == "[\n  1,\n  true\n]\n"

    @pytest.mark.parametrize("row", [[1, IntSubclass(2)], [IntSubclass(1), 2],
                                     [[0, 1], [IntSubclass(1), 0]]])
    def test_an_int_subclass_in_a_row_raises_type_error(self, row):
        with pytest.raises(TypeError):
            self.emitted(row)

    @pytest.mark.parametrize("payload", [1.5, {"a": [0.5]}, [float("nan")], {1: 2},
                                         {"a": {3}}, b"x", StrSubclass("sub"),
                                         [IntSubclass(1)], {"a": StrSubclass("")}])
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            self.emitted(payload)
