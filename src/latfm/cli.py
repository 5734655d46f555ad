"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 budget exhausted.
Identical argv always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .discriminant import discriminant_module
from .errors import BudgetExhaustedError, LatfmError
from .family import build_family, polarization_orbits_in_u
from .fmcount import distinct_prime_count, fm_count_rho1, fm_count_rho1_via_cosets
from .lattices import Lattice, make_lattice
from .mukai import (
    class_representatives,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
)
from .oracle import SearchBudget, find_isometry_bounded
from .selfcheck import run_selftest

USAGE_ERROR = 2
DOMAIN_ERROR = 1
BUDGET_ERROR = 3
CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a pipe closed early


class UsageError(Exception):
    pass


def _parse_degree(value: str) -> int:
    """Geometric degree 2d -> d."""
    try:
        degree = int(value)
    except ValueError:
        raise UsageError(f"degree must be an integer, got {value!r}")
    if degree < 2 or degree % 2:
        raise UsageError(f"degree must be a positive even integer, got {degree}")
    return degree // 2


def _parse_degree_range(value: str) -> range:
    try:
        lo_text, hi_text = value.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"range must look like A..B, got {value!r}")
    if lo < 2 or hi < lo or lo % 2 or hi % 2:
        raise UsageError("range endpoints must be even integers with A <= B")
    return range(lo, hi + 1, 2)


def _parse_gram(text: str) -> Lattice:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"gram matrix is not valid JSON: {err}")
    if isinstance(data, dict):
        data = data.get("gram")
    if not isinstance(data, list):
        raise UsageError("expected a JSON matrix or a {\"rank\", \"gram\"} object")
    return make_lattice(data)


def _module_payload(module) -> dict:
    return {
        "factors": list(module.factors),
        "q": [str(x) for x in module.q] if module.q is not None else None,
        "b": [[str(x) for x in row] for row in module.b],
    }


def _lattice_payload(lattice: Lattice) -> dict:
    return {"rank": lattice.rank, "gram": [list(row) for row in lattice.gram]}


def _emit_json(out, payload):
    print(json.dumps(payload, indent=2), file=out)


def _cmd_fm_count(args, out) -> int:
    if (args.degree is None) == (args.range is None):
        raise UsageError("provide exactly one of --degree or --range")
    if args.degree is not None:
        ds = [_parse_degree(args.degree)]
    else:
        ds = [degree // 2 for degree in _parse_degree_range(args.range)]
    rows = []
    for d in ds:
        row = {"degree": 2 * d, "d": d, "p": distinct_prime_count(d),
               "fm_partners": fm_count_rho1(d)}
        if args.verify:
            row["fm_partners_via_cosets"] = fm_count_rho1_via_cosets(d)
            if row["fm_partners_via_cosets"] != row["fm_partners"]:
                raise LatfmError(f"count cross-check failed at d={d}")
        rows.append(row)
    if args.json:
        _emit_json(out, {"results": rows})
    else:
        for row in rows:
            line = (
                f"degree={row['degree']} d={row['d']} p={row['p']} "
                f"fm_partners={row['fm_partners']}"
            )
            if args.verify:
                line += f" via_cosets={row['fm_partners_via_cosets']}"
            print(line, file=out)
    return 0


def _cmd_disc(args, out) -> int:
    lattice = _parse_gram(args.gram)
    module = discriminant_module(lattice)
    payload = _module_payload(module)
    if args.json:
        _emit_json(out, payload)
    else:
        print(f"factors: {payload['factors']}", file=out)
        if payload["q"] is None:
            print("q: undefined (odd lattice)", file=out)
        else:
            print(f"q: {payload['q']}", file=out)
        print(f"b: {payload['b']}", file=out)
    return 0


def _cmd_mukai(args, out) -> int:
    d = _parse_degree(args.degree)
    vectors = enumerate_mukai_vectors(d)
    payload: dict = {
        "degree": 2 * d,
        "d": d,
        "vectors": [{"r": v.r, "s": v.s} for v in vectors],
    }
    if args.classes:
        payload["classes"] = [list(rep) for rep in class_representatives(vectors)]
    if args.shadow:
        shadows = []
        for v in vectors:
            shadow = moduli_lattice_shadow(v)
            shadows.append(
                {
                    "vector": {"r": v.r, "s": v.s},
                    "quotient": {
                        "rank": shadow.quotient.rank,
                        "det": shadow.quotient.det,
                        "even": shadow.quotient.is_even,
                        "signature": list(shadow.quotient.signature),
                    },
                    "ns_square": shadow.quotient.square(shadow.ns_generator),
                }
            )
        payload["shadows"] = shadows
    if args.json:
        _emit_json(out, payload)
    else:
        for v in vectors:
            print(f"v = ({v.r}, h, {v.s})", file=out)
        if args.classes:
            for rep in payload["classes"]:
                print(f"class {{{rep[0]}, {rep[1]}}}", file=out)
        if args.shadow:
            for entry in payload["shadows"]:
                q = entry["quotient"]
                print(
                    f"shadow ({entry['vector']['r']}, h, {entry['vector']['s']}): "
                    f"rank={q['rank']} det={q['det']} even={q['even']} "
                    f"signature=({q['signature'][0]}, {q['signature'][1]}) "
                    f"ns_square={entry['ns_square']}",
                    file=out,
                )
    return 0


def _cmd_family(args, out) -> int:
    d = _parse_degree(args.degree)
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    bundle = build_family(args.count, d, args.ambient)
    payload = {
        "n": bundle.n,
        "degree": bundle.degree,
        "ambient": bundle.ambient,
        "members": [
            {
                "d": m.d,
                "n": m.n,
                "lattice": _lattice_payload(m.lattice),
                "embedding": [list(v) for v in m.embedding.basis],
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
                "signature": list(a.signature),
                "ell": a.ell,
                "disc_iso": [list(row) for row in a.disc_iso.matrix],
            }
            for a in bundle.attestations
        ],
        "polarization": {"member": 1, "square": 2 * d, "vector": [1, 0]},
        "represents_zero": [
            {"d": m.d, "vector": list(m.represents_zero_vector)}
            for m in bundle.members
        ],
    }
    if args.json:
        _emit_json(out, payload)
    else:
        print(f"n = {bundle.n}", file=out)
        print(f"members: d = {[m.d for m in bundle.members]}", file=out)
        for w in bundle.witnesses:
            print(f"witness ({w.d1}, {w.d2}): alpha = {w.alpha}", file=out)
        for c in bundle.certificates:
            print(f"certificate ({c.d1}, {c.d2}) mod {c.n}", file=out)
        for a in bundle.attestations:
            print(
                f"attestation: rank={a.rank} "
                f"signature=({a.signature.plus}, {a.signature.minus}) ell={a.ell}",
                file=out,
            )
    return 0


def _cmd_isometry(args, out) -> int:
    l1 = _parse_gram(args.gram1)
    l2 = _parse_gram(args.gram2)
    for flag, value in (("--budget-entries", args.budget_entries),
                        ("--budget-nodes", args.budget_nodes)):
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer, got {value}")
    budget = SearchBudget(entry_bound=args.budget_entries, node_limit=args.budget_nodes)
    witness = find_isometry_bounded(l1, l2, budget)
    if witness is None:
        payload = {"isometric": False, "reason": "invariant mismatch"}
    else:
        payload = {"isometric": True, "matrix": [list(row) for row in witness.matrix]}
    if args.json:
        _emit_json(out, payload)
    elif witness is None:
        print("non-isometric (determinant, parity or signature differ)", file=out)
    else:
        print(f"isometric via {payload['matrix']}", file=out)
    return 0


def _cmd_orbits(args, out) -> int:
    d = _parse_degree(args.degree)
    report = polarization_orbits_in_u(d)
    payload = {
        "degree": 2 * d,
        "d": d,
        "count": report.count,
        "representatives": [list(rep) for rep in report.representatives],
        "orbits": [[list(v) for v in orbit] for orbit in report.orbits],
    }
    if args.json:
        _emit_json(out, payload)
    else:
        print(f"orbits: {report.count}", file=out)
        for rep, orbit in zip(report.representatives, report.orbits):
            members = " ".join(f"({a}, {b})" for a, b in orbit)
            print(f"  ({rep[0]}, {rep[1]}): {members}", file=out)
    return 0


def _cmd_selftest(args, out) -> int:
    if args.range_d < 1:
        raise UsageError(f"--range-d must be a positive integer, got {args.range_d}")
    results = run_selftest(args.range_d)
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name}", file=out)
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.detail}", file=out)
    print(
        f"{len(results) - failed}/{len(results)} checks passed",
        file=out,
    )
    return 0 if failed == 0 else DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfm",
        description=(
            "Exact lattice computations: discriminant forms, Fourier-Mukai "
            "partner counts, Mukai vectors and rank-2 Neron-Severi families."
        ),
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kwargs):
        return subparsers.add_parser(name, allow_abbrev=False, **kwargs)

    fm = sub_parser("fm-count", help="partner counts for Picard number 1")
    fm.add_argument("--degree", help="polarization degree 2d (even)")
    fm.add_argument("--range", help="degree range A..B (even endpoints)")
    fm.add_argument("--verify", action="store_true",
                    help="also run the double-coset machinery and compare")
    fm.add_argument("--json", action="store_true")
    fm.set_defaults(handler=_cmd_fm_count)

    disc = sub_parser("disc", help="discriminant module of a lattice")
    disc.add_argument("--gram", required=True,
                      help='Gram matrix as JSON, e.g. "[[2,3],[3,0]]"')
    disc.add_argument("--json", action="store_true")
    disc.set_defaults(handler=_cmd_disc)

    mukai = sub_parser("mukai", help="Mukai vectors for a polarization degree")
    mukai.add_argument("--degree", required=True)
    mukai.add_argument("--classes", action="store_true",
                       help="group vectors into swap classes")
    mukai.add_argument("--shadow", action="store_true",
                       help="compute the moduli lattice shadows")
    mukai.add_argument("--json", action="store_true")
    mukai.set_defaults(handler=_cmd_mukai)

    family = sub_parser("family", help="rank-2 same-genus family")
    family.add_argument("--count", type=int, required=True)
    family.add_argument("--degree", required=True)
    family.add_argument("--ambient", choices=("k3", "abelian"), default="k3")
    family.add_argument("--json", action="store_true")
    family.set_defaults(handler=_cmd_family)

    isometry = sub_parser("isometry", help="bounded isometry search")
    isometry.add_argument("--gram1", required=True)
    isometry.add_argument("--gram2", required=True)
    isometry.add_argument("--budget-entries", type=int, default=50)
    isometry.add_argument("--budget-nodes", type=int, default=10_000_000)
    isometry.add_argument("--json", action="store_true")
    isometry.set_defaults(handler=_cmd_isometry)

    orbits = sub_parser("orbits", help="polarization orbits in the hyperbolic plane")
    orbits.add_argument("--degree", required=True)
    orbits.add_argument("--json", action="store_true")
    orbits.set_defaults(handler=_cmd_orbits)

    selftest = sub_parser("selftest", help="run the invariant suite")
    selftest.add_argument("--range-d", type=int, default=200)
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parse_args keeps no state between calls,
    so one build serves every run."""
    return build_parser()


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _parser()
    # Gram entries and invariant factors have any number of digits: lift
    # CPython's int/str conversion limit for the call, where it has one
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            # argparse prints help and usage errors to sys.stdout/sys.stderr
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code else 0
        return args.handler(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return USAGE_ERROR
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=err)
        return BUDGET_ERROR
    except LatfmError as exc:
        print(f"error: {exc}", file=err)
        return DOMAIN_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(CLOSED_STDOUT)
    sys.exit(code)
