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

from .binary import search_outcome
from .discriminant import discriminant_module
from .errors import BudgetExhaustedError, LatfmError
from .family import build_family, polarization_orbits_in_u
from .fmcount import fm_count_rho1_via_cosets, fm_count_rho1_with_p
from .lattices import Lattice, make_lattice
from .mukai import (
    class_representatives,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
)
from .oracle import SearchBudget
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


_encode_str = json.encoder.encode_basestring_ascii
# the JSON text of a scalar, by its exact type
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2) for dicts with str keys, lists, tuples,
    str, int, bool and None; TypeError for anything else.  `newline` is a
    newline and the indentation of `value`.  The stdlib's indented encoder
    is pure Python and costs about twice as much."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            items.append(scalar(item) if scalar is not None else _json_text(item, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALAR_TEXT.get(type(item))
            text = scalar(item) if scalar is not None else _json_text(item, inner)
            items.append(_encode_str(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # subclasses of str and int, as json.dumps writes them
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(out, payload):
    print(_json_text(payload), file=out)


def _cmd_fm_count(args, out) -> int:
    if (args.degree is None) == (args.range is None):
        raise UsageError("provide exactly one of --degree or --range")
    if args.degree is not None:
        ds = [_parse_degree(args.degree)]
    else:
        ds = [degree // 2 for degree in _parse_degree_range(args.range)]
    rows = []
    for d in ds:
        p, partners = fm_count_rho1_with_p(d)
        row = {"degree": 2 * d, "d": d, "p": p, "fm_partners": partners}
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
    witness = search_outcome(l1, l2, budget)
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


def _table_entry(parser: argparse.ArgumentParser, *, top: bool):
    """(options, fields, required) for a parser whose argv _read_argv can
    read, else None.  options maps each option string to (action, takes a
    value, type function), fields holds what parse_args sets before it reads
    an argument, and required lists the actions that must be given.  At the
    top level the one positional allowed is the subcommand; below it, none."""
    if (parser.prefix_chars != "-" or parser.fromfile_prefix_chars is not None
            or parser._mutually_exclusive_groups):
        return None
    options, fields, required = {}, {}, []
    for action in parser._actions:
        kind = type(action)
        if (kind is argparse._HelpAction
                or (top and kind is argparse._SubParsersAction)):
            pass  # not in options: argparse answers -h and --help
        elif (top or not action.option_strings
                or kind not in (argparse._StoreAction, argparse._StoreTrueAction)
                or (kind is argparse._StoreAction and action.nargs is not None)):
            return None
        else:
            takes_value = kind is argparse._StoreAction
            convert = action.type and parser._registry_get("type", action.type, action.type)
            for option in action.option_strings:
                options[option] = (action, takes_value, convert)
            if action.required:
                required.append(action)
        # parse_args would pass an unread str default through its type
        if isinstance(action.default, str) and action.type is not None:
            return None
        if argparse.SUPPRESS not in (action.dest, action.default):
            fields.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        fields.setdefault(dest, value)
    return options, fields, tuple(required)


@functools.lru_cache(maxsize=1)
def _argv_table() -> dict:
    """{subcommand: its _table_entry, fields as parse_args returns them when
    no option is given} for the parser of this process.  A subcommand with
    anything the table does not model (a positional, an nargs, a mutually
    exclusive group, an action other than store and store_true) is left
    out, so that its argv goes to argparse whole."""
    parser = _parser()
    top = _table_entry(parser, top=True)
    commands = [a for a in parser._actions if type(a) is argparse._SubParsersAction]
    if top is None or len(commands) != 1:
        return {}
    table = {}
    for name, sub in commands[0].choices.items():
        entry = _table_entry(sub, top=False)
        if entry is None:
            continue
        options, sub_fields, required = entry
        fields = dict(top[1])
        if commands[0].dest != argparse.SUPPRESS:
            fields[commands[0].dest] = name
        # parse_args copies every attribute of the subcommand over the top level's
        fields.update(sub_fields)
        table[name] = (options, fields, required)
    return table


def _read_argv(argv):
    """The Namespace _parser().parse_args(argv) returns, for a plain argv: a
    subcommand, then exact option strings, each valued one followed by a
    value that does not start with "-", and every required option.  A
    repeated option keeps its last value, as in argparse.  None for anything
    else (help, --opt=value, "--", negative numbers, unknown options, values
    that fail their type or choices, missing options): argparse reads those
    and reports the errors."""
    if not isinstance(argv, (list, tuple)) or not argv:
        return None
    entry = _argv_table().get(argv[0])
    if entry is None:
        return None
    options, fields, required = entry
    fields = dict(fields)
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        spec = options.get(argv[i])
        if spec is None:
            return None
        action, takes_value, convert = spec
        seen.add(action)
        if takes_value:
            i += 1
            if i == n:
                return None
            value = argv[i]
            if not isinstance(value, str) or value.startswith("-"):
                return None
            if convert:
                try:
                    value = convert(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        else:
            value = action.const
        fields[action.dest] = value
        i += 1
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**fields)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # Gram entries and invariant factors have any number of digits: lift
    # CPython's int/str conversion limit for the call, where it has one
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _read_argv(argv)
        if args is None:
            try:
                # argparse prints help and usage errors to sys.stdout/sys.stderr
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    args = _parser().parse_args(argv)
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
