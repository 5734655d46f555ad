"""Command-line front end.

Each subcommand and its options are declared once, in COMMANDS: the
argparse parser is built from it, and a plain argv is read from it without
argparse.  Exit codes: 0 success, 1 domain error, 2 usage error, 3 budget
exhausted.  Identical argv always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
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
    fields = data if isinstance(data, dict) else {"gram": data}
    gram = fields.get("gram")
    if not isinstance(gram, list):
        raise UsageError("expected a JSON matrix or a {\"rank\", \"gram\"} object")
    rank = fields.get("rank", len(gram))
    if type(rank) is not int or rank != len(gram):
        raise UsageError(f"\"rank\" must be the number of rows of \"gram\", {len(gram)}")
    return make_lattice(gram)


def _module_payload(module) -> dict:
    return {
        "factors": list(module.factors),
        "q": [str(x) for x in module.q] if module.q is not None else None,
        "b": [[str(x) for x in row] for row in module.b],
    }


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
    str, int, bool and None; TypeError for anything else, subclasses of str
    and int included.  `newline` is a newline and the indentation of
    `value`.  The stdlib's indented encoder is pure Python and costs about
    twice as much.  disc, mukai and orbits write their JSON through it, and
    isometry its rank-1 and rank >= 3 witnesses; family, fm-count and the
    rest of isometry fill fixed templates."""
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
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(out, payload):
    print(_json_text(payload), file=out)


def _items(texts) -> str:
    """A top-level array of objects, each written at indentation 4."""
    return "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"


def _int_template(shape, newline: str) -> str:
    """The %d template of json.dumps(indent=2) for an int array of the given
    nonempty shape, written at indentation `newline`."""
    inner = newline + "  "
    item = "%d" if len(shape) == 1 else _int_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


# the family command's JSON schema, as json.dumps(payload, indent=2) writes
# it: the whole text, then one template of fixed shape per array item
_FAMILY = (
    '{\n  "n": %d,\n  "degree": %d,\n  "ambient": %s,\n  "members": %s,\n'
    '  "witnesses": %s,\n  "certificates": %s,\n  "attestations": %s,\n'
    '  "polarization": {\n    "member": 1,\n    "square": %d,\n'
    '    "vector": [\n      1,\n      0\n    ]\n  },\n  "represents_zero": %s\n}'
)
_MEMBER = (
    '{\n      "d": %d,\n      "n": %d,\n      "lattice": {\n        "rank": %d,\n'
    '        "gram": ' + _int_template((2, 2), "\n        ") + '\n      },\n'
    '      "embedding": ' + _int_template((2, 4), "\n      ") + '\n    }'
)
_WITNESS = '{\n      "d1": %d,\n      "d2": %d,\n      "n": %d,\n      "alpha": %d\n    }'
_CERTIFICATE = '{\n      "d1": %d,\n      "d2": %d,\n      "n": %d\n    }'
_ATTESTATION = (
    '{\n      "rank": %d,\n      "signature": ' + _int_template((2,), "\n      ")
    + ',\n      "ell": %d,\n      "disc_iso": ' + _int_template((1, 1), "\n      ")
    + '\n    }'
)
_ZERO = '{\n      "d": %d,\n      "vector": ' + _int_template((2,), "\n      ") + '\n    }'


def _family_json(bundle) -> str:
    """json.dumps(payload, indent=2) of the family payload, written straight
    from the bundle into the templates above.  Every %d slot reads a field
    whose constructor refuses anything but an int (bool included), so no
    float is ever printed as an int; a member or attestation of another
    shape raises ValueError or TypeError."""
    members = []
    zeros = []
    for m in bundle.members:
        (g0, g1), (b0, b1) = m.lattice.gram, m.embedding.basis
        members.append(_MEMBER % (m.d, m.n, m.lattice.rank, *g0, *g1, *b0, *b1))
        zeros.append(_ZERO % (m.d, *m.represents_zero_vector))
    witnesses = [_WITNESS % (w.d1, w.d2, w.n, w.alpha) for w in bundle.witnesses]
    certificates = [_CERTIFICATE % (c.d1, c.d2, c.n) for c in bundle.certificates]
    attestations = []
    for a in bundle.attestations:
        ((alpha,),) = a.disc_iso.matrix
        attestations.append(_ATTESTATION % (a.rank, *a.signature, a.ell, alpha))
    return _FAMILY % (
        bundle.n, bundle.degree, _encode_str(bundle.ambient),
        _items(members), _items(witnesses), _items(certificates),
        _items(attestations), bundle.degree, _items(zeros),
    )


# the fm-count command's JSON schema: the whole text, then one template per
# row, without and with --verify
_FM_COUNT = '{\n  "results": %s\n}'
_FM_ROW = (
    '{\n      "degree": %d,\n      "d": %d,\n      "p": %d,\n'
    '      "fm_partners": %d\n    }'
)
_FM_VERIFIED_ROW = (
    '{\n      "degree": %d,\n      "d": %d,\n      "p": %d,\n'
    '      "fm_partners": %d,\n      "fm_partners_via_cosets": %d\n    }'
)


def _cmd_fm_count(args, out) -> int:
    if (args.degree is None) == (args.range is None):
        raise UsageError("provide exactly one of --degree or --range")
    if args.degree is not None:
        ds = [_parse_degree(args.degree)]
    else:
        ds = [degree // 2 for degree in _parse_degree_range(args.range)]
    # (degree, d, p, fm_partners[, fm_partners_via_cosets]), each an int
    rows = []
    for d in ds:
        p, partners = fm_count_rho1_with_p(d)
        if args.verify:
            via_cosets = fm_count_rho1_via_cosets(d)
            if via_cosets != partners:
                raise LatfmError(f"count cross-check failed at d={d}")
            rows.append((2 * d, d, p, partners, via_cosets))
        else:
            rows.append((2 * d, d, p, partners))
    if args.json:
        row_template = _FM_VERIFIED_ROW if args.verify else _FM_ROW
        print(_FM_COUNT % _items([row_template % row for row in rows]), file=out)
    else:
        for degree, d, p, partners, *via_cosets in rows:
            line = f"degree={degree} d={d} p={p} fm_partners={partners}"
            if via_cosets:
                line += f" via_cosets={via_cosets[0]}"
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
    if args.json:
        print(_family_json(bundle), file=out)
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


# the isometry command's JSON for an invariant mismatch, and for a rank-2
# witness, whose entries the search and latfm.binary compute as ints
_NOT_ISOMETRIC = '{\n  "isometric": false,\n  "reason": "invariant mismatch"\n}'
_ISOMETRIC_2 = (
    '{\n  "isometric": true,\n  "matrix": ' + _int_template((2, 2), "\n  ") + '\n}'
)


def _cmd_isometry(args, out) -> int:
    l1 = _parse_gram(args.gram1)
    l2 = _parse_gram(args.gram2)
    for flag, value in (("--budget-entries", args.budget_entries),
                        ("--budget-nodes", args.budget_nodes)):
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer, got {value}")
    budget = SearchBudget(entry_bound=args.budget_entries, node_limit=args.budget_nodes)
    witness = search_outcome(l1, l2, budget)
    if not args.json:
        if witness is None:
            print("non-isometric (determinant, parity or signature differ)", file=out)
        else:
            print(f"isometric via {[list(row) for row in witness.matrix]}", file=out)
    elif witness is None:
        print(_NOT_ISOMETRIC, file=out)
    elif len(witness.matrix) == 2:
        (e, f), (g, h) = witness.matrix
        print(_ISOMETRIC_2 % (e, f, g, h), file=out)
    else:
        _emit_json(out, {"isometric": True, "matrix": [list(row) for row in witness.matrix]})
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
    # imported here, so that no other command loads the check suite
    from .selfcheck import run_selftest

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


# (name, help, handler, options), each option a (flag, add_argument keyword
# arguments) pair in the order of the help.  _read_argv models an option
# with "action": "store_true", or a store of one value, and only the keys
# "type", "choices", "default", "required" and "help".
COMMANDS = (
    ("fm-count", "partner counts for Picard number 1", _cmd_fm_count, (
        ("--degree", {"help": "polarization degree 2d (even)"}),
        ("--range", {"help": "degree range A..B (even endpoints)"}),
        ("--verify", {"action": "store_true",
                      "help": "also run the double-coset machinery and compare"}),
        ("--json", {"action": "store_true"}),
    )),
    ("disc", "discriminant module of a lattice", _cmd_disc, (
        ("--gram", {"required": True,
                    "help": 'Gram matrix as JSON, e.g. "[[2,3],[3,0]]"'}),
        ("--json", {"action": "store_true"}),
    )),
    ("mukai", "Mukai vectors for a polarization degree", _cmd_mukai, (
        ("--degree", {"required": True}),
        ("--classes", {"action": "store_true", "help": "group vectors into swap classes"}),
        ("--shadow", {"action": "store_true", "help": "compute the moduli lattice shadows"}),
        ("--json", {"action": "store_true"}),
    )),
    ("family", "rank-2 same-genus family", _cmd_family, (
        ("--count", {"type": int, "required": True}),
        ("--degree", {"required": True}),
        ("--ambient", {"choices": ("k3", "abelian"), "default": "k3"}),
        ("--json", {"action": "store_true"}),
    )),
    ("isometry", "bounded isometry search", _cmd_isometry, (
        ("--gram1", {"required": True}),
        ("--gram2", {"required": True}),
        ("--budget-entries", {"type": int, "default": 50}),
        ("--budget-nodes", {"type": int, "default": 10_000_000}),
        ("--json", {"action": "store_true"}),
    )),
    ("orbits", "polarization orbits in the hyperbolic plane", _cmd_orbits, (
        ("--degree", {"required": True}),
        ("--json", {"action": "store_true"}),
    )),
    ("selftest", "run the invariant suite", _cmd_selftest, (
        ("--range-d", {"type": int, "default": 200}),
    )),
)


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
    for name, help_text, handler, options in COMMANDS:
        sub = subparsers.add_parser(name, allow_abbrev=False, help=help_text)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def _reader_entry(name, handler, options):
    """(flags, fields, required) of one COMMANDS entry for _read_argv: flags
    maps each flag to (dest, takes a value, type, choices), fields is the
    Namespace content of the bare subcommand, and required holds the flags
    that must be given."""
    flags, fields, required = {}, {"command": name}, set()
    for flag, kwargs in options:
        dest = flag[2:].replace("-", "_")  # as argparse derives it
        takes_value = kwargs.get("action") != "store_true"
        flags[flag] = (dest, takes_value, kwargs.get("type"), kwargs.get("choices"))
        fields[dest] = kwargs.get("default", None if takes_value else False)
        if kwargs.get("required"):
            required.add(flag)
    fields["handler"] = handler
    return flags, fields, required


_READER = {name: _reader_entry(name, handler, options)
           for name, _, handler, options in COMMANDS}


def _read_argv(argv):
    """The Namespace build_parser().parse_args(argv) returns, for a plain
    argv: a subcommand, then exact option strings, each valued one followed
    by a value that does not start with "-", and every required option.  A
    repeated option keeps its last value, as in argparse.  None for anything
    else (help, --opt=value, "--", negative numbers, unknown options, values
    that fail their type or choices, missing options): argparse reads those
    and reports the errors."""
    if not isinstance(argv, (list, tuple)) or not argv:
        return None
    entry = _READER.get(argv[0])
    if entry is None:
        return None
    flags, fields, required = entry
    fields = dict(fields)
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        flag = argv[i]
        spec = flags.get(flag)
        if spec is None:
            return None
        dest, takes_value, convert, choices = spec
        seen.add(flag)
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
            if choices is not None and value not in choices:
                return None
        else:
            value = True
        fields[dest] = value
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
                    args = build_parser().parse_args(argv)
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
