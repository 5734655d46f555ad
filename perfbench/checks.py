"""Output checkers.  Every answer is checked against what the generator knows
by construction, never against a golden file, so any seed works.

check(op, stdout_text) returns None when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import json
from math import gcd

from nt import next_prime, partner_count, unitary_divisors

K3_SHADOW = {"rank": 22, "det": -1, "even": True, "signature": [3, 19]}
AMBIENT_SIGNATURES = {"k3": (3, 19), "abelian": (3, 3)}


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def check_shadow(op, text: str):
    out = json.loads(text)
    d = op.expect["d"]
    if out["degree"] != 2 * d or out["d"] != d:
        return f"degree {out['degree']} for d={d}"
    rs = unitary_divisors(op.expect["factors"])
    want = [{"r": r, "s": d // r} for r in rs]
    if out["vectors"] != want:
        return f"vectors {out['vectors']} != {want}"
    if len(out["shadows"]) != len(want):
        return "one shadow per vector expected"
    for vec, shadow in zip(want, out["shadows"]):
        if shadow["vector"] != vec:
            return f"shadow for {shadow['vector']}, expected {vec}"
        if shadow["quotient"] != K3_SHADOW:
            return f"shadow invariants {shadow['quotient']} != {K3_SHADOW}"
        if shadow["ns_square"] != 2 * d:
            return f"ns_square {shadow['ns_square']} != {2 * d}"
    return None


def check_family(op, text: str):
    out = json.loads(text)
    c, d, ambient = op.expect["count"], op.expect["d"], op.expect["ambient"]
    n = next_prime(max(2, d * d * c**4))
    if out["n"] != n:
        return f"n = {out['n']}, least prime above d^2 c^4 is {n}"
    if out["degree"] != 2 * d or out["ambient"] != ambient:
        return "degree or ambient echoed wrongly"
    ds = [d * i * i for i in range(1, c + 1)]
    members = out["members"]
    if [m["d"] for m in members] != ds:
        return f"members {[m['d'] for m in members]} != {ds}"
    for m in members:
        if m["n"] != n or m["lattice"]["gram"] != [[2 * m["d"], n], [n, 0]]:
            return f"member d={m['d']} has the wrong Gram matrix"
    pairs = [(ds[i], ds[j]) for i in range(c) for j in range(i + 1, c)]
    witnesses = out["witnesses"]
    if [(w["d1"], w["d2"]) for w in witnesses] != pairs:
        return "one witness per pair i < j expected"
    for w in witnesses:
        alpha = w["alpha"]
        if w["n"] != n or gcd(alpha, n) != 1 or (w["d1"] * alpha * alpha - w["d2"]) % (n * n):
            return f"alpha={alpha} is not a witness for ({w['d1']}, {w['d2']}) mod {n}^2"
    certs = out["certificates"]
    if [(x["d1"], x["d2"]) for x in certs] != pairs:
        return "one certificate per pair i < j expected"
    for x in certs:
        if (x["d1"] - x["d2"]) % n == 0 or (x["d1"] * x["d2"] - 1) % n == 0:
            return f"certificate ({x['d1']}, {x['d2']}) mod {n} does not hold"
    plus, minus = AMBIENT_SIGNATURES[ambient]
    want_sig = [plus - 1, minus - 1]  # the member has signature (1, 1)
    if len(out["attestations"]) != len(pairs):
        return "one attestation per pair expected"
    for a in out["attestations"]:
        if a["rank"] != plus + minus - 2 or a["signature"] != want_sig or a["ell"] != 1:
            return f"attestation {a['rank']}, {a['signature']}, ell={a['ell']} wrong"
        iso = a["disc_iso"]
        if len(iso) != 1 or len(iso[0]) != 1 or gcd(iso[0][0], n) != 1:
            return f"attestation isometry {iso} is not a unit of Z/{n}^2"
    if out["polarization"] != {"member": 1, "square": 2 * d, "vector": [1, 0]}:
        return "polarization echoed wrongly"
    if out["represents_zero"] != [{"d": x, "vector": [0, 1]} for x in ds]:
        return "represents_zero vectors wrong"
    return None


def _check_fm_rows(op, text: str, verify: bool):
    rows = json.loads(text)["results"]
    d, omega = op.expect["d"], op.expect["omega"]
    want = {"degree": 2 * d, "d": d, "p": max(omega, 1), "fm_partners": partner_count(omega)}
    if verify:
        want["fm_partners_via_cosets"] = want["fm_partners"]
    if rows != [want]:
        return f"{rows} != [{want}]"
    return None


def check_fm_verify(op, text: str):
    return _check_fm_rows(op, text, verify=True)


def check_fm_count(op, text: str):
    return _check_fm_rows(op, text, verify=False)


def check_isometry(op, text: str):
    """A returned witness must satisfy B^t G1 B = G2 with |det B| = 1.  A
    certificate pair (both congruences fail) must not be called isometric; a
    witness pair (a witness with entries <= 3 exists) must be; a screen pair
    (different determinants) must be a screen negative."""
    g1 = json.loads(op.args[2])
    g2 = json.loads(op.args[4])
    relation = op.expect["relation"]
    out = json.loads(text)
    if out["isometric"]:
        b = out["matrix"]
        if abs(_det2(b)) != 1 or _mat_mul(_transpose(b), _mat_mul(g1, b)) != g2:
            return f"matrix {b} is not an isometry"
        if relation in ("certificate", "screen"):
            return f"{relation} pair reported isometric"
    elif relation != "screen":
        return f"{relation} pair rejected by the invariant screen"
    return None


def check_genus_sum(op, text: str):
    if int(text) != op.expect["total"]:
        return f"genus sum {text} != {op.expect['total']}"
    return None


CHECKERS = {
    "shadow": check_shadow,
    "family": check_family,
    "fm_verify": check_fm_verify,
    "fm_count": check_fm_count,
    "isometry": check_isometry,
    "genus_sum": check_genus_sum,
}

# Exit codes that are a documented, correct outcome for an op kind.  Exit 3
# (budget exhausted) from isometry claims nothing, so it is right unless a
# known witness within the budget contradicts it.
BUDGET_EXIT = 3


def budget_exit_ok(op) -> bool:
    return op.kind == "isometry" and op.expect["relation"] in ("certificate", "open")


def check(op, text: str):
    try:
        return CHECKERS[op.kind](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"
