"""Per-layer tracing from outside the library.

The tracer replaces each listed function at every binding inside the latfm
package (the defining module and every module that imported it by name) and
each listed method on its class.  Span wrappers record (name, start, end,
parent, op id) in memory; count wrappers only count calls.  Nothing under
src/ is edited: uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (metric name, module, attribute or Class.method, span or count).  Several
# functions may share one metric name.
TARGETS = (
    ("intmat.snf", "latfm.intmat", "smith_normal_form", SPAN),
    ("intmat.solve_integer", "latfm.intmat", "solve_integer", SPAN),
    ("intmat.hnf", "latfm.intmat", "hermite_normal_form", SPAN),
    ("intmat.det", "latfm.intmat", "det", SPAN),
    ("intmat.fraction_elim", "latfm.intmat", "rank", SPAN),
    ("intmat.fraction_elim", "latfm.intmat", "rational_solve", SPAN),
    ("intmat.fraction_elim", "latfm.intmat", "unimodular_inverse", SPAN),
    ("intmat.mat_ops", "latfm.intmat", "mat_mul", COUNT),
    ("intmat.mat_ops", "latfm.intmat", "mat_vec", COUNT),
    ("intmat.mat_ops", "latfm.intmat", "vec_dot", COUNT),
    ("intmat.mat_ops", "latfm.intmat", "transpose", COUNT),
    ("lattices.project", "latfm.lattices", "IsotropicQuotient.project", SPAN),
    ("lattices.isotropic_quotient", "latfm.lattices", "isotropic_quotient", SPAN),
    ("lattices.orthogonal_complement", "latfm.lattices", "orthogonal_complement", SPAN),
    ("lattices.signature", "latfm.lattices", "_signature_of_gram", SPAN),
    ("lattices.dot", "latfm.lattices", "Lattice.dot", COUNT),
    ("lattices.lattice_init", "latfm.lattices", "Lattice.__init__", COUNT),
    ("discriminant.lattice_discriminant", "latfm.discriminant", "LatticeDiscriminant.__init__", SPAN),
    ("discriminant.module_search", "latfm.discriminant", "_isometry_search", SPAN),
    ("discriminant.gamma", "latfm.discriminant", "gamma_complement_map", SPAN),
    ("discriminant.module_isometry", "latfm.discriminant", "ModuleIsometry.__init__", COUNT),
    ("oracle.find_isometry", "latfm.oracle", "find_isometry_bounded", SPAN),
    ("oracle.self_isometries", "latfm.oracle", "enumerate_self_isometries", SPAN),
    ("oracle.units", "latfm.oracle", "units_with_square_one", SPAN),
    ("oracle.double_coset", "latfm.oracle", "double_coset_count", SPAN),
    ("fmcount.factorization", "latfm.fmcount", "prime_factorization", SPAN),
    ("fmcount.primality", "latfm.fmcount", "is_prime", SPAN),
    ("fmcount.via_cosets", "latfm.fmcount", "fm_count_rho1_via_cosets", SPAN),
    ("fmcount.genus_sum", "latfm.fmcount", "fm_count_genus_sum", SPAN),
    ("mukai.shadow", "latfm.mukai", "moduli_lattice_shadow", SPAN),
    ("mukai.enumerate", "latfm.mukai", "enumerate_mukai_vectors", COUNT),
    ("family.make_member", "latfm.family", "make_member", SPAN),
    ("family.disc_iso_witness", "latfm.family", "disc_groups_isomorphic", SPAN),
    ("family.complement_genus", "latfm.family", "complement_genus_data", SPAN),
    ("family.nikulin", "latfm.family", "check_nikulin_hypotheses", SPAN),
    ("family.build", "latfm.family", "build_family", COUNT),
    ("cli.run", "latfm.cli", "run", SPAN),
)

LAYERS = ("intmat", "lattices", "discriminant", "oracle", "fmcount", "mukai", "family", "cli")

# The module search is split by the number of generators of its source
# module: one (cyclic unit arithmetic) or more (generic backtracking).
_SEARCH = "discriminant.module_search"


def _search_name(args) -> str:
    return f"{_SEARCH}.{'cyclic' if args[0].ell <= 1 else 'generic'}"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict = {}  # count-only targets: name -> calls
        self.found = 0  # module searches that returned an isometry
        self.decided = 0  # bounded oracle searches that returned an answer
        self.op_id = -1
        self._stack: list = []
        self._restore: list = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        dynamic = name == _SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _search_name(args) if dynamic else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op_id)
            if dynamic and result:
                self.found += 1
            elif name == "oracle.find_isometry":
                self.decided += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "latfm" or key.startswith("latfm."))]
        for name, module_name, attr, kind in TARGETS:
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, make(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ report

    def metrics(self) -> dict:
        """calls and self time per function, self time per layer, and the
        two usefulness ratios."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = {}
        self_s: dict = {}
        for i, (label, start, end, _, _) in enumerate(self.spans):
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + (end - start) - child_time[i]
        out = {}
        for name, _, _, kind in TARGETS:
            if kind == COUNT:
                out[f"{name}.calls"] = self.counts.get(name, 0)
            elif name == _SEARCH:
                for part in ("cyclic", "generic"):
                    label = f"{name}.{part}"
                    out[f"{label}.calls"] = calls.get(label, 0)
                    out[f"{label}.self_s"] = self_s.get(label, 0.0)
            elif name != "cli.run":
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        searches = out[f"{_SEARCH}.cyclic.calls"] + out[f"{_SEARCH}.generic.calls"]
        out[f"{_SEARCH}.found_ratio"] = self.found / searches if searches else 0.0
        oracle_calls = out["oracle.find_isometry.calls"]
        out["oracle.find_isometry.decided_ratio"] = (
            self.decided / oracle_calls if oracle_calls else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for label, t in self_s.items() if label.split(".")[0] == layer)
        return out
