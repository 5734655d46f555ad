"""The per-layer tracer of the benchmark (perfbench/spans.py) names only
bindings that exist, so renaming a traced helper fails here and not only in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import latfm.cli  # noqa: F401  (loads every latfm module)
import latfm.mukai

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for _, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


def test_bindings_read_by_the_benchmark_tests_exist():
    intmat = importlib.import_module("latfm.intmat")
    assert latfm.lattices.solve_integer is intmat.solve_integer
    assert latfm.discriminant.smith_normal_form is intmat.smith_normal_form
    assert callable(latfm.mukai._mukai_complement.cache_clear)
