"""The per-layer tracer of the benchmark (perfbench/spans.py) names only
bindings that exist, so renaming a traced helper fails here and not only in
a traced benchmark run."""

import importlib
import importlib.util
import io
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


def test_cyclic_module_search_stays_under_its_traced_span():
    tracer = load_spans().Tracer().install()
    try:
        argv = ["family", "--count", "2", "--degree", "4", "--json"]
        code = latfm.cli.run(argv, io.StringIO(), io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["discriminant.module_search.cyclic.calls"] > 0
    assert metrics["discriminant.module_search.found_ratio"] == 1
