"""The tracer misses no binding and changes no output."""

import sys
from collections import Counter

import latfm.cli  # noqa: F401  (loads every latfm module)
import latfm.mukai
import spans
import worker
from workloads import Op

SMALL_SHADOW = Op("t", "shadow", ["mukai", "--degree", "12", "--shadow", "--json"],
                  {"d": 6, "factors": [[2, 1], [3, 1]]})
MIX = [
    SMALL_SHADOW,
    Op("t", "family", ["family", "--count", "2", "--degree", "4", "--json"],
       {"count": 2, "d": 2, "ambient": "k3"}),
    Op("t", "fm_verify", ["fm-count", "--degree", "60", "--verify", "--json"],
       {"d": 30, "omega": 3}),
    Op("t", "isometry", ["isometry", "--gram1", "[[2,5],[5,0]]",
                         "--gram2", "[[4,5],[5,0]]", "--json"], {"relation": "certificate"}),
    Op("t", "genus_sum", [[[2, 0], [0, 2]], [[6, 7], [7, 0]]], {"total": 2}),
]


def original(module_name, attr):
    owner = sys.modules[module_name]
    if "." in attr:
        cls, method = attr.split(".")
        return vars(getattr(owner, cls))[method]
    return getattr(owner, attr)


def run_ops(ops, tracer=None, profile=None):
    """Outputs of the ops from a cold shadow memo, optionally traced and
    profiled at the same time."""
    latfm.mukai._mukai_complement.cache_clear()
    if tracer:
        tracer.install()
    if profile:
        sys.setprofile(profile)
    try:
        return [worker.execute(op) for op in ops]
    finally:
        sys.setprofile(None)
        if tracer:
            tracer.uninstall()


def code_profiler():
    codes = {original(m, a).__code__: name for name, m, a, _ in spans.TARGETS}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    return profile, calls


def test_snf_calls_match_an_independent_profile_count():
    profile, calls = code_profiler()
    tracer = spans.Tracer()
    run_ops([SMALL_SHADOW], tracer, profile)
    traced = tracer.metrics()["intmat.snf.calls"]
    assert traced == calls["intmat.snf"] > 0


def test_every_target_is_caught_at_every_binding():
    profile, calls = code_profiler()
    tracer = spans.Tracer()
    run_ops(MIX, tracer, profile)
    metrics = tracer.metrics()
    search = "discriminant.module_search"
    metrics[f"{search}.calls"] = metrics[f"{search}.cyclic.calls"] + metrics[f"{search}.generic.calls"]
    metrics["cli.run.calls"] = sum(1 for s in tracer.spans if s[0] == "cli.run")
    for name in {t[0] for t in spans.TARGETS}:
        assert metrics[f"{name}.calls"] == calls[name], name


def test_traced_stdout_is_byte_identical():
    plain = run_ops(MIX)
    traced = run_ops(MIX, spans.Tracer())
    assert traced == plain
    assert [code for code, _, _ in plain] == [0, 0, 0, 3, 0]


def test_uninstall_restores_every_binding():
    before = {(m, a): original(m, a) for _, m, a, _ in spans.TARGETS}
    tracer = spans.Tracer().install()
    assert latfm.lattices.solve_integer is not before[("latfm.intmat", "solve_integer")]
    assert latfm.discriminant.smith_normal_form is not before[("latfm.intmat", "smith_normal_form")]
    tracer.uninstall()
    assert {(m, a): original(m, a) for _, m, a, _ in spans.TARGETS} == before
    assert latfm.lattices.solve_integer is before[("latfm.intmat", "solve_integer")]


def test_self_time_excludes_children_and_layers_add_up():
    tracer = spans.Tracer()
    run_ops([SMALL_SHADOW], tracer)
    m = tracer.metrics()
    assert m["lattices.project.calls"] == 22 * 4  # 22 per Mukai vector, 4 vectors
    assert m["mukai.shadow.calls"] == 4 and m["oracle.find_isometry.calls"] == 0
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(layers - total) < 1e-6
