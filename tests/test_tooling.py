"""The per-layer tracer of the benchmark (perfbench/spans.py) names only
bindings that exist, so renaming a traced helper fails here and not only in
a traced benchmark run.  The computing code stays on integers: Fraction is
left to presentation and to the traced intmat.rational_solve."""

import ast
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import latfm.arith
import latfm.cli  # noqa: F401  (loads every latfm module)
import latfm.fmcount
import latfm.intmat
import latfm.mukai

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(latfm.cli.__file__).resolve().parent


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
    # the factorization spans wrap these fmcount names
    assert latfm.fmcount.prime_factorization is latfm.arith.prime_factorization
    assert latfm.fmcount.is_prime is latfm.arith.is_prime


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


def test_factorization_and_primality_stay_under_their_traced_spans():
    argv = ["fm-count", "--degree", str(2 * 10000000000037), "--json"]  # a prime d
    plain = io.StringIO()
    assert latfm.cli.run(argv, plain, io.StringIO()) == 0
    tracer = load_spans().Tracer().install()
    try:
        traced = io.StringIO()
        code = latfm.cli.run(argv, traced, io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0 and traced.getvalue() == plain.getvalue()
    metrics = tracer.metrics()
    assert metrics["fmcount.factorization.calls"] >= 1
    assert metrics["fmcount.primality.calls"] >= 1


def traced_run(argv):
    """(exit code, stdout, metrics) of one traced in-process run."""
    tracer = load_spans().Tracer().install()
    try:
        out = io.StringIO()
        code = latfm.cli.run(argv, out, io.StringIO())
    finally:
        tracer.uninstall()
    return code, out.getvalue(), tracer.metrics()


def test_double_cosets_compose_matrices_not_module_isometries(cold_memos):
    # omega(510510) = 7, so O(A) has 2^7 = 128 elements
    argv = ["fm-count", "--degree", "1021020", "--verify", "--json"]
    plain = io.StringIO()
    assert latfm.cli.run(argv, plain, io.StringIO()) == 0
    cold_memos()
    code, traced, metrics = traced_run(argv)
    assert code == 0 and traced == plain.getvalue()
    assert metrics["oracle.double_coset.calls"] == 1
    # O(A), +-1 and the image go to the kernel as units ((a,),)
    assert metrics["discriminant.module_isometry.calls"] == 0
    # warm: the member's term comes from the memo of this process
    code, warm, metrics = traced_run(argv)
    assert code == 0 and warm == plain.getvalue()
    assert metrics["oracle.double_coset.calls"] == 0


@pytest.mark.parametrize(
    "gram1,gram2,searches",
    [
        ("[[2,5],[5,0]]", "[[12,5],[5,0]]", 0),  # det -25: a witness
        ("[[2,17],[17,0]]", "[[8,17],[17,0]]", 0),  # det -289: none within 50
        ("[[2,1],[1,2]]", "[[2,-1],[-1,2]]", 1),  # det 3
        ("[[2,5],[5,0]]", "[[4,7],[7,0]]", 1),  # two determinants: the screen
    ],
)
def test_square_discriminant_isometries_need_no_search(gram1, gram2, searches):
    argv = ["isometry", "--gram1", gram1, "--gram2", gram2, "--json"]
    plain = io.StringIO()
    expected = latfm.cli.run(argv, plain, io.StringIO())
    code, traced, metrics = traced_run(argv)
    assert (code, traced) == (expected, plain.getvalue())
    assert metrics["oracle.find_isometry.calls"] == searches


def test_family_searches_modules_only_for_its_attestations():
    # three members: three pairs to attest; each member's closed form is
    # checked through its generator, each complement is L_{d,n}(-1) and the
    # embedding is primitive by its basis, so a member costs one 2x2 SNF,
    # for its complement's module, and one Lattice, its own: the module is
    # read off the Smith form with no LatticeDiscriminant and no rescaled
    # Lattice of the complement
    for ambient in ("k3", "abelian"):
        argv = ["family", "--count", "3", "--degree", "2", "--ambient", ambient, "--json"]
        plain = io.StringIO()
        assert latfm.cli.run(argv, plain, io.StringIO()) == 0
        tracer = load_spans().Tracer().install()
        try:
            traced = io.StringIO()
            code = latfm.cli.run(argv, traced, io.StringIO())
        finally:
            tracer.uninstall()
        assert code == 0 and traced.getvalue() == plain.getvalue()
        metrics = tracer.metrics()
        assert metrics["discriminant.module_search.cyclic.calls"] == 3
        assert metrics["discriminant.module_search.generic.calls"] == 0
        assert metrics["intmat.snf.calls"] == 3
        assert metrics["intmat.hnf.calls"] == 0
        assert metrics["lattices.orthogonal_complement.calls"] == 0
        assert metrics["discriminant.lattice_discriminant.calls"] == 0
        assert metrics["lattices.lattice_init.calls"] == 3


def test_each_isotropic_quotient_inverts_one_matrix(monkeypatch):
    # the Smith completion returns W^-1 with W, so the quotient's projection
    # costs no second inversion
    calls = {"isotropic_quotient": 0, "unimodular_inverse": 0}
    for owner, name in ((latfm.lattices, "isotropic_quotient"),
                        (latfm.intmat, "unimodular_inverse")):
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("latfm") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    latfm.mukai._mukai_complement.cache_clear()
    argv = ["mukai", "--degree", "60", "--shadow", "--json"]
    assert latfm.cli.run(argv, io.StringIO(), io.StringIO()) == 0
    assert calls["isotropic_quotient"] == 8  # 2^3 vectors (r, h, s), r s = 30
    assert calls["unimodular_inverse"] == calls["isotropic_quotient"]


def test_gamma_factors_its_pairing_once():
    # A_V = (Z/2)^2 has two generators; their lifts share one SNF of the
    # pairing matrix (a second SNF per generator would make 7)
    uu = latfm.lattices.direct_sum(latfm.lattices.U, latfm.lattices.U)
    emb = latfm.lattices.SublatticeEmbedding(uu, ((1, 1, 0, 0), (0, 0, 1, 1)))
    tracer = load_spans().Tracer().install()
    try:
        iso = latfm.discriminant.gamma_complement_map(uu, emb)
    finally:
        tracer.uninstall()
    assert iso.source.factors == (2, 2)
    assert tracer.metrics()["intmat.snf.calls"] == 6


def test_genus_sum_closes_the_image_through_generators():
    members = [latfm.lattices.make_lattice(g)
               for g in ([[2, 1], [1, 4]], [[2, 0], [0, 6]], [[4, 1], [1, 2]])]
    tracer = load_spans().Tracer().install()
    try:
        total = latfm.fmcount.fm_count_genus_sum(members)
    finally:
        tracer.uninstall()
    assert total == 3
    assert tracer.metrics()["discriminant.module_isometry.calls"] == 0


def test_every_lattice_runs_one_elimination():
    # det and signature of a Lattice come from one integer elimination;
    # intmat.det is left to non-Gram matrices
    for argv in (["mukai", "--degree", "12", "--shadow", "--json"],
                 ["family", "--count", "3", "--degree", "2", "--json"]):
        tracer = load_spans().Tracer().install()
        try:
            code = latfm.cli.run(argv, io.StringIO(), io.StringIO())
        finally:
            tracer.uninstall()
        assert code == 0
        metrics = tracer.metrics()
        assert metrics["intmat.det.calls"] == 0, argv
        assert metrics["lattices.lattice_init.calls"] > 0, argv
        assert (metrics["lattices.signature.calls"]
                == metrics["lattices.lattice_init.calls"]), argv


def test_fractions_are_left_to_presentation():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.add(path.name)
    assert importers == {"discriminant.py", "intmat.py"}
    # in discriminant.py only the printed forms q and b name Fraction
    tree = ast.parse((SRC / "discriminant.py").read_text())

    def uses(root):
        return {
            node for node in ast.walk(root)
            if isinstance(node, ast.Name) and node.id == "Fraction"
        }

    printed = [
        func for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in ("q", "b")
    ]
    assert len(printed) == 2
    assert uses(tree) == set().union(*map(uses, printed))
