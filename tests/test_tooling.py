"""The per-layer tracer of the benchmark (perfbench/spans.py) names only
bindings that exist, so renaming a traced helper fails here and not only in
a traced benchmark run.  The computing code stays on integers: Fraction is
left to presentation and to the traced intmat.rational_solve, and neither
`import latfm` nor `import latfm.cli` loads `fractions` or `dataclasses`.
src/latfm holds no function or method that only the tests call, bar a named
few."""

import ast
import hashlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import MEMOS, PERFBENCH, load_perfbench_module

import latfm.arith
import latfm.cli  # noqa: F401  (loads every traced latfm module)
import latfm.fmcount
import latfm.intmat
import latfm.mukai

SRC = Path(latfm.cli.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def load_spans():
    return load_perfbench_module("spans")


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
    # O(A) of the cyclic module Z/60 comes from the cyclic search, which
    # the family path does not run (test_family_runs_no_module_search)
    tracer = load_spans().Tracer().install()
    try:
        argv = ["fm-count", "--degree", "60", "--verify", "--json"]
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
    # A = Z/1021020 is built in closed form: no Lattice, Smith form or
    # LatticeDiscriminant, and one cyclic search for O(A)
    assert metrics["lattices.lattice_init.calls"] == 0
    assert metrics["intmat.snf.calls"] == 0
    assert metrics["discriminant.lattice_discriminant.calls"] == 0
    assert metrics["discriminant.module_search.cyclic.calls"] == 1
    # warm: the term comes from the memo of this process
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


def test_family_runs_no_module_search():
    # three members, three pairs to attest: each attestation's module
    # isometry is +-(i s_i) / (j s_j) mod n^2 in closed form, so nothing
    # searches for it or factors n^2.  A member builds no module of its
    # own, each complement is L_{d,n}(-1) and the embedding is primitive by
    # its basis, so a member costs one 2x2 SNF, for its complement's
    # module, and one Lattice, its own: the module is read off the Smith
    # form with no LatticeDiscriminant and no rescaled Lattice of the
    # complement
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
        assert metrics["discriminant.module_search.cyclic.calls"] == 0
        assert metrics["discriminant.module_search.generic.calls"] == 0
        assert metrics["family.nikulin.calls"] == 0
        assert metrics["fmcount.factorization.calls"] == 0
        assert metrics["intmat.snf.calls"] == 3
        assert metrics["intmat.hnf.calls"] == 0
        assert metrics["lattices.orthogonal_complement.calls"] == 0
        assert metrics["discriminant.lattice_discriminant.calls"] == 0
        assert metrics["lattices.lattice_init.calls"] == 3


def test_family_validates_each_value_once():
    # four members and six pairs: each member is one Lattice, with one
    # signature, and one 2x2 SNF, for its complement's module; each pair's
    # attestation is one ModuleIsometry.  A check added on top of the
    # constructors' own shows up here.  The complement writes -G v and
    # v.(-G v) inline, so the op runs no intmat matrix or vector product
    for ambient in ("k3", "abelian"):
        argv = ["family", "--count", "4", "--degree", "2", "--ambient", ambient, "--json"]
        code, _, metrics = traced_run(argv)
        assert code == 0
        assert metrics["lattices.lattice_init.calls"] == 4
        assert metrics["lattices.signature.calls"] == 4
        assert metrics["discriminant.module_isometry.calls"] == 6
        assert metrics["intmat.snf.calls"] == 4
        assert metrics["intmat.mat_ops.calls"] == 0


# sha256 of the stdout of `family --count 3 --degree 2 --ambient A --json`
FAMILY_3_2 = {
    "k3": "3f3bd043b1549d6070ac203ee1360a65a7578f233e5c21d6d32093acc4a94225",
    "abelian": "1e2561de45ff533a41bb971a3e14bc185e06f483dc70532dd42b58453efe1295",
}


def test_family_runs_no_bareiss_elimination(monkeypatch):
    # the rank of a member's two-row embedding is read off its 2x2 minors,
    # and nothing else on the family path eliminates: intmat._gauss_jordan
    # is never called
    def refuse(rows):
        raise AssertionError("family ran a Bareiss elimination")

    monkeypatch.setattr(latfm.intmat, "_gauss_jordan", refuse)
    for ambient in ("k3", "abelian"):
        argv = ["family", "--count", "3", "--degree", "2", "--ambient", ambient, "--json"]
        out = io.StringIO()
        assert latfm.cli.run(argv, out, io.StringIO()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FAMILY_3_2[ambient]


def test_family_json_runs_no_generic_writer_and_no_root_search(monkeypatch):
    # the command writes its schema straight from the bundle, and each pair
    # witness is +-j/i mod n^2 in closed form
    def refuse(*args):
        raise AssertionError("family ran the generic writer or the root search")

    monkeypatch.setattr(latfm.cli, "_json_text", refuse)
    monkeypatch.setattr(latfm.family, "disc_groups_isomorphic", refuse)
    for ambient in ("k3", "abelian"):
        argv = ["family", "--count", "3", "--degree", "2", "--ambient", ambient, "--json"]
        out = io.StringIO()
        assert latfm.cli.run(argv, out, io.StringIO()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FAMILY_3_2[ambient]


@pytest.mark.parametrize(
    "argv",
    [
        ["isometry", "--gram1", "[[2,5],[5,0]]", "--gram2", "[[12,5],[5,0]]", "--json"],
        ["isometry", "--gram1", "[[2,5],[5,0]]", "--gram2", "[[4,7],[7,0]]", "--json"],
        ["fm-count", "--degree", "420", "--verify", "--json"],
        ["fm-count", "--range", "2..12", "--json"],
    ],
)
def test_isometry_and_fm_count_json_run_no_generic_writer(monkeypatch, argv):
    # a rank-2 witness, an invariant mismatch and fm-count rows are written
    # into fixed templates
    plain = io.StringIO()
    assert latfm.cli.run(argv, plain, io.StringIO()) == 0

    def refuse(*args):
        raise AssertionError("the command ran the generic writer")

    monkeypatch.setattr(latfm.cli, "_json_text", refuse)
    out = io.StringIO()
    assert latfm.cli.run(argv, out, io.StringIO()) == 0
    assert out.getvalue() == plain.getvalue()


def test_family_attests_without_the_module_search(monkeypatch):
    # each attestation's module isometry is checked in closed form: neither
    # the module search nor the unit square roots under it run
    def refuse(*args):
        raise AssertionError("family ran the module search")

    monkeypatch.setattr(latfm.discriminant, "_isometry_search", refuse)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("latfm") and hasattr(module, "unit_square_roots"):
            monkeypatch.setattr(module, "unit_square_roots", refuse)
    for ambient in ("k3", "abelian"):
        argv = ["family", "--count", "3", "--degree", "2", "--ambient", ambient, "--json"]
        out = io.StringIO()
        assert latfm.cli.run(argv, out, io.StringIO()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FAMILY_3_2[ambient]


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


def top_level_imports(paths) -> set:
    """Top-level names of every import in the files, relative imports aside."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported


def test_the_code_imports_only_the_standard_library():
    # pytest is the one dependency, of the tests
    imported = top_level_imports(sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")))
    assert imported - set(sys.stdlib_module_names) == {"latfm", "pytest", "conftest"}
    # perfbench and its tests import the perfbench modules by their bare names
    siblings = {path.stem for path in PERFBENCH.glob("*.py")}
    imported = top_level_imports(sorted(PERFBENCH.rglob("*.py")))
    assert imported - set(sys.stdlib_module_names) - siblings == {"latfm", "pytest"}


# what a printed Fraction or a dataclass would load
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal"}


def modules_added_by(statement: str) -> set:
    """Modules that `statement` adds to sys.modules in a fresh interpreter
    started with -S (no site), with only src on the path."""
    probe = f"import sys; old = set(sys.modules); {statement}; print(*set(sys.modules) - old)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(proc.stdout.split())


def test_import_latfm_loads_no_heavy_module():
    added = modules_added_by("import latfm")
    assert {"latfm.lattices", "latfm.family"} <= added
    assert not added & HEAVY_MODULES


def test_import_cli_loads_the_traced_modules_and_not_the_check_suite():
    # perfbench/worker.py imports latfm.cli, then the tracer looks every
    # module it names up in sys.modules
    added = modules_added_by("import latfm.cli")
    assert {module for _, module, _, _ in load_spans().TARGETS} <= added
    assert not added & (HEAVY_MODULES | {"latfm.selfcheck"})


def test_the_memo_inventory_is_pinned():
    # every per-process memo in src/latfm; a new one is added here on purpose
    def memo_decorator(node):
        target = node.func if isinstance(node, ast.Call) else node
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name in ("lru_cache", "cache")

    memos = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    memo_decorator(dec) for dec in node.decorator_list):
                memos.add(f"{path.stem}.{node.name}")
    assert memos == {
        "fmcount._member_term",
        "fmcount._rank1_term",
        "mukai._h_complement",
        # its cache_clear is called by the benchmark's tests
        "mukai._mukai_complement",
    }
    # the tests start each one cold
    assert {latfm.fmcount._member_term, latfm.fmcount._rank1_term} <= set(MEMOS)


# names in src/latfm that nothing in src/latfm calls, kept for the tests
TEST_ORACLES = {
    "intmat.complete_primitive_vector_gcd":
        "the gcd-chain completion checked against the Smith one",
    "family.embed_member": "the full-ambient path the split complement is checked against",
    "discriminant.verify_isometry": "checks the witnesses of is_isometric_modules",
}


def unread_names():
    """Top-level functions and classes of src/latfm that no live code names,
    and non-dunder methods and properties that no live code reads as an
    attribute.  A reference is live unless it lies inside the definition it
    names or inside a definition that is itself unread; __init__.py only
    re-exports, and the tracer's targets and TEST_ORACLES are roots."""
    defs = {}  # "module.name" or "module.Class.method" -> (path, kind, name, first, last)
    refs = []  # (path, kind, name, line)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = (
                    path, "name", node.name, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        defs[f"{path.stem}.{node.name}.{sub.name}"] = (
                            path, "attr", sub.name, sub.lineno, sub.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path, "name", node.id, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path, "name", alias.name, node.lineno) for alias in node.names]
            elif isinstance(node, ast.Attribute):
                refs.append((path, "attr", node.attr, node.lineno))
    roots = {f"{module.split('.')[-1]}.{attr}" for _, module, attr, _ in load_spans().TARGETS}
    roots |= set(TEST_ORACLES)

    def within(key, path, line):
        where, _, _, first, last = defs[key]
        return where == path and first <= line <= last

    unread = set()
    while True:
        live = [
            (kind, name, path, line) for path, kind, name, line in refs
            if not any(within(key, path, line) for key in unread)
        ]
        more = {
            key for key, (_, kind, name, _, _) in defs.items()
            if key not in unread and key not in roots and not any(
                (k, n) == (kind, name) and not within(key, path, line)
                for k, n, path, line in live)
        }
        if not more:
            return unread
        unread |= more


def test_src_holds_no_name_only_the_tests_read():
    assert unread_names() == set()
    # each oracle is still defined, so the allowlist names nothing stale
    for key in TEST_ORACLES:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module(f"latfm.{module}"), name)), key
