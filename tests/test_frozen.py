"""The value classes keep what @dataclass(frozen=True) gave them: the same
repr (pinned below as the dataclasses printed it), a hash equal to that of
the field tuple, equality only within one class, and no assignment or
deletion.  Memo keys (Lattice) and printed output depend on these.  A class
with no __init__ of its own gets one generated from its _fields, taking the
parameters its hand-written one took."""

import ast
import gc
import inspect
from pathlib import Path

import pytest

import latfm
from latfm.discriminant import FiniteQuadraticModule, ModuleIsometry
from latfm.errors import LatfmError
from latfm.family import (
    UU,
    DiscIsoWitness,
    FamilyBundle,
    GenusData,
    NecessaryConditions,
    NikulinAttestation,
    NonIsometryCertificate,
    make_member,
    polarization_orbits_in_u,
)
from latfm.frozen import Frozen
from latfm.lattices import (
    U,
    Lattice,
    Signature,
    SublatticeEmbedding,
    isotropic_quotient,
    orthogonal_complement,
)
from latfm.mukai import ModuliShadow, MukaiVector, PolarizedEmbedding
from latfm.oracle import IsometryWitness, SearchBudget
from latfm.selfcheck import CheckResult

SRC = Path(latfm.__file__).resolve().parent


def module(x=2):
    return FiniteQuadraticModule((3,), ((1,),), ((x,),))


def quotient(v):
    perp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
    return isotropic_quotient(perp, v)


CERTIFICATE = "NonIsometryCertificate(d1=1, d2=4, n=5)"
MODULE = "FiniteQuadraticModule(factors=(3,), generators=((1,),), gram=((2,),), even=True)"
UU_GRAM = "((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))"
MEMBER = (
    "FamilyMember(d=1, n=3, lattice=Lattice(gram=((2, 3), (3, 0))), "
    f"embedding=SublatticeEmbedding(ambient=Lattice(gram={UU_GRAM}), "
    "basis=((1, 1, 0, 0), (0, 3, 1, 0))))"
)
U_REPR = "Lattice(gram=((0, 1), (1, 0)))"

# (sample, a different instance of the same class, the compared fields,
# the repr the dataclass printed); each sample is built anew per call
SAMPLES = {
    "Lattice": (
        lambda: Lattice(((2, 1), (1, 2))), lambda: Lattice(((2, 1), (1, 4))),
        ("gram",), "Lattice(gram=((2, 1), (1, 2)))"),
    "SublatticeEmbedding": (
        lambda: SublatticeEmbedding(U, ((1, 1),)), lambda: SublatticeEmbedding(U, ((1, 2),)),
        ("ambient", "basis"), f"SublatticeEmbedding(ambient={U_REPR}, basis=((1, 1),))"),
    "IsotropicQuotient": (
        lambda: quotient((1, 0, 0, 0)), lambda: quotient((0, 0, 1, 0)),
        ("lattice", "_projection"),
        f"IsotropicQuotient(lattice={U_REPR}, _projection=((0, 1, 0), (0, 0, 1)))"),
    "FiniteQuadraticModule": (
        module, lambda: FiniteQuadraticModule((3,), ((1,),), ((1,),), even=False),
        ("factors", "generators", "gram", "even"), MODULE),
    "ModuleIsometry": (
        lambda: ModuleIsometry(module(), module(), ((2,),)),
        lambda: ModuleIsometry(module(), module(), ((1,),)),
        ("source", "target", "matrix"),
        f"ModuleIsometry(source={MODULE}, target={MODULE}, matrix=((2,),))"),
    "FamilyMember": (
        lambda: make_member(1, 3), lambda: make_member(2, 3),
        ("d", "n", "lattice", "embedding"), MEMBER),
    "DiscIsoWitness": (
        lambda: DiscIsoWitness(1, 4, 3, 2), lambda: DiscIsoWitness(1, 4, 3, 7),
        ("d1", "d2", "n", "alpha"), "DiscIsoWitness(d1=1, d2=4, n=3, alpha=2)"),
    "NonIsometryCertificate": (
        lambda: NonIsometryCertificate(1, 4, 5), lambda: NonIsometryCertificate(1, 3, 5),
        ("d1", "d2", "n"), CERTIFICATE),
    "NecessaryConditions": (
        lambda: NecessaryConditions(False, False, NonIsometryCertificate(1, 4, 5)),
        lambda: NecessaryConditions(True, False, None),
        ("a2", "b2", "certificate"),
        f"NecessaryConditions(a2=False, b2=False, certificate={CERTIFICATE})"),
    "GenusData": (
        lambda: GenusData(Signature(1, 1), module()),
        lambda: GenusData(Signature(1, 1), module(4)),
        ("signature", "module"),
        f"GenusData(signature=Signature(plus=1, minus=1), module={MODULE})"),
    "NikulinAttestation": (
        lambda: NikulinAttestation(2, Signature(1, 1), 1,
                                   ModuleIsometry(module(), module(), ((1,),))),
        lambda: NikulinAttestation(2, Signature(1, 1), 1,
                                   ModuleIsometry(module(), module(), ((2,),))),
        ("rank", "signature", "ell", "disc_iso"),
        "NikulinAttestation(rank=2, signature=Signature(plus=1, minus=1), ell=1, "
        f"disc_iso=ModuleIsometry(source={MODULE}, target={MODULE}, matrix=((1,),)))"),
    "FamilyBundle": (
        lambda: FamilyBundle(3, 2, "k3", (make_member(1, 3),), (), (), ()),
        lambda: FamilyBundle(3, 2, "abelian", (make_member(1, 3),), (), (), ()),
        ("n", "degree", "ambient", "members", "witnesses", "certificates", "attestations"),
        f"FamilyBundle(n=3, degree=2, ambient='k3', members=({MEMBER},), witnesses=(), "
        "certificates=(), attestations=())"),
    "OrbitReport": (
        lambda: polarization_orbits_in_u(6), lambda: polarization_orbits_in_u(3),
        ("count", "representatives", "orbits"),
        "OrbitReport(count=2, representatives=((1, 6), (2, 3)), orbits=(((-6, -1), (-1, -6), "
        "(1, 6), (6, 1)), ((-3, -2), (-2, -3), (2, 3), (3, 2))))"),
    "MukaiVector": (
        lambda: MukaiVector(1, 1, 2, 2), lambda: MukaiVector(2, 1, 1, 2),
        ("r", "h_mult", "s", "d"), "MukaiVector(r=1, h_mult=1, s=2, d=2)"),
    "PolarizedEmbedding": (
        lambda: PolarizedEmbedding(1, (1, 1)), lambda: PolarizedEmbedding(2, (1, 2)),
        ("d", "h"), "PolarizedEmbedding(d=1, h=(1, 1))"),
    "ModuliShadow": (
        lambda: ModuliShadow(U, (0, 1), SublatticeEmbedding(U, ((1, 1),))),
        lambda: ModuliShadow(U, (1, 0), SublatticeEmbedding(U, ((1, 1),))),
        ("quotient", "ns_generator", "transcendental"),
        f"ModuliShadow(quotient={U_REPR}, ns_generator=(0, 1), "
        f"transcendental=SublatticeEmbedding(ambient={U_REPR}, basis=((1, 1),)))"),
    "SearchBudget": (
        SearchBudget, lambda: SearchBudget(entry_bound=3, node_limit=7),
        ("entry_bound", "node_limit"), "SearchBudget(entry_bound=50, node_limit=10000000)"),
    "IsometryWitness": (
        lambda: IsometryWitness(U, U, ((0, 1), (1, 0))),
        lambda: IsometryWitness(U, U, ((1, 0), (0, 1))),
        ("source", "target", "matrix"),
        f"IsometryWitness(source={U_REPR}, target={U_REPR}, matrix=((0, 1), (1, 0)))"),
    "CheckResult": (
        lambda: CheckResult("name", True), lambda: CheckResult("name", False, "detail"),
        ("name", "passed", "detail"), "CheckResult(name='name', passed=True, detail='')"),
}


def test_every_value_class_has_a_sample():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_class_semantics(name):
    make, make_other, fields, printed = SAMPLES[name]
    x, copy, other = make(), make(), make_other()
    assert type(x).__name__ == type(other).__name__ == name
    assert repr(x) == printed
    assert hash(x) == hash(tuple(getattr(x, field) for field in fields))
    assert x == copy and hash(x) == hash(copy) and x is not copy
    assert x != other
    assert x.__eq__(object()) is NotImplemented
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.unlisted = None
    assert repr(x) == printed


def test_the_solver_is_neither_compared_nor_printed():
    a, b = quotient((1, 0, 0, 0)), quotient((1, 0, 0, 0))
    assert a._solve is not b._solve
    assert a == b and "_solve" not in repr(a)


def test_no_dataclass_is_left_in_src():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Name):
                assert node.id != "dataclass", path.name


# each generated __init__'s parameters as the hand-written one declared them
# (annotations aside): name, or name=default
GENERATED = {
    "FamilyMember": "d, n, lattice, embedding",
    "DiscIsoWitness": "d1, d2, n, alpha",
    "NonIsometryCertificate": "d1, d2, n",
    "NecessaryConditions": "a2, b2, certificate",
    "GenusData": "signature, module",
    "NikulinAttestation": "rank, signature, ell, disc_iso",
    "FamilyBundle": "n, degree, ambient, members, witnesses, certificates, attestations",
    "OrbitReport": "count, representatives, orbits",
    "MukaiVector": "r, h_mult, s, d",
    "PolarizedEmbedding": "d, h",
    "ModuliShadow": "quotient, ns_generator, transcendental",
    "SearchBudget": "entry_bound=50, node_limit=10000000",
    "IsometryWitness": "source, target, matrix",
    "CheckResult": "name, passed, detail=''",
}
# the classes that normalise their input in an __init__ of their own
NORMALISING = {
    "Lattice", "ModuleIsometry", "FiniteQuadraticModule", "SublatticeEmbedding",
    "IsotropicQuotient",
}
CLASSES = {cls.__name__: cls for cls in Frozen.__subclasses__()}
# the classes whose __post_init__ checks the fields, with valid integer fields
CHECKED = {
    "DiscIsoWitness": (1, 4, 3, 2),
    "NonIsometryCertificate": (1, 4, 5),
    "MukaiVector": (1, 1, 2, 2),
    "SearchBudget": (3, 7),
}


def parameters(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in params)


def test_only_the_normalising_classes_write_an_init():
    assert set(GENERATED) | NORMALISING == set(SAMPLES)
    for name, cls in CLASSES.items():
        # a generated __init__ is compiled from a string, not read from a file
        generated = cls.__init__.__code__.co_filename == "<string>"
        assert generated == (name in GENERATED), name
        assert "__init__" in cls.__dict__, name
    # the tracer wraps these two from the class __dict__
    assert {"Lattice", "ModuleIsometry"} <= NORMALISING


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_signature(name):
    cls = CLASSES[name]
    assert parameters(cls) == GENERATED[name]
    assert cls.__init__.__qualname__ == f"{name}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_init_refuses_a_bad_call(name):
    cls = CLASSES[name]
    fields = cls._fields
    required = len(fields) - len(cls._defaults)
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*[None] * (required - 1))
    with pytest.raises(TypeError, match="unexpected"):
        cls(*[None] * required, unlisted=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*[None] * len(fields), **{fields[0]: None})
    with pytest.raises(TypeError, match="positional"):
        cls(*[None] * (len(fields) + 1))


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_post_init_sees_every_field(name, monkeypatch):
    cls, args = CLASSES[name], CHECKED[name]
    seen = []
    monkeypatch.setattr(cls, "__post_init__",
                        lambda self: seen.append(tuple(vars(self)[f] for f in cls._fields)))
    cls(*args)
    assert seen == [args]


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_fields_must_be_integers(name):
    cls, args = CLASSES[name], CHECKED[name]
    cls(*args)
    for i, field in enumerate(cls._fields):
        for bad in (2.5, float(args[i]), True, False, str(args[i]), None):
            wrong = args[:i] + (bad,) + args[i + 1:]
            with pytest.raises(LatfmError, match=f"{name}.{field} must be an integer"):
                cls(*wrong)


def test_a_field_name_that_is_no_identifier_fails_at_class_creation():
    for fields in (("a b",), ("x", "1y"), ("class",), ("a, b",), ("a=0",)):
        with pytest.raises(SyntaxError):
            type("Probe", (Frozen,), {"_fields": fields})
    # _defaults that are not the trailing fields
    with pytest.raises(KeyError):
        type("Probe", (Frozen,), {"_fields": ("a", "b"), "_defaults": {"a": 0}})
    # the refused classes leave nothing among the value classes
    gc.collect()
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(SAMPLES)
