"""The record classes: immutable, documented, built records only where a
NamedTuple cannot serve, and the strings users read from them pinned."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import tldforge
from tldforge.analysis import RemovedCheck
from tldforge.ast import And, Clause, Eq, Struct, TypeCheck, Var
from tldforge.codegen import mult_to_mercury_determinism
from tldforge.derive import normalize
from tldforge.diagnostics import SourcePos, error
from tldforge.modes import GROUND, INF, STAR, Directionality, Multiplicity
from tldforge.parser import parse_tlds, parse_types
from tldforge.records import _ORIGIN
from tldforge.semantics import _Position
from tldforge.transform import simplify_description, transform_tld
from tldforge.typesys import Alias, Builtin
from tldforge.workspace import load_workspace


def _is_record(obj) -> bool:
    return hasattr(obj, "_fields")


def _is_built(cls) -> bool:
    return not issubclass(cls, tuple)


def _records() -> list:
    out = []
    for info in pkgutil.iter_modules(tldforge.__path__):
        module = importlib.import_module(f"tldforge.{info.name}")
        out += [obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and _is_record(obj)]
    return sorted(out, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _records()

# filled in as a check or a pipeline run goes, so they are mutable
MUTABLE = {"EquivalenceReport", "AgreementReport", "PipelineResult"}

# built records with no uncompared field, no validation and no mutation:
# each must differ from the other when their fields are equal, which
# NamedTuples, being tuples, would not
SAME_SHAPED = {"Alias", "Builtin"}


def _filled(cls, values):
    """An instance with ``values`` in its fields, built without validation."""
    if not _is_built(cls):
        return cls._make(values)
    inst = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(inst, name, value)
    return inst


def _blank(cls):
    """An instance with None in every field, built without validation."""
    return _filled(cls, [None] * len(cls._fields))


def test_the_records_are_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"SourcePos", "Multiplicity", "Token", "Clause", "Spec", "LoadResult",
            "Workspace", *MUTABLE, *SAME_SHAPED} <= names
    assert len(names) == len(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_are_immutable(cls):
    inst = _blank(cls)
    name = cls._fields[0]
    if cls.__name__ in MUTABLE:
        setattr(inst, name, 1)
        return
    with pytest.raises(AttributeError):
        setattr(inst, name, 1)
    with pytest.raises(AttributeError):
        delattr(inst, name)
    with pytest.raises(AttributeError):
        inst.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_have_their_own_docstring(cls):
    # without one, a NamedTuple writes "Name(field, ...)"
    doc = vars(cls).get("__doc__")
    assert doc and not doc.startswith(f"{cls.__name__}(")


BUILT = [cls for cls in RECORDS if _is_built(cls)]


@pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__qualname__)
def test_dataclasses_use_a_dataclass_feature(cls):
    # a built record stands where a dataclass stood, and only for a feature
    # a NamedTuple lacks; a plain value record is a NamedTuple, which costs
    # less import time
    uses = (cls.__name__ in MUTABLE or "__post_init__" in vars(cls)
            or not set(_ORIGIN).isdisjoint(cls._fields))
    assert uses != (cls.__name__ in SAME_SHAPED)
    assert (cls.__hash__ is None) == (cls.__name__ in MUTABLE)


def test_records_of_the_same_shape_differ():
    assert Alias("nat") != Builtin("nat") and Alias("nat") == Alias("nat")


@pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__qualname__)
def test_built_records_behave_as_the_dataclasses_they_replaced(cls):
    # the dataclass each record was: equality and hashing skip the origin
    # fields, and repr skips pos
    reference = dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(compare=name not in _ORIGIN, repr=name != "pos"))
        for name in cls._fields], frozen=cls.__name__ not in MUTABLE)
    values = [f"v{i}" for i in range(len(cls._fields))]
    inst, ref = _filled(cls, values), reference(*values)
    assert repr(inst) == repr(ref)
    assert inst._asdict() == dataclasses.asdict(ref)
    moved = _filled(cls, [f"w{i}" if name in _ORIGIN else v
                          for i, (name, v) in enumerate(zip(cls._fields, values))])
    assert inst == moved and not inst != moved
    changed = _filled(cls, [f"w{i}" for i in range(len(values))])
    assert (inst == changed) == all(name in _ORIGIN for name in cls._fields)
    if cls.__name__ not in MUTABLE:
        compared = tuple(v for name, v in zip(cls._fields, values) if name not in _ORIGIN)
        assert hash(inst) == hash(compared) == hash(ref) == hash(moved)


def test_replace_copy_and_pickle_keep_a_record():
    pos = SourcePos("w.tld", 1, 2)
    eq = Eq(Var("X"), Struct("zero"), pos)
    clause = Clause("p", (Var("X"),), (TypeCheck("nat", Var("X"), pos),), "disjunct 1 of 1")
    d = Directionality(((GROUND, GROUND),), Multiplicity(0, 1))
    for inst in (eq, clause, d):
        for other in (inst._replace(), copy.copy(inst), copy.deepcopy(inst),
                      pickle.loads(pickle.dumps(inst))):
            assert other == inst and repr(other) == repr(inst)
            assert other._asdict() == inst._asdict()
    assert eq._replace(right=Var("Y")) == Eq(Var("X"), Var("Y"))
    assert eq._replace(right=Var("Y")).pos == pos
    with pytest.raises(TypeError):
        eq._replace(middle=Var("Y"))
    with pytest.raises(ValueError):  # __post_init__ runs again
        And((eq, eq))._replace(items=(eq,))


def test_repr_of_a_record_of_each_module():
    assert repr(RemovedCheck(0, 2, TypeCheck("nat", Var("X")))) == (
        "RemovedCheck(clause_index=0, position=2, literal=TypeCheck(type_name='nat', arg=X))")
    assert repr(mult_to_mercury_determinism(Multiplicity(1, 1))) == (
        "DeterminismMapping(name='det', widened=None)")
    assert repr(mult_to_mercury_determinism(Multiplicity(2, 3))) == (
        "DeterminismMapping(name='nondet', widened=Multiplicity(min=0, max='inf'))")
    env, _ = parse_types("nat ::= zero | s(nat).")
    assert repr(env.defs["nat"].body) == (
        "Cases(cases=(Case(functor='zero', components=()), "
        "Case(functor='s', components=('nat',))))")
    tlds, _ = parse_tlds("p(X: nat) <=> X = zero \\/ exists Y: nat . X = s(Y).", "w.tld")
    nb = normalize(simplify_description(transform_tld(tlds[0])), frozenset(env.defs))
    assert repr(nb.disjuncts[0]) == (
        "Disjunct(exvars=(), literals=(TypeCheck(type_name='nat', arg=X), "
        "Unify(left=X, right=zero)))")
    assert repr(Multiplicity(0, STAR)) == "Multiplicity(min=0, max='*')"
    assert repr(_Position("X", None, None, 3, ([], 0), (None, 0))) == (
        "_Position(name='X', ordered=None, members=None, count=3, "
        "open=([], 0), decided=(None, 0))")
    missing = Path("no") / "such" / "manifest.txt"
    assert repr(load_workspace(missing)) == (
        "LoadResult(workspace=None, diagnostics=[SourceDiagnostic(severity='error', "
        f"code='missing-file', message='manifest not found: {missing}', pos=None)])")


def test_strings_users_read():
    pos = SourcePos("manifest.txt", 2, 1)
    assert str(pos) == "manifest.txt:2:1"
    assert repr(pos) == "SourcePos(file='manifest.txt', line=2, col=1)"
    assert str(Multiplicity(1, INF)) == "<1-inf>"
    assert str(Multiplicity(0, STAR)) == "<0-*>"
    d = error("missing-file", "file not found: nope.spec", pos)
    assert d.format() == "manifest.txt:2:1: error[missing-file]: file not found: nope.spec"
    assert error("x", "y").format() == "<unknown>:0:0: error[x]: y"
