"""The record classes: immutable, documented, dataclasses only where a
dataclass feature is used, and the strings users read from them pinned."""

import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import tldforge
from tldforge.analysis import RemovedCheck
from tldforge.ast import TypeCheck, Var
from tldforge.codegen import mult_to_mercury_determinism
from tldforge.derive import normalize
from tldforge.diagnostics import SourcePos, error
from tldforge.modes import INF, STAR, Multiplicity
from tldforge.parser import parse_tlds, parse_types
from tldforge.semantics import _Position
from tldforge.transform import simplify_description, transform_tld
from tldforge.workspace import load_workspace


def _is_record(obj) -> bool:
    return dataclasses.is_dataclass(obj) or (issubclass(obj, tuple)
                                             and hasattr(obj, "_fields"))


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

# dataclasses that use no field option and no __post_init__, with the
# feature they need instead
PLAIN_DATACLASSES = {
    "Workspace": "dataclasses.replace",
    "Alias": "not equal to a Builtin of the same text",
    "Builtin": "not equal to an Alias of the same text",
}


def _blank(cls):
    """An instance with None in every field, built without validation."""
    if dataclasses.is_dataclass(cls):
        inst = object.__new__(cls)
        for f in dataclasses.fields(cls):
            object.__setattr__(inst, f.name, None)
        return inst
    return cls._make([None] * len(cls._fields))


def test_the_records_are_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"SourcePos", "Multiplicity", "Token", "Clause", "Spec", "LoadResult",
            *MUTABLE, *PLAIN_DATACLASSES} <= names
    assert len(names) == len(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_are_immutable(cls):
    inst = _blank(cls)
    name = (dataclasses.fields(cls)[0].name if dataclasses.is_dataclass(cls)
            else cls._fields[0])
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
    # without one, @dataclass builds a docstring from inspect.signature at
    # import, and NamedTuple writes "Name(field, ...)"
    doc = vars(cls).get("__doc__")
    assert doc and not doc.startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", [c for c in RECORDS if dataclasses.is_dataclass(c)],
                         ids=lambda cls: cls.__qualname__)
def test_dataclasses_use_a_dataclass_feature(cls):
    # a plain value record is a NamedTuple: a frozen dataclass costs about
    # 0.8 ms of import per class, a NamedTuple about 0.1 ms
    fields = dataclasses.fields(cls)
    uses = (cls.__name__ in MUTABLE or "__post_init__" in vars(cls)
            or any(not f.compare or not f.repr for f in fields))
    assert uses != (cls.__name__ in PLAIN_DATACLASSES)
    assert cls.__dataclass_params__.frozen == (cls.__name__ not in MUTABLE)


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
