import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from tldforge import ast
from tldforge.diagnostics import SourcePos
from tldforge.ast import (And, Atom, Eq, Exists, Or, Struct, Var, free_names,
                          free_variables, rename_free, substitute)
from tldforge.errors import NonGroundSubstituteError, UnboundVariableError
from tldforge.parser import parse_formula, parse_term, parse_tlds, parse_types
from tldforge.semantics import _term_value
from util import reference_term_eq

zero = Struct("zero")
s_zero = Struct("s", (zero,))


def test_variable_names_must_start_upper_or_underscore():
    Var("X")
    Var("_tmp")
    with pytest.raises(ValueError):
        Var("x")
    with pytest.raises(ValueError):
        Var("")


def test_arity_tracks_args():
    t = Struct("f", (zero, Var("X")))
    assert t.arity == 2
    assert Struct("a").arity == 0


def test_ground_by_traversal():
    assert ast.ground(s_zero)
    assert not ast.ground(Struct("s", (Var("X"),)))
    assert not ast.ground(Var("X"))


def test_term_depth_counts_constants_as_one():
    assert ast.term_depth(zero) == 1
    assert ast.term_depth(s_zero) == 2
    assert ast.term_depth(Struct("f", (s_zero, zero))) == 3


def test_int_literals_are_zero_ary_functors():
    assert ast.int_value(Struct("3")) == 3
    assert ast.int_value(Struct("-2")) == -2
    assert ast.int_value(Struct("-infinite")) is None
    assert ast.is_float_literal(Struct("1.5"))


def test_and_or_need_two_items():
    with pytest.raises(ValueError):
        And((Eq(zero, zero),))
    with pytest.raises(ValueError):
        Or(())


def test_free_variables_single_occurrence():
    f = Eq(Var("X"), zero)
    assert free_variables(f, {"X": "nat"}) == (("X", "nat"),)


def test_free_variables_exclude_bound():
    f = Exists("X", "nat", Eq(Var("X"), Var("Y")))
    assert free_variables(f, {"Y": "term"}) == (("Y", "term"),)


def test_free_variables_of_generalized_accumulator_description():
    text = """
    max_prefix_gen(L: integer_list, M: integer, A: integer) <=>
        L = [] /\\ M = A
        \\/ exists M1: integer .
            L = [H | T] /\\ max_prefix_gen(T, M1, H + A) /\\ max(H + A, M1, M).
    """
    tld = parse_tlds(text)[0][0]
    assert free_variables(tld.definition, tld.param_env()) == (
        ("L", "integer_list"), ("M", "integer"), ("A", "integer"))


def test_free_variables_requires_environment_entry():
    with pytest.raises(UnboundVariableError):
        free_variables(Eq(Var("X"), zero), {})


def test_substitute_replaces_free_occurrences():
    f = Eq(Var("X"), zero)
    assert substitute(f, {"X": zero}) == Eq(zero, zero)


def test_substitute_leaves_binders_alone():
    f = Exists("X", "nat", Eq(Var("X"), Var("Y")))
    got = substitute(f, {"Y": s_zero})
    assert got == Exists("X", "nat", Eq(Var("X"), s_zero))
    shadowed = substitute(f, {"X": zero})
    assert shadowed == f


def test_substitute_through_conjunction():
    f = And((Eq(Var("X"), Var("Y")), Eq(Var("Y"), Var("Z"))))
    got = substitute(f, {"Y": zero})
    assert got == And((Eq(Var("X"), zero), Eq(zero, Var("Z"))))


def test_substitute_rejects_nonground_replacement():
    with pytest.raises(NonGroundSubstituteError):
        substitute(Eq(Var("X"), zero), {"X": Var("Y")})


def test_rename_free_respects_shadowing():
    f = And((Eq(Var("X"), zero), Exists("X", "nat", Eq(Var("X"), zero))))
    got = rename_free(f, "X", "W")
    assert got == And((Eq(Var("W"), zero), Exists("X", "nat", Eq(Var("X"), zero))))


names = st.sampled_from(["X", "Y", "Z", "W"])
grounds = st.sampled_from([zero, s_zero, Struct("a"), Struct("f", (zero, zero))])


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Eq(Var(draw(names)), draw(grounds))
        if kind == 1:
            return Eq(Var(draw(names)), Var(draw(names)))
        return Atom("p", (Var(draw(names)),))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return And((draw(formulas(depth - 1)), draw(formulas(depth - 1))))
    if kind == 1:
        return Or((draw(formulas(depth - 1)), draw(formulas(depth - 1))))
    if kind == 2:
        return ast.Not(draw(formulas(depth - 1)))
    return Exists(draw(names), "nat", draw(formulas(depth - 1)))


@given(formulas(), st.dictionaries(names, grounds, max_size=3))
def test_substitution_removes_exactly_the_bound_names(f, binding):
    free_before = set(free_names(f))
    applicable = {k: v for k, v in binding.items() if k in free_before}
    after = substitute(f, applicable)
    assert set(free_names(after)) == free_before - set(applicable)


# one formula of each kind, each node positioned
KIND_TEXTS = {
    "TrueF": "true",
    "FalseF": "false",
    "Eq": "X = s(Y)",
    "Atom": "q(X, zero)",
    "And": "X = zero /\\ q(X) /\\ true",
    "Or": "X = zero \\/ false \\/ ~q(X)",
    "Not": "~(X = zero \\/ q(Y))",
    "Implies": "q(X) => (X = zero <=> ~q(Y))",
    "Iff": "q(X) <=> (exists Z: nat . X = s(Z))",
    "Exists": "exists Y: nat . X = s(Y) /\\ q(Y)",
    "Forall": "forall Y: nat . q(Y) => X = Y",
}


def _positioned(f):
    """``f`` with every connective the parser leaves unpositioned at 9:9."""
    children = tuple(map(_positioned, ast.subformulas(f)))
    if isinstance(f, (And, Or)):
        return type(f)(children, SourcePos("<formula>", 9, 9))
    return ast.with_subformulas(f, children)


def _preorder(f) -> list:
    return [f] + [g for child in ast.subformulas(f) for g in _preorder(child)]


@pytest.mark.parametrize("kind", KIND_TEXTS)
def test_walk_and_with_subformulas_cover_every_formula_kind(kind):
    f = _positioned(parse_formula(KIND_TEXTS[kind]))
    assert type(f).__name__ == kind and f.pos is not None
    nodes = list(ast.walk(f))
    assert len(nodes) == len(_preorder(f))
    assert all(a is b for a, b in zip(nodes, _preorder(f)))
    rebuilt = ast.with_subformulas(f, ast.subformulas(f))
    assert type(rebuilt) is type(f) and rebuilt == f and rebuilt.pos == f.pos
    if ast.subformulas(f):
        new = ast.with_subformulas(f, tuple(ast.TRUE for _ in ast.subformulas(f)))
        assert type(new) is type(f) and new.pos == f.pos
        assert ast.subformulas(new) == tuple(ast.TRUE for _ in ast.subformulas(f))


@given(formulas())
def test_walk_is_the_recursive_preorder(f):
    assert list(ast.walk(f)) == _preorder(f)
    assert ast.with_subformulas(f, ast.subformulas(f)) == f


def test_with_subformulas_refuses_a_non_formula():
    with pytest.raises(TypeError, match="not a formula"):
        ast.with_subformulas(zero, ())
    with pytest.raises(TypeError, match="not a formula"):
        substitute(zero, {"X": zero})


def test_all_names_are_the_free_names_and_the_binders():
    f = parse_formula("exists Y: nat . X = s(Y) /\\ (forall W: nat . q(W)) /\\ ~q(V)")
    assert ast.all_names(f) == {"X", "Y", "W", "V"}


def test_positions_do_not_affect_equality():
    a = parse_formula("X = zero /\\ q(X)")
    b = And((Eq(Var("X"), zero), Atom("q", (Var("X"),))))
    assert a == b


# -- hash-consed terms ----------------------------------------------------------

_CONSTANTS = ["zero", "apple", "1", "[]"]
_FUNCTORS = [("s", 1), ("f", 2), ("[|]", 2), ("g", 3)]


def _random_spec(rng, depth, names):
    """A random term as nested (functor, children) pairs, or a variable name."""
    r = rng.random()
    if names and r < 0.2:
        return rng.choice(names)
    if depth <= 0 or r < 0.45:
        return (rng.choice(_CONSTANTS), ())
    functor, arity = rng.choice(_FUNCTORS)
    return (functor, tuple(_random_spec(rng, depth - 1, names) for _ in range(arity)))


def _build(spec, as_list=False):
    if isinstance(spec, str):
        return Var(spec)
    functor, children = spec
    args = [_build(c, as_list) for c in children]
    return Struct(functor, args if as_list else tuple(args))


def _text(spec) -> str:
    if isinstance(spec, str):
        return spec
    functor, children = spec
    if functor == "[|]":
        return f"[{_text(children[0])} | {_text(children[1])}]"
    return functor if not children else f"{functor}({', '.join(map(_text, children))})"


def _hole(spec, rng, binding):
    """The spec with some subterms replaced by fresh variables, and the
    binding from those variables to the subterms they replaced."""
    if not isinstance(spec, str) and rng.random() < 0.3:
        name = f"V{len(binding)}"
        binding[name] = _build(spec)
        return name
    if isinstance(spec, str):
        return spec
    functor, children = spec
    return (functor, tuple(_hole(c, rng, binding) for c in children))


def _spec_of(t):
    return t.name if isinstance(t, Var) else (t.functor, tuple(map(_spec_of, t.args)))


def test_equal_terms_are_one_object_however_built():
    # a term built from tuples, from lists, by the parser, by substitution,
    # by the evaluator's value closures or by enumeration is the one live
    # object of its structure: == is structural equality and is identity
    rng = random.Random(14)
    pool = []
    for _ in range(600):
        spec = _random_spec(rng, 3, ["X", "Y"])
        built = [_build(spec), _build(spec, as_list=True), parse_term(_text(spec))]
        binding: dict = {}
        pattern = _hole(spec, rng, binding)
        built.append(ast.subst_term(_build(pattern), binding))
        value = _term_value(_build(pattern))(binding)
        if value is not None:
            built.append(value)
        assert all(t is built[0] for t in built), spec
        pool.append(built[rng.randrange(len(built))])
    env, _ = parse_types("nat ::= zero | s(nat).")
    universe = env.enumerate_type("term", 2)
    assert all(_build(_spec_of(t)) is t for t in universe)
    pool += rng.sample(universe, 50)
    pool += [_build(_spec_of(t)) for t in rng.sample(pool, 100)]
    same = 0
    for _ in range(20000):
        a, b = rng.choice(pool), rng.choice(pool)
        assert (a == b) == reference_term_eq(a, b) == (a is b), (a, b)
        assert (a != b) == (a is not b)
        same += a is b
    assert same >= 100
    assert len(set(pool)) == len({id(t) for t in pool})


def test_copies_of_a_term_are_the_term():
    for t in (Var("X"), zero, Struct("f", (s_zero, Var("Y"), Struct("[|]", (zero, Struct("[]")))))):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, (t,)])[1][0] is t
        assert pickle.loads(pickle.dumps(t)) is t


def test_terms_are_immutable():
    t = Struct("f", (zero, Var("X")))
    for obj, name in ((t, "functor"), (t, "args"), (t, "is_ground"), (t, "other"),
                      (Var("X"), "name"), (Var("X"), "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, zero)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert t.functor == "f" and t.args == (zero, Var("X"))
    with pytest.raises(ValueError):
        Var("x")


def test_groundness_is_set_when_a_term_is_built():
    assert zero.is_ground and s_zero.is_ground
    assert not Var("X").is_ground
    assert not Struct("f", (zero, Struct("s", (Var("X"),)))).is_ground
    assert Struct("f", [zero, s_zero]).is_ground


def test_the_table_lets_dead_terms_go():
    t = Struct("gc_probe", (Struct("gc_leaf"), Var("Gc_var")))
    dead = weakref.ref(t)

    def probes():
        return [k for k in ast._TERMS
                if k == "Gc_var" or isinstance(k, tuple) and k[0] in ("gc_probe", "gc_leaf")]

    assert len(probes()) == 3
    del t
    gc.collect()
    assert dead() is None
    assert probes() == []
    again = Struct("gc_probe", (Struct("gc_leaf"), Var("Gc_var")))
    assert len(probes()) == 3 and again.args[1] is Var("Gc_var")


def test_a_dead_ref_removes_only_its_own_entry():
    t = Struct("forget_probe")
    key = ("forget_probe", ())
    entry = ast._TERMS[key]
    ast._forget(weakref.KeyedRef(t, None, key))  # a ref the table no longer holds
    assert ast._TERMS[key] is entry and entry() is t
