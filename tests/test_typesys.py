import random

import pytest

from tldforge import ast
from tldforge.ast import Eq, Exists, Struct, Var
from tldforge.errors import (NonGroundTermError, NotStructuralError,
                             UnknownTypeError)
from tldforge.parser import parse_types
from tldforge.semantics import EvalContext, TRUE, evaluate
from tldforge.typesys import (FLOAT_SAMPLE, Alias, Case, Cases, TypeDef, TypeEnv,
                              check_env)

zero = Struct("zero")


def nat(n: int):
    t = zero
    for _ in range(n):
        t = Struct("s", (t,))
    return t


def test_builtins_always_present():
    env = TypeEnv()
    for name in ("term", "integer", "float", "atom", "list"):
        assert name in env


def test_mutual_recursion_is_rejected():
    env, diags = parse_types("t1 == t2.\nt2 ::= c | wrap(t1).")
    diags += check_env(env)
    errors = [d for d in diags if d.code == "mutual-recursion"]
    assert errors
    assert "t1" in errors[0].message and "t2" in errors[0].message


def test_example_types_are_clean(example_env):
    assert not [d for d in check_env(example_env) if d.severity == "error"]


def test_self_recursion_is_allowed():
    env, diags = parse_types("nat ::= zero | s(nat).")
    assert not diags and not check_env(env)


def test_alias_of_itself_is_rejected():
    env, _ = parse_types("t == t.")
    assert any(d.code == "mutual-recursion" for d in check_env(env))


def test_unknown_reference_is_reported():
    env, _ = parse_types("t ::= c(missing).")
    assert any(d.code == "unknown-type" for d in check_env(env))


def test_empty_type_warns():
    env, _ = parse_types("inf ::= f(inf).")
    # oracle: bounded enumeration finds no members at any depth
    for k in range(1, 6):
        assert env.enumerate_type("inf", k) == ()
    warnings = [d for d in check_env(env) if d.code == "empty-type"]
    assert warnings and warnings[0].severity == "warning"


# -- membership ----------------------------------------------------------------

def test_member_by_unfolding(example_env):
    assert example_env.is_member("nat", nat(2))
    assert not example_env.is_member("nat", Struct("banana"))
    assert example_env.is_member(
        "nat_list", Struct("cons_list", (zero, Struct("empty_list"))))
    assert not example_env.is_member(
        "nat_list", Struct("cons_list", (Struct("banana"), Struct("empty_list"))))


def test_member_builtin_kinds(example_env):
    assert example_env.is_member("term", Struct("anything", (zero,)))
    assert example_env.is_member("integer", Struct("-3"))
    assert not example_env.is_member("integer", Struct("banana"))
    assert example_env.is_member("float", Struct("1.5"))
    assert example_env.is_member("atom", Struct("-infinite"))
    assert not example_env.is_member("atom", Struct("7"))


def test_member_requires_ground(example_env):
    with pytest.raises(NonGroundTermError):
        example_env.is_member("nat", Struct("s", (Var("X"),)))


def test_member_unknown_type(example_env):
    with pytest.raises(UnknownTypeError):
        example_env.is_member("nope", zero)


def test_enumerate_unknown_type(example_env):
    with pytest.raises(UnknownTypeError):
        example_env.enumerate_type("nope", 2)


# -- bounded enumeration --------------------------------------------------------

def test_enumerate_nat_to_depth_three(example_env):
    assert set(example_env.enumerate_type("nat", 3)) == {nat(0), nat(1), nat(2)}


def test_enumerate_fruit_is_its_atoms(example_env):
    got = set(example_env.enumerate_type("fruit", 1))
    assert got == {Struct(a) for a in
                   ("orange", "apple", "banana", "pineapple", "strawberry")}


def test_enumerate_integer_sample(example_env):
    assert set(example_env.enumerate_type("integer", 1)) == {
        Struct(str(i)) for i in range(-2, 3)}


def test_enumerate_agrees_with_membership(example_env):
    # enumerate(T, k) must equal the members of T within the bounded universe
    for k in (1, 2, 3):
        universe = example_env.enumerate_type("term", k)
        for tname in ("nat", "list", "nat_list", "fruit", "nat_set"):
            enumerated = set(example_env.enumerate_type(tname, k))
            filtered = {t for t in universe if example_env.is_member(tname, t)}
            assert enumerated == filtered, (tname, k)
            assert all(ast.term_depth(t) <= k for t in enumerated)


def test_alias_transparency(example_env):
    for t in example_env.enumerate_type("term", 3):
        assert (example_env.is_member("nat_set", t)
                == example_env.is_member("nat_list", t))


def test_enumeration_is_deterministic(example_env):
    fresh, _ = parse_types(
        "fruit ::= enum {orange, apple, banana, pineapple, strawberry}.\n"
        "nat ::= zero | s(nat).\n"
        "list ::= empty_list | cons_list(term, list).\n"
        "nat_list ::= empty_list | cons_list(nat, nat_list).\n"
        "nat_set == nat_list.\n")
    for tname in ("nat", "nat_list", "term"):
        assert fresh.enumerate_type(tname, 3) == example_env.enumerate_type(tname, 3)


# -- the counted universe against the enumerated one ----------------------------

def _random_env(rng: random.Random) -> TypeEnv:
    """Constructor types over a few constants and unary functors, with
    components at integer, float, atom, term, list and earlier types; a
    list-shaped type, a duplicate case, an empty type and an alias."""
    consts = rng.sample(["a", "b", "c", "0"], rng.randint(1, 3))
    unary = rng.sample(["f", "g"], rng.randint(1, 2))
    names: list = []
    defs = []
    for i in range(3):
        name = f"t{i}"
        pool = ["integer", "float", "atom", "term", "list", name] + names
        cases = [Case(rng.choice(consts))]
        cases += [Case(rng.choice(unary), (rng.choice(pool),))
                  for _ in range(rng.randint(1, 3))]
        defs.append(TypeDef(name, Cases(tuple(cases))))
        names.append(name)
    defs += [
        TypeDef("ilist", Cases((Case("[]"), Case("[|]", ("integer", "ilist"))))),
        TypeDef("dup", Cases((Case(unary[0], ("integer",)),
                              Case(unary[0], (rng.choice(names),)),
                              Case(consts[0])))),
        TypeDef("empty", Cases((Case(unary[-1], ("empty",)),))),
        TypeDef("al", Alias(rng.choice(names + ["integer", "ilist"]))),
    ]
    return TypeEnv(defs)


def _terms_off_the_universe(env: TypeEnv) -> list:
    """Float leaves, an integer outside the sample and an undeclared
    functor, alone and under each declared constructor."""
    leaves = [*FLOAT_SAMPLE, Struct("7"), Struct("mk", (Struct("0"),))]
    return leaves + [Struct(f, (x,) * n) for f, n in env.signature() if n for x in leaves]


@pytest.mark.parametrize("seed", range(6))
def test_counted_universe_matches_the_enumerated_one(seed):
    env = _random_env(random.Random(seed))
    assert check_env(env)  # the empty type warns
    for depth in (1, 2, 3):
        universe = env.enumerate_type("term", depth)
        assert env.count_terms(depth) == len(universe)
        shuffled = list(universe)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled, key=env.universe_key) == list(universe)
        probes = list(universe) + _terms_off_the_universe(env)
        for tname in env.defs:
            members = set(env.enumerate_type(tname, depth))
            assert env.inhabited(tname, depth) is bool(members), (tname, depth)
            assert all(env.bounded_member(tname, v, depth) for v in members)
            for v in probes:
                assert env.bounded_member(tname, v, depth) is (v in members), \
                    (seed, tname, depth, v)
        assert not env.inhabited("empty", depth)
        assert not any(env.bounded_member("term", v, depth) for v in FLOAT_SAMPLE)


# -- structural forms ------------------------------------------------------------

def test_structural_forms_for_builtin_list():
    env = TypeEnv()
    forms = env.structural_forms("list", "L")
    assert forms[0] == Eq(Var("L"), Struct("[]"))
    assert forms[1] == Exists("H", "term", Exists("T", "list",
                                                  Eq(Var("L"), ast.cons(Var("H"), Var("T")))))


def test_structural_forms_for_nat(example_env):
    forms = example_env.structural_forms("nat", "X")
    assert forms[0] == Eq(Var("X"), zero)
    assert forms[1] == Exists("N", "nat", Eq(Var("X"), Struct("s", (Var("N"),))))


def test_structural_forms_for_enumeration(example_env):
    forms = example_env.structural_forms("fruit", "X")
    assert len(forms) == 5
    assert all(isinstance(f, Eq) for f in forms)


def test_structural_forms_resolve_aliases(example_env):
    forms = example_env.structural_forms("nat_set", "S")
    assert len(forms) == 2


def test_structural_forms_reject_builtins(example_env):
    with pytest.raises(NotStructuralError):
        example_env.structural_forms("integer", "X")


def test_structural_forms_partition_the_type(example_env):
    # each member satisfies exactly one case formula
    ctx = EvalContext(example_env, {}, universe_depth=3, unfold_depth=2)
    for tname in ("nat", "fruit", "nat_list"):
        forms = example_env.structural_forms(tname, "V")
        for t in example_env.enumerate_type(tname, 3):
            satisfied = [f for f in forms
                         if evaluate(ctx, f, {"V": t}) is TRUE]
            assert len(satisfied) == 1, (tname, t)
