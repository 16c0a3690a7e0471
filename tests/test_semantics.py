import itertools
import operator
import random

import pytest

from fixture_formulas import fixture_cases, fixture_context
from tldforge import ast, workspace
from tldforge.ast import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, Struct, Var
from tldforge.errors import MissingBindingError, UnboundVariableError, UnknownPredicateError
from tldforge.parser import parse_formula, parse_tlds, parse_types
from tldforge.modes import Mode
from tldforge.semantics import (BUILTINS, EvalContext, FALSE, TRUE, TYPED, UNKNOWN, UNTYPED,
                                _builtin_solution, _Evaluator, _NO_SOLUTION,
                                _NOT_DETERMINED, _term_matcher, _term_value, check_agreement,
                                check_equivalence, evaluate, evaluate_reference)
from tldforge.transform import simplify_checks, transform_formula, transform_tld
from util import reference_match

zero = Struct("zero")


@pytest.fixture(scope="module")
def ctx():
    env, _ = parse_types("nat ::= zero | s(nat).\nfruit ::= enum {banana, apple}.")
    tlds, _ = parse_tlds("q(X: nat) <=> X = zero \\/ X = s(zero).")
    q = tlds[0]
    return EvalContext(env, {"q": (q, transform_tld(q))},
                       universe_depth=2, unfold_depth=3)


def test_ground_equality(ctx):
    assert evaluate(ctx, Eq(zero, zero), {}) is TRUE
    assert evaluate(ctx, Eq(zero, Struct("banana")), {}) is FALSE


def test_exists_finds_witness(ctx):
    f = parse_formula("exists X: nat . X = s(zero)")
    assert evaluate(ctx, f, {}) is TRUE
    deep = parse_formula("exists X: nat . X = s(s(s(zero)))")
    assert evaluate(ctx, deep, {}) is FALSE  # witness exceeds the depth bound


def test_membership_atom(ctx):
    assert evaluate(ctx, Atom("nat", (Struct("banana"),)), {}) is FALSE
    assert evaluate(ctx, Atom("nat", (Struct("s", (zero,)),)), {}) is TRUE


def test_forall_over_type(ctx):
    f = parse_formula("forall X: fruit . fruit(X)")
    assert evaluate(ctx, f, {}) is TRUE
    g = parse_formula("forall X: nat . X = zero")
    assert evaluate(ctx, g, {}) is FALSE


def test_predicate_unfolding_and_budget(ctx):
    assert evaluate(ctx, Atom("q", (zero,)), {}) is TRUE
    two = Struct("s", (Struct("s", (zero,)),))
    assert evaluate(ctx, Atom("q", (two,)), {}) is FALSE
    env, _ = parse_types("nat ::= zero | s(nat).")
    tlds, _ = parse_tlds("loop(X: nat) <=> loop(X).")
    looping = EvalContext(env, {"loop": tlds[0]}, universe_depth=2, unfold_depth=3)
    assert evaluate(looping, Atom("loop", (zero,)), {}) is UNKNOWN


def test_a_bare_untyped_description_unfolds_on_both_sides():
    # an untyped description is a NamedTuple, not a (typed, untyped) pair
    env, _ = parse_types("nat ::= zero | s(nat).")
    tlds, _ = parse_tlds("q(X: nat) <=> X = zero.")
    c = EvalContext(env, {"q": transform_tld(tlds[0])}, universe_depth=2, unfold_depth=2)
    for side in (TYPED, UNTYPED):
        assert evaluate(c, Atom("q", (zero,)), {}, side=side) is TRUE
        assert evaluate_reference(c, Atom("q", (Struct("s", (zero,)),)), {},
                                  side=side) is FALSE


def test_unknown_is_viral_except_absorption(ctx):
    env, _ = parse_types("nat ::= zero | s(nat).")
    tlds, _ = parse_tlds("loop(X: nat) <=> loop(X).")
    c = EvalContext(env, {"loop": tlds[0]}, universe_depth=2, unfold_depth=2)
    unknown = Atom("loop", (zero,))
    assert evaluate(c, And((ast.FALSE, unknown)), {}) is FALSE
    assert evaluate(c, Or((ast.TRUE, unknown)), {}) is TRUE
    assert evaluate(c, And((ast.TRUE, unknown)), {}) is UNKNOWN
    assert evaluate(c, Not(unknown), {}) is UNKNOWN


def test_missing_binding_raises(ctx):
    with pytest.raises(MissingBindingError):
        evaluate(ctx, Eq(Var("X"), zero), {})


def test_unknown_predicate_raises(ctx):
    for run in (evaluate, evaluate_reference):
        with pytest.raises(UnknownPredicateError, match="no description for predicate mystery/2"):
            run(ctx, Atom("mystery", (zero, zero)), {})


def test_wrong_arity_call_raises_in_both_evaluators(ctx):
    one = Struct("1")
    for call, message in ((Atom("q", (zero, zero)), "q called with 2 args, defined with 1"),
                          (Atom("plus", (one, one)), "plus called with 2 args, defined with 3"),
                          (Atom("lt", (one, one, one)), "lt called with 3 args, defined with 2")):
        for run in (evaluate, evaluate_reference):
            with pytest.raises(UnknownPredicateError, match=message):
                run(ctx, call, {})


# each builtin's relation, as Python's operators state it
RELATIONS = {
    "plus": lambda a, b, c: a + b == c,
    "minus": lambda a, b, c: a - b == c,
    "times": lambda a, b, c: a * b == c,
    "max": lambda a, b, c: max(a, b) == c,
    "min": lambda a, b, c: min(a, b) == c,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}
SOLVED = [(name, hole) for name, (_, solve) in BUILTINS.items()
          for hole, entry in enumerate(solve) if entry is not None]


def _relation_holds(name, args) -> bool:
    values = [ast.int_value(a) for a in args]
    return None not in values and RELATIONS[name](*values)


def test_builtin_arithmetic_meanings(ctx):
    assert set(BUILTINS) == set(RELATIONS)
    nonint = Struct("+", (Struct("1"), Struct("1")))
    sample = [Struct(str(i)) for i in range(-7, 8)]
    for name, (_, solve) in BUILTINS.items():
        for args in itertools.product(sample, repeat=len(solve)):
            expected = TRUE if _relation_holds(name, args) else FALSE
            assert evaluate(ctx, Atom(name, args), {}) is expected, (name, args)
            assert evaluate_reference(ctx, Atom(name, args), {}) is expected, (name, args)
        for i in range(len(solve)):
            args = tuple(nonint if j == i else Struct("1") for j in range(len(solve)))
            for run in (evaluate, evaluate_reference):
                assert run(ctx, Atom(name, args), {}) is FALSE, (name, args)


def test_builtin_solutions_match_enumeration():
    """Each solved position's answer is what enumerating the relation finds:
    the one value, _NO_SOLUTION for none, _NOT_DETERMINED for two or more."""
    known = [Struct(str(i)) for i in range(-7, 8)] + [zero]
    candidates = [Struct(str(x)) for x in range(-60, 61)]
    for name, hole in SOLVED:
        for pair in itertools.product(known, repeat=2):
            found = [int(x.functor) for x in candidates
                     if _relation_holds(name, pair[:hole] + (x,) + pair[hole:])]
            expected = (found[0] if len(found) == 1 else
                        _NO_SOLUTION if not found else _NOT_DETERMINED)
            assert _builtin_solution(name, hole, pair) == expected, (name, hole, pair)


def test_builtin_solver_agrees_with_reference(ctx):
    """``exists Y: integer`` over a builtin call with Y at a solved position,
    alone and with ``Y = v`` after or before the call."""
    shallow = ctx._replace(universe_depth=1)
    sample = shallow.types.enumerate_type("integer", 1)
    known = list(sample) + [Struct("3"), Struct("7"), zero]
    y = Var("Y")
    checked = 0
    for name, hole in SOLVED:
        for pair in itertools.product(known, repeat=2):
            call = Atom(name, pair[:hole] + (y,) + pair[hole:])
            kernels = [call] + [And((call, Eq(y, v))) for v in sample] \
                + [And((Eq(y, v), call)) for v in sample]
            for kernel in kernels:
                f = Exists("Y", "integer", kernel)
                assert evaluate(shallow, f, {}) is evaluate_reference(shallow, f, {}), f
                checked += 1
    assert checked == 10_560


def test_builtin_spec_matches_the_table():
    """The .spec preamble declares the table's builtins with their arities, and
    every position a directionality solves (var -> ground) the table solves."""
    specs = workspace.builtin_specs()
    assert {s.name: len(s.params) for s in specs} == \
        {name: len(solve) for name, (_, solve) in BUILTINS.items()}
    for spec in specs:
        for d in spec.directionalities:
            for i, pair in enumerate(d.modes):
                if pair == (Mode.var, Mode.ground):
                    assert (spec.name, i) in SOLVED, (spec.name, i)


# -- equivalence checking -------------------------------------------------------

def test_equivalence_with_check_passes(ctx):
    typed = parse_formula("X = zero")
    untyped = transform_formula({"X": "nat"}, typed)
    rep = check_equivalence(ctx, typed, untyped, [("X", "nat")], depth=2)
    assert rep.ok and rep.violations == 0
    assert rep.outside > 0 and rep.outside_false == rep.outside


def test_equivalence_vacuous_falsity_is_distinguished(ctx):
    # the bare equation is false outside the type anyway; the report shows
    # the outside region was really checked rather than empty
    typed = parse_formula("X = zero")
    rep = check_equivalence(ctx, typed, typed, [("X", "nat")], depth=2)
    assert rep.ok
    assert rep.outside_false == rep.outside > 0


def test_equivalence_catches_missing_negation_check(ctx):
    typed = parse_formula("~(X = zero)")
    broken = parse_formula("~(X = zero)")
    rep = check_equivalence(ctx, typed, broken, [("X", "nat")], depth=2)
    assert not rep.ok and rep.violations >= 1
    assert rep.first_violation_kind == "outside-true"
    # [] is the first term of the universe and lies outside nat
    assert _check_against_brute_force(ctx, typed, broken, [("X", "nat")]) == rep
    assert rep.describe().splitlines()[-1] == "  first violation (outside-true): X = []"
    fixed = transform_formula({"X": "nat"}, typed)
    assert check_equivalence(ctx, typed, fixed, [("X", "nat")], depth=2).ok


def test_a_violation_prints_its_values_in_source_syntax(ctx):
    typed = parse_formula("X = [s(zero)]")
    rep = check_equivalence(ctx, typed, parse_formula("false"), [("X", "list")], depth=3)
    assert rep.violations == 1
    assert rep.describe().endswith("  first violation (inside-disagree): X = [s(zero)]")


def test_equivalence_counts_cover_the_full_space(ctx):
    typed = parse_formula("X = zero /\\ Y = zero")
    untyped = transform_formula({"X": "nat", "Y": "nat"}, typed)
    rep = check_equivalence(ctx, typed, untyped, [("X", "nat"), ("Y", "nat")], depth=2)
    u = len(ctx.types.enumerate_type("term", 2))
    assert rep.total == u * u
    assert rep.inside == len(ctx.types.enumerate_type("nat", 2)) ** 2
    assert rep.inside + rep.outside == rep.total


# -- the pruned sweep against brute-force enumeration ---------------------------

COUNTS = ("total", "outside", "outside_false", "inside", "inside_agree",
          "violations", "inconclusive")


def _brute_force(ctx, typed, untyped, freevars):
    """Every binding of the universe, in universe order, evaluated by
    evaluate_reference and classified as check_equivalence classifies a
    single binding: the counts, and the first violation with its kind."""
    universe = ctx.types.enumerate_type("term", ctx.universe_depth)
    members = [set(ctx.types.enumerate_type(t, ctx.universe_depth)) for _, t in freevars]
    counts = dict.fromkeys(COUNTS, 0)
    first = (None, None)
    for combo in itertools.product(universe, repeat=len(freevars)):
        binding = {n: v for (n, _), v in zip(freevars, combo)}
        ru = evaluate_reference(ctx, untyped, binding, side=UNTYPED)
        counts["total"] += 1
        if all(v in m for v, m in zip(combo, members)):
            counts["inside"] += 1
            rt = evaluate_reference(ctx, typed, binding, side=TYPED)
            kind = ("inconclusive" if UNKNOWN in (ru, rt)
                    else "inside_agree" if ru is rt else "violations")
            violation = "inside-disagree"
        else:
            counts["outside"] += 1
            kind = {FALSE: "outside_false", TRUE: "violations"}.get(ru, "inconclusive")
            violation = "outside-true"
        counts[kind] += 1
        if kind == "violations" and first == (None, None):
            first = (binding, violation)
    return counts, first


def _check_against_brute_force(ctx, typed, untyped, freevars):
    rep = check_equivalence(ctx, typed, untyped, freevars)
    counts, first = _brute_force(ctx, typed, untyped, freevars)
    assert {k: getattr(rep, k) for k in COUNTS} == counts
    assert (rep.first_violation, rep.first_violation_kind) == first
    return rep


def test_sweep_counts_match_brute_force_on_every_row():
    ctx = fixture_context(universe_depth=2)
    for name, typed, freevars in fixture_cases():
        untyped = simplify_checks(transform_formula(dict(freevars), typed))
        _check_against_brute_force(ctx, typed, untyped, freevars)
    typed = parse_formula("~(X = zero)")
    broken = Not(transform_formula({"X": "nat"}, parse_formula("X = zero")))
    rep = _check_against_brute_force(ctx, typed, broken, (("X", "nat"),))
    assert rep.violations >= 1


def test_first_violation_is_the_first_in_universe_order():
    ctx = fixture_context(universe_depth=2)
    cases = [
        # [] is outside nat: the first outside binding puts [] everywhere
        ("X = X /\\ Y = Y", "true", (("X", "list"), ("Y", "nat")),
         {"X": Struct("[]"), "Y": Struct("[]")}, "outside-true"),
        # [] is in both types: only the last position takes a value outside
        ("true", "true", (("X", "list"), ("Y", "list")),
         {"X": Struct("[]"), "Y": Struct("apple")}, "outside-true"),
        # an inside binding that disagrees comes before the first outside one
        ("Y = s(banana)", "q(zero)", (("X", "term"), ("Y", "list")),
         {"X": Struct("[]"), "Y": Struct("[]")}, "inside-disagree"),
        # the untyped side is false and the typed side true on X = zero,
        # before Y is bound: the block disagrees in bulk
        ("X = zero", "nat(X) /\\ nat(Y) /\\ ~(X = zero)", (("X", "nat"), ("Y", "nat")),
         {"X": zero, "Y": zero}, "inside-disagree"),
    ]
    for typed, untyped, freevars, first, kind in cases:
        rep = _check_against_brute_force(ctx, parse_formula(typed), parse_formula(untyped),
                                         freevars)
        assert (rep.first_violation, rep.first_violation_kind) == (first, kind), typed


def test_term_parameters_sweep_the_universe_in_enumeration_order():
    # a term-typed parameter takes the universe as enumerated, unsorted and
    # unfiltered, which is only right because it is already in universe order
    for depth in (1, 2, 3):
        ctx = fixture_context(universe_depth=depth)
        types = ctx.types
        universe = types.enumerate_type("term", depth)
        assert sorted(universe, key=types.universe_key) == list(universe)
        assert all(types.bounded_member("term", v, depth) for v in universe)
        rep = check_equivalence(ctx, parse_formula("true"), parse_formula("true"),
                                [("X", "term")])
        assert rep._asdict() == {
            "depth": depth, "total": len(universe), "outside": 0, "outside_false": 0,
            "inside": len(universe), "inside_agree": len(universe), "violations": 0,
            "inconclusive": 0, "first_violation": None, "first_violation_kind": None}
        assert len(universe) == (10, 120, 14530)[depth - 1]
    # a guard on a term-typed parameter keeps the whole universe
    _check_against_brute_force(fixture_context(universe_depth=2), parse_formula("X = zero"),
                               parse_formula("nat(X) /\\ X = zero"), (("X", "term"),))


def test_sweep_reports_match_brute_force_on_random_pairs():
    # every report field, the first violation included, on random
    # (typed, untyped) pairs over two variables
    ctx = fixture_context(universe_depth=1)
    rng = random.Random(9)
    rnd_formula = _formula_generator(rng, ["nat", "fruit", "term"], ["nat", "fruit"])
    types = ["nat", "fruit", "term", "list"]
    violating = 0
    for _ in range(300):
        freevars = (("X", rng.choice(types)), ("Y", rng.choice(types)))
        rep = _check_against_brute_force(ctx, rnd_formula(2, ["X", "Y"]),
                                         rnd_formula(2, ["X", "Y"]), freevars)
        violating += rep.violations > 0
    assert violating >= 100


def test_sweep_reports_match_brute_force_on_random_triples():
    # three variables, so a block's count below a position multiplies the
    # numbers of values at two later positions; an atom conjoined to the
    # typed formula may filter a variable, and the untyped formula is a
    # random one or a transformed one, with type guards on the variables
    ctx = fixture_context(universe_depth=1)
    rng = random.Random(15)
    rnd_formula = _formula_generator(rng, ["nat", "fruit", "term"], ["nat", "fruit"])
    types = ["nat", "fruit", "term", "list"]
    names = ["X", "Y", "Z"]
    violating = 0
    for k in range(60):
        freevars = tuple((name, rng.choice(types)) for name in names)
        typed = And((rnd_formula(0, names), rnd_formula(2, names)))
        untyped = rnd_formula(2, names)
        if k % 3:
            untyped = transform_formula(dict(freevars), typed if k % 3 == 1 else untyped)
        rep = _check_against_brute_force(ctx, typed, untyped, freevars)
        violating += rep.violations > 0
    assert violating >= 20


def test_every_free_name_is_listed_once():
    # an unlisted free name left every binding inconclusive, and a name
    # listed twice counted every binding once per listing
    ctx = fixture_context(universe_depth=1)
    both, one = parse_formula("X = Y"), parse_formula("X = zero")
    for check in (check_equivalence, check_agreement):
        for f, g in ((both, both), (one, both), (both, one)):
            with pytest.raises(UnboundVariableError, match="variable Y"):
                check(ctx, f, g, [("X", "nat")])
        with pytest.raises(ValueError, match="listed twice"):
            check(ctx, one, one, [("X", "nat"), ("X", "nat")])
        # a listed name that neither formula reads is a dimension of the sweep
        assert check(ctx, one, one, [("X", "nat"), ("Y", "fruit")]).total > 0
    rep = check_equivalence(ctx, one, one, [("X", "nat"), ("Y", "fruit")])
    assert rep.total == 10 * 10 and rep.inside == 1 * 3 and rep.inconclusive == 0


def test_sweep_prunes_only_through_guards():
    env, _ = parse_types("nat ::= zero | s(nat).\nsmall ::= zero.\n"
                         "fruit ::= enum {banana, apple}.")
    ctx = EvalContext(env, universe_depth=2)
    cases = [
        # a guard under an existential conjunct whose binder is another name
        ("exists Y: nat . X = s(Y)", "exists Y: term . nat(X) /\\ nat(Y) /\\ X = s(Y)",
         (("X", "nat"),), False),
        # a guard narrower than the declared type: in-type values outside
        # the guard are still evaluated
        ("X = zero", "small(X) /\\ X = zero", (("X", "nat"),), False),
        ("~(X = zero)", "small(X) /\\ ~(X = zero)", (("X", "nat"),), True),
        # a guard wider than the declared type: values in the guard's type
        # but outside the declared one are evaluated, and violate
        ("X = zero", "nat(X)", (("X", "small"),), True),
        # a membership atom inside a disjunction guards nothing
        ("X = zero", "(nat(X) /\\ X = zero) \\/ X = banana", (("X", "nat"),), True),
        # ... unless it guards every disjunct, also under an existential
        ("X = zero \\/ X = s(zero)",
         "(X = zero /\\ nat(X)) \\/ (exists Y: term . nat(X) /\\ X = s(Y) /\\ Y = zero)",
         (("X", "small"),), True),
        ("X = zero \\/ ~(X = banana)",
         "(X = zero /\\ nat(X)) \\/ (fruit(X) /\\ ~(X = banana))",
         (("X", "nat"),), True),
        ("X = zero \\/ X = s(zero)", "(nat(X) /\\ X = zero) \\/ X = s(zero)",
         (("X", "nat"),), False),
        ("X = zero \\/ X = s(zero)",
         "(nat(X) /\\ X = zero) \\/ X = banana \\/ (nat(X) /\\ X = s(zero))",
         (("X", "nat"),), True),
        # a membership atom on a binder that captures the swept name
        ("X = zero", "(exists X: term . nat(X)) /\\ ~(X = s(zero))",
         (("X", "nat"),), True),
        # a guard on the second variable only, and on both
        ("~(X = Y)", "nat(Y) /\\ ~(X = Y)", (("X", "nat"), ("Y", "nat")), True),
        ("X = Y", "fruit(Y) /\\ nat(X) /\\ X = Y", (("X", "nat"), ("Y", "fruit")), False),
    ]
    for typed, untyped, freevars, violates in cases:
        rep = _check_against_brute_force(ctx, parse_formula(typed), parse_formula(untyped),
                                         freevars)
        assert (rep.violations > 0) is violates, (untyped, rep.describe())


def test_sweep_settles_pinned_values_in_bulk():
    # a pin X = t (t ground, a mandatory conjunct) is false on every other
    # value of X; the values no filter of either side lets through are
    # counted in bulk, and the counts are those of every binding
    cases = [
        # a pin on both sides, on a term parameter and on a nat one
        ("X = s(zero)", "X = s(zero)", (("X", "term"),)),
        ("X = s(zero)", "nat(X) /\\ X = s(zero)", (("X", "nat"),)),
        # a pin on one side only: the other side is unfiltered, or filtered
        # by a guard alone
        ("X = zero", "true", (("X", "nat"),)),
        ("true", "X = zero", (("X", "nat"),)),
        ("X = zero", "nat(X)", (("X", "nat"),)),
        ("nat(X)", "zero = X", (("X", "term"),)),
        # a pin under a binder that captures the swept name does not count
        ("~(X = s(zero))", "(exists X: term . X = zero) /\\ ~(X = s(zero))",
         (("X", "nat"),)),
        ("X = zero", "exists X: nat . X = zero", (("X", "term"),)),
        # ... while one under a binder of another name does
        ("X = zero", "exists Y: nat . X = zero /\\ Y = X", (("X", "nat"),)),
        # a constant outside the universe, or no term of the signature
        ("X = s(s(zero))", "X = s(s(zero))", (("X", "nat"),)),
        ("X = mk(zero)", "nat(X) /\\ X = mk(zero)", (("X", "term"),)),
        # a pin with a guard, agreeing and disagreeing
        ("X = zero", "nat(X) /\\ X = zero", (("X", "term"),)),
        ("X = zero", "fruit(X) /\\ X = zero", (("X", "nat"),)),
        # two pins of one variable, equal and different
        ("X = zero", "X = zero /\\ zero = X", (("X", "nat"),)),
        ("X = zero", "X = zero /\\ X = s(zero)", (("X", "term"),)),
        # two pinned variables
        ("X = zero /\\ Y = apple", "X = zero /\\ Y = apple",
         (("X", "nat"), ("Y", "fruit"))),
        ("X = zero /\\ Y = s(zero)", "nat(X) /\\ X = zero /\\ Y = s(zero)",
         (("X", "term"), ("Y", "nat"))),
        ("Y = zero", "X = zero /\\ Y = zero", (("X", "term"), ("Y", "nat"))),
        # X = Y pins neither, also next to a pin of Y
        ("X = Y", "X = Y", (("X", "nat"), ("Y", "term"))),
        ("X = Y /\\ Y = zero", "X = Y /\\ Y = zero", (("X", "term"), ("Y", "nat"))),
    ]
    for depth in (1, 2):
        ctx = fixture_context(universe_depth=depth)
        for typed, untyped, freevars in cases:
            _check_against_brute_force(ctx, parse_formula(typed), parse_formula(untyped),
                                       freevars)


def test_pinned_parameter_does_not_sweep_the_universe():
    # about 10^116 terms at the depth limit: only the pinned value is evaluated
    env, _ = parse_types("nat ::= zero | s(nat).")
    ctx = EvalContext(env)
    f = parse_formula("X = zero")
    rep = check_equivalence(ctx, f, f, [("X", "nat")], depth=8)
    U = env.count_terms(8)
    assert (rep.total, rep.inside, rep.inside_agree) == (U, 8, 8)
    assert rep.outside == rep.outside_false == U - 8
    assert rep.ok and rep.inconclusive == 0
    rep = check_equivalence(ctx, f, f, [("X", "term"), ("Y", "nat")], depth=8)
    assert (rep.total, rep.inside, rep.inside_agree) == (U * U, U * 8, U * 8)


def test_sweep_descends_the_typed_side_one_position_at_a_time():
    # the untyped side is decided on a prefix while the typed side is not:
    # the typed side is evaluated on each longer prefix, and the inside
    # values failing its filters are counted in bulk, agreeing where the
    # untyped side is false and violating where it is true
    one = [
        # a typed pin, on a term and on a declared parameter
        ("X = zero", "false", (("X", "term"),)),
        ("X = zero", "true", (("X", "term"),)),
        ("X = s(zero)", "false", (("X", "nat"),)),
        ("X = s(zero)", "true", (("X", "nat"),)),
        # a typed guard, narrowing a term parameter and a declared one
        ("nat(X) /\\ ~(X = zero)", "true", (("X", "term"),)),
        ("nat(X) /\\ ~(X = zero)", "false", (("X", "term"),)),
        ("fruit(X) /\\ ~(X = apple)", "true", (("X", "nat"),)),
        ("nat(X) /\\ ~(X = zero)", "true", (("X", "nat"),)),
        # no typed filter: every inside value is evaluated
        ("nat(X) \\/ X = apple", "true", (("X", "term"),)),
        ("~(X = zero)", "false", (("X", "nat"),)),
    ]
    two = [
        ("X = zero /\\ Y = apple", "false", (("X", "term"), ("Y", "fruit"))),
        ("X = zero /\\ Y = apple", "true", (("X", "nat"), ("Y", "term"))),
        ("X = zero /\\ fruit(Y) /\\ ~(Y = apple)", "true", (("X", "nat"), ("Y", "term"))),
        ("nat(X) /\\ Y = s(X)", "true", (("X", "term"), ("Y", "term"))),
        ("nat(X) /\\ Y = s(X)", "false", (("X", "nat"), ("Y", "nat"))),
        ("X = Y", "true", (("X", "nat"), ("Y", "nat"))),
        # the untyped side decided only once the first variable is bound
        ("X = zero /\\ Y = zero", "X = zero", (("X", "nat"), ("Y", "term"))),
        ("X = zero /\\ nat(Y)", "~(X = zero)", (("X", "nat"), ("Y", "term"))),
        ("fruit(Y) /\\ ~(Y = X)", "fruit(X)", (("X", "fruit"), ("Y", "term"))),
    ]
    for depth, cases in ((1, one + two), (2, one), (2, two[:2] + two[6:7])):
        ctx = fixture_context(universe_depth=depth)
        for typed, untyped, freevars in cases:
            _check_against_brute_force(ctx, parse_formula(typed), parse_formula(untyped),
                                       freevars)


def test_typed_descent_does_not_build_the_universe(monkeypatch):
    # with the untyped side false everywhere, a pinned term parameter at
    # depth 4 (16,317,567 terms) settles without building the universe
    env, _ = parse_types("nat ::= zero | s(nat).")
    enumerate_type = env.enumerate_type

    def refuse_the_universe(type_name, depth):
        if type_name == "term" and depth == 4:
            raise AssertionError("the depth-4 universe was built")
        return enumerate_type(type_name, depth)
    monkeypatch.setattr(env, "enumerate_type", refuse_the_universe)
    ctx, f, U = EvalContext(env), parse_formula("X = zero"), env.count_terms(4)
    rep = check_equivalence(ctx, f, parse_formula("false"), [("X", "term")], depth=4)
    assert (rep.total, rep.inside, rep.inside_agree, rep.violations) == (U, U, U - 1, 1)
    assert rep.first_violation == {"X": zero}
    rep = check_equivalence(ctx, f, parse_formula("true"), [("X", "term")], depth=4)
    assert (rep.total, rep.inside, rep.inside_agree, rep.violations) == (U, U, 1, U - 1)
    assert rep.first_violation == {"X": next(env.iter_terms(4))}


def test_quantifiers_memoize_only_where_their_key_recurs(monkeypatch):
    # a quantifier with a free name outside the scope it reads keeps its
    # memo, so its block runs once per budget and values of its free names;
    # one whose free names cover the scope runs its block on each call
    runs = []
    block = _Evaluator._block

    def counted(self, kernel, cls, binders, scope):
        run = block(self, kernel, cls, binders, scope)
        if binders:  # a split of the quantifier's own block
            return run

        def count(binding, budget):
            runs.append((self.side, kernel, budget, tuple(sorted(binding.items()))))
            return run(binding, budget)
        return count
    monkeypatch.setattr(_Evaluator, "_block", counted)
    ctx = fixture_context(universe_depth=2)
    closed = parse_formula("(forall Y: nat . q(Y) => Y = Y) /\\ X = zero")
    covering = parse_formula("exists Y: nat . X = s(Y)")
    for typed in (closed, covering):
        runs.clear()
        untyped = simplify_checks(transform_formula({"X": "nat"}, typed))
        _check_against_brute_force(ctx, typed, untyped, (("X", "nat"),))
        assert runs and len(set(runs)) == len(runs)  # never the same key twice
        blocks = {(side, kernel, budget) for side, kernel, budget, _ in runs}
        if typed is closed:
            assert len(runs) == len(blocks)  # once per budget
        else:
            assert len(runs) > 2 * len(blocks)  # once per value of X
    # the same binding twice: the closed block runs once, the other twice
    for f, times in ((closed, 1), (covering, 2)):
        runs.clear()
        run = _Evaluator(ctx).compile(f, frozenset({"X"}))
        assert run({"X": zero}, 3) is run({"X": zero}, 3)
        assert len(runs) == times


# with one, nat has two values at depth 1, where the brute force is small
MEMO_DESCRIPTIONS = """
q(X: nat) <=> X = zero \\/ X = one.
fib(X: nat) <=> X = zero \\/ X = one
    \\/ exists Y: nat . X = s(s(Y)) /\\ fib(Y) /\\ fib(s(Y)).
d(X: nat) <=> forall Z: nat . q(Z) => (fib(Z) \\/ X = Z).
u(X: nat, Y: nat) <=> d(X) /\\ ~(Y = X).
"""


def test_calls_memoize_on_their_arguments_and_budget(monkeypatch):
    # the sweep over u calls d(X) again for each value of Y: an evaluator
    # runs d's definition once per arguments and budget, and its memo
    # answers the other calls
    env, _ = parse_types("nat ::= zero | one | s(nat).")
    tlds, diags = parse_tlds(MEMO_DESCRIPTIONS)
    assert not diags, diags
    preds = {t.predicate: (t, transform_tld(t)) for t in tlds}
    ctx = EvalContext(env, preds, universe_depth=1, unfold_depth=2)
    definitions = [preds["d"][0].definition, preds["d"][1].definition]
    runs, calls = [], []
    compile_, unfold = _Evaluator.compile, _Evaluator._unfold

    def counted(self, f, scope):
        run = compile_(self, f, scope)
        if not any(f is g for g in definitions):
            return run

        def count(binding, budget):
            runs.append((self, budget, tuple(sorted(binding.items()))))
            return run(binding, budget)
        return count

    def called(self, name, args, budget):
        calls.append(name)
        return unfold(self, name, args, budget)
    monkeypatch.setattr(_Evaluator, "compile", counted)
    monkeypatch.setattr(_Evaluator, "_unfold", called)
    u, untyped = preds["u"]
    _check_against_brute_force(ctx, u.definition, untyped.definition, u.params)
    assert runs and len(set(runs)) == len(runs)  # never the same key twice
    assert calls.count("d") > len(runs)


@pytest.mark.parametrize("seed", range(3))
def test_independent_binders_are_refuted_one_at_a_time(monkeypatch, seed):
    # exists C1 .. Cn: term . r(C1) /\ ... /\ r(Cn) /\ Y = zero, with r true
    # on one value w: a binder's value is checked by its own r(Ci) before the
    # next binder is bound, so each binder but the last tries the values up
    # to w with one call each, and the last runs the kernel, at most n calls,
    # on each of them; a product over the binders would make it (w + 1)^n
    rng = random.Random(seed)
    env, _ = parse_types("nat ::= zero | s(nat).")
    witness = rng.choice(env.enumerate_type("nat", 2))
    tried = env.enumerate_type("term", 2).index(witness) + 1
    assert tried > 1
    tlds, _ = parse_tlds(f"r(A: nat) <=> A = {witness}.")
    r = tlds[0]
    ctx = EvalContext(env, {"r": (r, transform_tld(r))}, universe_depth=2, unfold_depth=2)
    calls = []
    unfold = _Evaluator._unfold

    def called(self, name, args, budget):
        calls.append(args)
        return unfold(self, name, args, budget)
    monkeypatch.setattr(_Evaluator, "_unfold", called)
    counts = []
    for n in range(1, 17):
        binders = [f"C{i}" for i in range(1, n + 1)]
        conjuncts = [f"r({c})" for c in binders] + ["Y = zero"]
        rng.shuffle(conjuncts)
        f = parse_formula("".join(f"exists {c}: term . " for c in binders)
                          + " /\\ ".join(conjuncts))
        for y, expected in ((zero, TRUE), (Struct("s", (zero,)), FALSE)):
            calls.clear()
            assert evaluate(ctx, f, {"Y": y}) is expected, (n, y)
            if y is zero:
                counts.append(len(calls))
            if n <= 2:
                assert evaluate_reference(ctx, f, {"Y": y}) is expected, (n, y)
    assert all(count <= 2 * n * tried for n, count in enumerate(counts, 1)), counts


def _random_term(rng, depth, names):
    """A random term of functors of arity 0 to 3 over ``names``; ground
    when ``names`` is empty."""
    r = rng.random()
    if names and r < 0.3:
        return Var(rng.choice(names))
    if depth <= 0 or r < 0.5:
        return Struct(rng.choice(["zero", "apple", "1"]))
    functor, arity = rng.choice([("s", 1), ("f", 2), ("g", 3), ("[|]", 2)])
    return Struct(functor, tuple(_random_term(rng, depth - 1, names) for _ in range(arity)))


def test_term_closures_are_substitution_and_match():
    # the compiled value of a term is its substitution when that is ground,
    # and the binding-aware match decides as the reference match does on
    # the substituted pattern, forcing the same values
    rng = random.Random(31)
    names = ["X", "Y", "Z", "W"]
    matched = 0
    for _ in range(3000):
        t = _random_term(rng, 3, names)
        binding = {n: _random_term(rng, 2, []) for n in names if rng.random() < 0.5}
        substituted = ast.subst_term(t, binding)
        expected = substituted if ast.ground(substituted) else None
        assert _term_value(t)(binding) == expected, (t, binding)
        if rng.random() < 0.5:
            full = {n: binding.get(n, _random_term(rng, 1, [])) for n in names}
            value = ast.subst_term(t, full)
        else:
            value = _random_term(rng, 3, [])
        out, ref = {}, {}
        ok = _term_matcher(t)(value, binding, out)
        assert ok == reference_match(substituted, value, ref), (t, binding, value)
        assert out == ref, (t, binding, value)
        matched += ok and bool(out)
    assert matched >= 500


def test_maxprefix_depth_three_counts_are_pinned(maxprefix_ws):
    from tldforge.workspace import run_oracle
    rep = run_oracle(maxprefix_ws, "max_prefix_gen", depth=3)
    assert rep._asdict() == {
        "depth": 3, "total": 5545233000, "outside": 5545232225,
        "outside_false": 5545232225, "inside": 775, "inside_agree": 775,
        "violations": 0, "inconclusive": 0, "first_violation": None,
        "first_violation_kind": None}


def test_maxprefix_depth_four_counts_are_pinned(maxprefix_ws):
    # the guards keep 156 integer lists of the 3.1M-term universe, which
    # is counted and never built
    from tldforge.workspace import run_oracle
    rep = run_oracle(maxprefix_ws, "max_prefix_gen", depth=4)
    assert (rep.total, rep.inside, rep.inside_agree) == (30749785695750733416, 3900, 3900)
    assert rep.outside == rep.outside_false == rep.total - rep.inside
    assert (rep.violations, rep.inconclusive, rep.first_violation) == (0, 0, None)


def test_verdicts_are_monotone_in_depth(ctx):
    formulas = [
        parse_formula("exists X: nat . X = s(zero)"),
        parse_formula("forall X: fruit . fruit(X)"),
        parse_formula("q(zero)"),
    ]
    for f in formulas:
        v2 = evaluate(ctx._replace(universe_depth=2), f, {})
        v3 = evaluate(ctx._replace(universe_depth=3), f, {})
        if v2 is not UNKNOWN:
            assert v2 is v3


def test_agreement_checker(ctx):
    f = parse_formula("X = zero")
    g = parse_formula("zero = X")
    rep = check_agreement(ctx, f, g, [("X", "nat")], depth=2)
    assert rep.ok and rep.total == len(ctx.types.enumerate_type("nat", 2))
    h = parse_formula("X = s(zero)")
    rep2 = check_agreement(ctx, f, h, [("X", "nat")], depth=2)
    assert not rep2.ok and rep2.first_disagreement is not None


# -- the fast evaluator matches direct checking and brute enumeration -----------

def test_ground_conjunctions_match_direct_checking(ctx):
    env = ctx.types
    rng = random.Random(0)
    universe = env.enumerate_type("term", 2)
    for _ in range(300):
        t1, t2 = rng.choice(universe), rng.choice(universe)
        tname = rng.choice(["nat", "fruit"])
        f = And((Eq(t1, t2), Atom(tname, (t1,))))
        expected = TRUE if (t1 == t2 and env.is_member(tname, t1)) else FALSE
        assert evaluate(ctx, f, {}) is expected


def _formula_generator(rng, types, checks):
    """``rnd_formula(depth, scope)``: random formulas over the variables in
    scope, binding X, Y or Z to one of ``types`` and testing membership in
    one of ``checks``."""
    names = ["X", "Y", "Z"]

    def rnd_term(depth, scope):
        r = rng.random()
        if scope and r < 0.4:
            return Var(rng.choice(scope))
        if depth <= 0 or r < 0.7:
            return Struct(rng.choice(["zero", "banana", "1", "-2", "2", "0"]))
        return Struct("s", (rnd_term(depth - 1, scope),))

    def rnd_formula(depth, scope):
        r = rng.randrange(10)
        if depth <= 0 or r < 3:
            k = rng.randrange(5)
            if k == 0:
                return Eq(rnd_term(1, scope), rnd_term(1, scope))
            if k == 1:
                return Atom(rng.choice(checks), (rnd_term(1, scope),))
            if k == 2:
                return Atom("q", (rnd_term(1, scope),))
            if k == 3:
                op = rng.choice(["plus", "minus", "times", "max", "min"])
                return Atom(op, tuple(rnd_term(0, scope) for _ in range(3)))
            return ast.TRUE if rng.random() < 0.5 else ast.FALSE
        if r == 3:
            return And(tuple(rnd_formula(depth - 1, scope) for _ in range(2)))
        if r == 4:
            return Or(tuple(rnd_formula(depth - 1, scope) for _ in range(2)))
        if r == 5:
            return Not(rnd_formula(depth - 1, scope))
        if r == 6:
            return Implies(rnd_formula(depth - 1, scope), rnd_formula(depth - 1, scope))
        if r == 7:
            return Iff(rnd_formula(depth - 1, scope), rnd_formula(depth - 1, scope))
        v = rng.choice(names)
        cls = Exists if r == 8 else Forall
        return cls(v, rng.choice(types), rnd_formula(depth - 1, scope + [v]))

    return rnd_formula


def test_fast_evaluator_agrees_with_reference(ctx):
    rng = random.Random(11)
    universe = list(ctx.types.enumerate_type("term", 2))
    rnd_formula = _formula_generator(rng, ["nat", "fruit", "term"], ["nat", "fruit"])
    for _ in range(1500):
        f = rnd_formula(3, [])
        binding = {n: rng.choice(universe) for n in ast.free_names(f)}
        assert evaluate(ctx, f, binding) is evaluate_reference(ctx, f, binding)


def test_guarded_forall_agrees_with_reference(ctx):
    # forall Y . g(Y) => K enumerates only the values in g: outside them the
    # implication is true, the neutral element of forall
    rng = random.Random(5)
    universe = ctx.types.enumerate_type("term", 2)
    # inner quantifiers range over small types, since the reference
    # enumerates them at each of the forall's 99 values
    rnd_formula = _formula_generator(rng, ["nat", "fruit"], ["nat", "fruit"])
    y = Var("Y")
    decided = 0
    for _ in range(150):
        g, a = Atom(rng.choice(["nat", "fruit"]), (y,)), rnd_formula(1, ["X", "Y"])
        antecedent = rng.choice([
            g, And((a, g)), Or((And((g, a)), g)),
            Exists("Z", "nat", And((g, Eq(Var("Z"), y), a)))])
        guarded = Forall("Y", rng.choice(["term", "nat"]),
                         Implies(antecedent, rnd_formula(2, ["X", "Y"])))
        # X is left unbound below; the verdict is decided when the forall is
        f = rng.choice([guarded, And((guarded, rnd_formula(1, ["X"]))),
                        Or((guarded, rnd_formula(1, ["X"])))])
        free = list(ast.free_names(f))
        binding = {n: rng.choice(universe) for n in free}
        assert evaluate(ctx, f, binding) is evaluate_reference(ctx, f, binding), f
        if "X" not in free:
            continue
        partial = {n: v for n, v in binding.items() if n != "X"}
        side = rng.choice([TYPED, UNTYPED])
        verdict = _Evaluator(ctx, side=side).compile(
            f, frozenset(free))(partial, ctx.unfold_depth)
        if verdict is UNKNOWN:
            continue
        decided += 1
        for value in rng.sample(universe, 20):
            assert evaluate_reference(ctx, f, {**partial, "X": value}, side=side) \
                is verdict, (f, partial, value)
    assert decided >= 20


@pytest.mark.parametrize("depth", [1, 2])
def test_binder_domains_narrow_by_every_guard_and_pin(monkeypatch, depth):
    # a binder enumerates only the values that pass every guard and pin on
    # it, as a swept variable does: outside them an exists block's kernel is
    # false, and a forall block runs as the negated exists block over its
    # negated kernel, so it is narrowed by its antecedent's guards; a binder
    # that a mandatory equation forces is bound without a domain
    env, _ = parse_types("nat ::= zero | s(nat).\nsmall ::= zero.")
    ctx = EvalContext(env, universe_depth=depth)
    domains = []
    narrowed = _Evaluator._narrowed_domain

    def recorded(self, name, tname, mandatory):
        domain = narrowed(self, name, tname, mandatory)
        if self.side == TYPED:  # the untyped side's guards are the transform's
            domains.append(set(domain))
        return domain
    monkeypatch.setattr(_Evaluator, "_narrowed_domain", recorded)
    cases = [
        # the antecedent pins Y: its equation forces Y's one value
        ("forall Y: nat . Y = s(zero) => ~(X = Y)", []),
        ("forall Y: term . (nat(Y) /\\ Y = s(zero)) => ~(X = Y)", []),
        ("exists Y: nat . Y = s(zero) /\\ ~(X = Y)", []),
        # under the double negation s(X) = Y is mandatory and solves Y
        ("forall Y: term . ~(nat(Y) /\\ small(Y) /\\ s(X) = Y)", []),
        # and so is the negated consequent's s(X) = Y
        ("forall Y: term . (nat(Y) /\\ small(Y)) => ~(s(X) = Y)", []),
        ("forall Y: term . (small(Y) \\/ nat(Y) /\\ small(Y)) => ~(s(X) = Y)", []),
        # two guards on Y, the first the wider
        ("exists Y: term . nat(Y) /\\ small(Y) /\\ ~(X = Y)", [{zero}]),
        ("forall Y: term . (nat(Y) /\\ small(Y)) => ~(X = zero)", [{zero}]),
        # a guard in every disjunct of the antecedent
        ("forall Y: term . (small(Y) \\/ nat(Y) /\\ small(Y)) => ~(X = zero)", [{zero}]),
    ]
    for text, expected in cases:
        typed = parse_formula(text)
        untyped = simplify_checks(transform_formula({"X": "nat"}, typed))
        domains.clear()
        _check_against_brute_force(ctx, typed, untyped, (("X", "nat"),))
        assert domains == expected, text


def _implication_chain(n: int):
    """p(X: nat) <=> X = zero => V1 = X /\\ V2 = V1 /\\ ... /\\ Vn = Vn-1, the
    body-only Vi bound around the whole implication, and its untyped side."""
    chain = " /\\ ".join(f"V{i} = {'X' if i == 1 else f'V{i - 1}'}" for i in range(1, n + 1))
    tld = parse_tlds(f"p(X: nat) <=> X = zero => {chain}.")[0][0]
    return tld, transform_tld(tld)


def test_an_implication_kernel_splits_instead_of_multiplying_its_binders(monkeypatch):
    # the exists block over the Vi reads its kernel as ~(X = zero) \/ V1 = X
    # /\ ..., splits there, and each equation forces the next Vi: every
    # added equation costs a bounded number of evaluations, where a search
    # over the Vi as a product costs a factor of the universe
    env, _ = parse_types("nat ::= zero | s(nat).")
    runs = [0]
    compile_ = _Evaluator.compile

    def counted(self, f, scope):
        run = compile_(self, f, scope)

        def counted_run(binding, budget):
            runs[0] += 1
            return run(binding, budget)
        return counted_run
    monkeypatch.setattr(_Evaluator, "compile", counted)
    for depth in (2, 3):
        per_n = []
        for n in range(1, 9):
            tld, ld = _implication_chain(n)
            ctx = EvalContext(env, {"p": (tld, ld)}, universe_depth=depth)
            runs[0] = 0
            rep = check_equivalence(ctx, tld.definition, ld.definition, list(tld.params))
            assert (rep.violations, rep.inconclusive) == (0, 0)
            per_n.append(runs[0])
        assert all(0 < b - a <= 4 for a, b in zip(per_n, per_n[1:])), (depth, per_n)
    monkeypatch.undo()
    for n in (1, 2):
        tld, ld = _implication_chain(n)
        ctx = EvalContext(env, {"p": (tld, ld)}, universe_depth=2)
        _check_against_brute_force(ctx, tld.definition, ld.definition, list(tld.params))


# deep has no term of depth 2, so at that bound its domain is empty
EMPTY_AT_TWO = "nat ::= zero | s(nat).\npair ::= p(nat, nat).\ndeep ::= d(pair).\n"


def test_empty_domain_decides_the_block():
    # exists over an empty domain is false and forall is vacuously true,
    # also when another binder of the same block occurs in the kernel
    env, _ = parse_types(EMPTY_AT_TWO)
    ctx = EvalContext(env, universe_depth=2)
    assert env.enumerate_type("deep", 2) == ()
    cases = [
        ("forall X: deep . forall Y: nat . Y = zero", {}, TRUE),
        ("forall Y: nat . forall X: deep . Y = zero", {}, TRUE),
        ("forall X: deep . forall Y: nat . Y = W", {"W": zero}, TRUE),
        ("forall Y: nat . Y = zero /\\ (forall X: deep . false)", {}, FALSE),
        ("exists X: deep . exists Y: nat . Y = zero", {}, FALSE),
        ("exists Y: nat . exists X: deep . Y = zero \\/ true", {}, FALSE),
    ]
    for text, binding, expected in cases:
        f = parse_formula(text)
        assert evaluate_reference(ctx, f, binding) is expected, text
        assert evaluate(ctx, f, binding) is expected, text


def test_forall_blocks_match_brute_force(ctx):
    # a forall block is the negated exists block over its negated kernel: it
    # splits over a conjunction of implications, alternates with exists
    # blocks, and is vacuously true over an empty domain.  The alternations
    # are checked against themselves, since the reference would enumerate
    # the untyped side's nested term binders at each other's every value.
    env, _ = parse_types(EMPTY_AT_TWO)
    deep = EvalContext(env, universe_depth=2)
    transformed = [
        (ctx, "forall Y: term . (nat(Y) => ~(s(Y) = X)) /\\ (fruit(Y) => ~(Y = X))"),
        (ctx, "forall Y: nat . (Y = X => q(Y)) /\\ (q(Y) => ~(s(Y) = X))"),
        (deep, "forall Y: deep . Y = X"),
    ]
    alternating = [
        (ctx, "forall Y: nat . exists Z: nat . (Z = s(Y) \\/ Z = Y) /\\ ~(Z = X)"),
        (ctx, "exists Y: nat . forall Z: fruit . ~(Y = X) /\\ (Z = apple => q(Y))"),
        (ctx, "forall Y: nat . ~(exists Z: fruit . q(Y) /\\ (Z = apple \\/ X = Y))"),
        (deep, "forall Y: nat . forall Z: deep . ~(Y = X)"),
        (deep, "exists Y: nat . Y = X /\\ (forall Z: deep . false)"),
    ]
    cases = [(c, t, True) for c, t in transformed] + [(c, t, False) for c, t in alternating]
    for context, text, transform in cases:
        typed = parse_formula(text)
        untyped = simplify_checks(transform_formula({"X": "nat"}, typed)) if transform else typed
        for other in (untyped, Not(untyped)):
            _check_against_brute_force(context, typed, other, (("X", "nat"),))


def test_sweep_settles_guards_of_an_empty_type():
    # a guarded variable whose type and guard type are empty at the depth
    # enumerates no value: its whole block is counted in bulk
    env, _ = parse_types(EMPTY_AT_TWO)
    cases = [
        (2, "true", "deep(X)", (("X", "deep"),)),
        (2, "true", "nat(Y) /\\ deep(X)", (("Y", "nat"), ("X", "deep"))),
        (2, "Y = zero", "deep(X) /\\ nat(Y) /\\ Y = zero", (("X", "deep"), ("Y", "nat"))),
        (1, "true", "pair(X) /\\ nat(Y)", (("X", "pair"), ("Y", "nat"))),
        (1, "true", "nat(Y)", (("X", "pair"), ("Y", "nat"))),
    ]
    for depth, typed, untyped, freevars in cases:
        ctx = EvalContext(env, universe_depth=depth)
        rep = _check_against_brute_force(ctx, parse_formula(typed), parse_formula(untyped),
                                         freevars)
        assert rep.inside == 0, untyped


def test_partial_verdicts_hold_on_every_completion():
    # the sweep counts whole regions from a verdict on a partial binding;
    # a true or false verdict must be what every completion evaluates to
    env, _ = parse_types(EMPTY_AT_TWO + "fruit ::= enum {banana, apple}.\n")
    tlds, _ = parse_tlds("q(X: nat) <=> X = zero \\/ X = s(zero).")
    ctx = EvalContext(env, {"q": (tlds[0], transform_tld(tlds[0]))},
                      universe_depth=2, unfold_depth=3)
    universe = env.enumerate_type("term", 2)
    rng = random.Random(23)
    rnd_formula = _formula_generator(rng, ["nat", "fruit", "deep"],
                                     ["nat", "fruit", "deep"])
    decided = 0
    for _ in range(3000):
        f = rnd_formula(3, ["X", "Y"])
        free = list(ast.free_names(f))
        if not free:
            continue
        hole = rng.choice(free)
        binding = {n: rng.choice(universe) for n in free if n != hole}
        side = rng.choice([TYPED, UNTYPED])
        run = _Evaluator(ctx, side=side).compile(f, frozenset(free))
        verdict = run(binding, ctx.unfold_depth)
        if verdict is UNKNOWN:
            continue
        decided += 1
        for value in universe:
            full = {**binding, hole: value}
            assert evaluate_reference(ctx, f, full, side=side) is verdict, (f, full)
    assert decided >= 500


# -- the three-valued paths against the slow oracle -----------------------------

# loop is true at zero and unknown elsewhere, whatever the budget; even and
# odd are decided up to a depth the budget reaches
RECURSIVE = """
loop(X: nat) <=> X = zero \\/ loop(X).
even(X: nat) <=> X = zero \\/ exists Y: nat . X = s(Y) /\\ odd(Y).
odd(X: nat) <=> exists Y: nat . X = s(Y) /\\ even(Y).
"""


@pytest.fixture(scope="module")
def recursive_ctx():
    env, _ = parse_types("nat ::= zero | s(nat).")
    tlds, diags = parse_tlds(RECURSIVE)
    assert not diags
    return EvalContext(env, {t.predicate: (t, transform_tld(t)) for t in tlds},
                       universe_depth=2, unfold_depth=4)


@pytest.mark.parametrize("text", [
    "exists Y: nat . loop(Y) /\\ ~(Y = zero)",
    "exists Y: nat . loop(Y) /\\ Y = s(zero)",
    "forall Y: nat . loop(Y)",
    "forall Y: nat . loop(Y) \\/ Y = s(s(zero))",
    "forall Y: nat . even(Y) \\/ odd(Y)",
    "exists Y: nat . even(Y) /\\ odd(Y)",
    "exists Y: nat . odd(Y) /\\ ~loop(Y)",
    "loop(s(zero)) <=> even(s(zero))",
    "odd(s(zero)) <=> ~even(s(zero))",
    "forall Y: nat . even(Y) <=> ~odd(Y)",
    "~loop(s(zero))",
    "~(exists Y: nat . odd(Y) /\\ loop(Y))",
])
def test_unknown_verdicts_match_the_reference_at_every_budget(recursive_ctx, text):
    f = parse_formula(text)
    verdicts = set()
    # the untyped side unfolds to binders over all 63 terms of depth 2, which
    # the slow oracle enumerates once per unfolding: 63^budget bindings
    for side, budgets in ((TYPED, range(1, 5)), (UNTYPED, range(1, 3))):
        for budget in budgets:
            ctx = recursive_ctx._replace(unfold_depth=budget)
            fast = evaluate(ctx, f, {}, side=side)
            assert fast is evaluate_reference(ctx, f, {}, side=side), (budget, side)
            verdicts.add(fast)
    # every formula is undecided at some budget: the UNKNOWN paths ran
    assert UNKNOWN in verdicts


def test_agreement_counts_inconclusive_bindings_as_brute_force_does(recursive_ctx):
    f, g = parse_formula("loop(X)"), parse_formula("even(X) \\/ odd(X)")
    ctx = recursive_ctx._replace(universe_depth=3, unfold_depth=2)
    rep = check_agreement(ctx, f, g, [("X", "nat")])
    tally = {"agree": 0, "disagree": 0, "inconclusive": 0}
    for value in ctx.types.enumerate_type("nat", ctx.universe_depth):
        va, vb = (evaluate_reference(ctx, h, {"X": value}) for h in (f, g))
        tally["inconclusive" if UNKNOWN in (va, vb) else
              "agree" if va is vb else "disagree"] += 1
    assert (rep.agree, rep.disagree, rep.inconclusive) == \
        (tally["agree"], tally["disagree"], tally["inconclusive"])
    assert rep.total == sum(tally.values()) == 3
    assert rep.inconclusive == 2 and rep.agree == 1 and rep.ok
