import pytest

from tldforge import ast
from tldforge.ast import (And, Atom, Exists, Forall, Iff, Implies, Not, Or,
                          Struct, Var)
from tldforge.errors import UnboundVariableError
from tldforge.parser import parse_formula, parse_tlds, parse_types
from tldforge.semantics import EvalContext, check_equivalence
from tldforge.transform import (check_of, simplify_checks, simplify_description,
                                transform_formula, transform_tld)

zero = Struct("zero")


def test_check_of_lists_free_variables_in_order():
    f = parse_formula("integer(M) /\\ member2(L, M) /\\ lt(A, M)")
    env = {"L": "integer_list", "M": "integer", "A": "integer"}
    got = check_of(env, f)
    assert got == And((Atom("integer", (Var("M"),)),
                       Atom("integer_list", (Var("L"),)),
                       Atom("integer", (Var("A"),))))


def test_check_of_closed_formula_is_true():
    assert check_of({}, parse_formula("zero = zero")) == ast.TRUE


def test_check_of_omits_universal_type():
    f = parse_formula("Y = a")
    assert check_of({"Y": "term"}, f) == ast.TRUE


def test_check_of_requires_types():
    with pytest.raises(UnboundVariableError):
        check_of({}, parse_formula("X = zero"))


# -- the row-by-row transformation ----------------------------------------------

def test_equality_of_two_variables_gains_both_checks():
    f = parse_formula("M = A")
    got = transform_formula({"M": "integer", "A": "integer"}, f)
    assert got == parse_formula("M = A /\\ integer(M) /\\ integer(A)")


def test_compound_equality_checks_every_variable():
    f = parse_formula("X = s(Y)")
    got = transform_formula({"X": "nat", "Y": "nat"}, f)
    assert got == parse_formula("X = s(Y) /\\ nat(X) /\\ nat(Y)")


def test_variables_at_the_universal_type_contribute_nothing():
    f = parse_formula("L = [H | T]")
    env = {"L": "integer_list", "H": "term", "T": "term"}
    assert transform_formula(env, f) == parse_formula("L = [H | T] /\\ integer_list(L)")


def test_exists_gains_membership_guard():
    f = parse_formula("exists M1: integer . p(M1)")
    got = transform_formula({}, f)
    assert got == Exists("M1", "term",
                         And((Atom("integer", (Var("M1"),)), Atom("p", (Var("M1"),)))))


def test_forall_gains_membership_implication():
    f = parse_formula("forall X: nat . p(X)")
    got = transform_formula({}, f)
    assert got == Forall("X", "term",
                         Implies(Atom("nat", (Var("X"),)), Atom("p", (Var("X"),))))


def test_conjunction_maps_pointwise():
    f = parse_formula("X = zero /\\ p(X)")
    got = transform_formula({"X": "nat"}, f)
    assert got == And((parse_formula("X = zero /\\ nat(X)"), Atom("p", (Var("X"),))))


def test_disjunction_weaves_cross_checks():
    f = parse_formula("X = zero \\/ X = s(zero)")
    got = transform_formula({"X": "nat"}, f)
    # each branch carries the other branch's checks
    assert got == Or((
        And((parse_formula("X = zero /\\ nat(X)"), Atom("nat", (Var("X"),)))),
        And((parse_formula("X = s(zero) /\\ nat(X)"), Atom("nat", (Var("X"),)))),
    ))


def test_disjunction_checks_other_branches_names_in_first_occurrence_order():
    # a branch checks each other branch's name where it first occurs outside
    # the branch: X comes from the first branch for the others, but from the
    # third, after Y and W, for the first
    f = parse_formula("X = Y \\/ Y = W \\/ W = X \\/ q(V)")
    env = {"X": "nat", "Y": "nat", "W": "nat", "V": "nat"}
    got = transform_formula(env, f)
    assert [[c.args[0].name for c in branch.items[1:]] for branch in got.items] == [
        ["Y", "W", "X", "V"], ["X", "Y", "W", "V"], ["X", "Y", "W", "V"], ["X", "Y", "W"]]


def test_disjunction_walks_each_branch_once(monkeypatch):
    # an n-way disjunction takes each branch's free names once, not once for
    # every other branch
    calls = []
    free_names = ast.free_names

    def counted(f):
        calls.append(f)
        return free_names(f)
    monkeypatch.setattr(ast, "free_names", counted)
    for n in (10, 100, 1000):
        calls.clear()
        f = Or(tuple(parse_formula("X = zero" if i % 2 else "~(X = s(Y))") for i in range(n)))
        transform_formula({"X": "nat", "Y": "nat"}, f)
        assert len(calls) <= 2 * n, (n, len(calls))


def test_negation_conjoins_subformula_checks():
    f = parse_formula("~(X = zero)")
    got = transform_formula({"X": "nat"}, f)
    assert got == And((Not(parse_formula("X = zero /\\ nat(X)")),
                       Atom("nat", (Var("X"),))))


def test_implication_expands_to_guarded_disjunction():
    f = parse_formula("X = zero => Y = a")
    got = transform_formula({"X": "nat", "Y": "fruit"}, f)
    gnt = parse_formula("X = zero /\\ nat(X)")
    hnt = parse_formula("Y = a /\\ fruit(Y)")
    assert got == Or((And((Not(gnt), Atom("nat", (Var("X"),)), Atom("fruit", (Var("Y"),)))),
                      And((hnt, Atom("nat", (Var("X"),))))))


def test_equivalence_keeps_kernel_and_both_checks():
    f = parse_formula("X = zero <=> Y = a")
    got = transform_formula({"X": "nat", "Y": "fruit"}, f)
    gnt = parse_formula("X = zero /\\ nat(X)")
    hnt = parse_formula("Y = a /\\ fruit(Y)")
    assert got == And((Iff(gnt, hnt),
                       Atom("nat", (Var("X"),)), Atom("fruit", (Var("Y"),))))


def test_atoms_and_constants_pass_through():
    env = {"X": "nat"}
    for text in ("p(X)", "true", "false"):
        f = parse_formula(text)
        assert transform_formula(env, f) == f


def test_transform_is_identity_on_untyped_formulas():
    texts = [
        "X = a",
        "p(X) /\\ q(X, Y)",
        "exists Y: term . p(Y) \\/ q(Y, Y)",
        "forall Z: term . p(Z)",
        "~p(X)",
    ]
    for text in texts:
        f = parse_formula(text)
        assert transform_formula({"X": "term", "Y": "term"}, f) == f


# -- whole descriptions -----------------------------------------------------------

def test_description_prefix_in_declaration_order(maxprefix_ws):
    tld = maxprefix_ws.tlds["max_prefix_gen"]
    ld = transform_tld(tld)
    assert ld.params == ("L", "M", "A")
    assert isinstance(ld.definition, And)
    assert ld.definition.items[:3] == (
        Atom("integer_list", (Var("L"),)),
        Atom("integer", (Var("M"),)),
        Atom("integer", (Var("A"),)))


def test_description_at_universal_type_gets_no_checks():
    tld = parse_tlds("p(X: term) <=> X = a.")[0][0]
    ld = transform_tld(tld)
    assert ld.definition == parse_formula("X = a")


def test_description_prefix_survives_trivial_body():
    tld = parse_tlds("p(X: fruit) <=> true.")[0][0]
    ld = transform_tld(tld)
    assert ld.definition == And((Atom("fruit", (Var("X"),)), ast.TRUE))


# -- simplification ----------------------------------------------------------------

def test_duplicate_checks_collapse():
    f = parse_formula("nat(X) /\\ nat(X) /\\ p(X)")
    assert simplify_checks(f) == parse_formula("nat(X) /\\ p(X)")


def test_true_conjuncts_drop():
    assert simplify_checks(parse_formula("true /\\ p(X)")) == parse_formula("p(X)")
    assert simplify_checks(parse_formula("false \\/ p(X)")) == parse_formula("p(X)")


def test_or_row_duplicates_collapse_per_branch():
    f = parse_formula("X = zero \\/ X = s(zero)")
    got = simplify_checks(transform_formula({"X": "nat"}, f))
    assert got == Or((parse_formula("X = zero /\\ nat(X)"),
                      parse_formula("X = s(zero) /\\ nat(X)")))


def test_simplification_preserves_bounded_evaluation():
    env, _ = parse_types("nat ::= zero | s(nat).")
    ctx = EvalContext(env, {}, universe_depth=2, unfold_depth=2)
    f = parse_formula("X = zero \\/ X = s(zero)")
    raw = transform_formula({"X": "nat"}, f)
    simplified = simplify_checks(raw)
    rep = check_equivalence(ctx, raw, simplified, [("X", "term")], depth=2)
    assert rep.ok and rep.inconclusive == 0


# -- the central equivalence property ---------------------------------------------

def test_row_fixtures_transform_equivalently():
    from fixture_formulas import fixture_cases, fixture_context
    for depth in (2, 3):
        ctx = fixture_context(universe_depth=depth)
        for name, typed, freevars in fixture_cases():
            untyped = simplify_checks(transform_formula(dict(freevars), typed))
            rep = check_equivalence(ctx, typed, untyped, freevars, depth=depth)
            assert rep.ok, (name, depth, rep.first_violation)


def test_accumulator_description_transform_is_equivalent(maxprefix_ws):
    tld = maxprefix_ws.tlds["max_prefix_gen"]
    ctx = maxprefix_ws.eval_context(universe_depth=2, unfold_depth=4)
    ld = ctx.predicates["max_prefix_gen"][1]
    rep = check_equivalence(ctx, tld.definition, ld.definition, list(tld.params))
    assert rep.ok and rep.inconclusive == 0


def test_random_typed_formulas_transform_equivalently():
    # catch-all: whatever the shape, the converted formula must be false
    # outside the declared types and agree inside them
    import random
    from fixture_formulas import fixture_context
    from tldforge.ast import Exists, Forall, Implies, Or, Not, Eq, Atom, And, Var, Struct

    ctx = fixture_context(universe_depth=2)
    rng = random.Random(20)
    freevars = (("X", "nat"), ("Y", "fruit"))
    names = ["X", "Y", "Z", "W"]

    def rnd_term(scope, depth=1):
        r = rng.random()
        if r < 0.45:
            return Var(rng.choice(scope))
        if depth <= 0 or r < 0.8:
            return Struct(rng.choice(["zero", "orange", "banana", "1"]))
        return Struct("s", (rnd_term(scope, depth - 1),))

    def rnd(depth, scope, env):
        r = rng.randrange(10)
        if depth <= 0 or r < 3:
            k = rng.randrange(3)
            if k == 0:
                return Eq(rnd_term(scope), rnd_term(scope))
            if k == 1:
                # call sites must agree with the callee's parameter type:
                # the pass-through rule only covers consistently typed atoms
                nat_vars = [v for v in scope if env.get(v) == "nat"]
                arg = Var(rng.choice(nat_vars)) if nat_vars and rng.random() < 0.6 \
                    else Struct(rng.choice(["zero", "1", "orange"]))
                return Atom("q", (arg,))
            # likewise, raw membership atoms only over ground terms
            return Atom(rng.choice(["nat", "fruit"]),
                        (Struct(rng.choice(["zero", "orange", "1"])),))
        if r == 3:
            n = rng.randrange(2, 4)
            return And(tuple(rnd(depth - 1, scope, env) for _ in range(n)))
        if r == 4:
            n = rng.randrange(2, 4)  # exercise the n-ary cross-check weaving
            return Or(tuple(rnd(depth - 1, scope, env) for _ in range(n)))
        if r == 5:
            return Not(rnd(depth - 1, scope, env))
        if r == 6:
            return Implies(rnd(depth - 1, scope, env), rnd(depth - 1, scope, env))
        if r == 7:
            return ast.Iff(rnd(depth - 1, scope, env), rnd(depth - 1, scope, env))
        v = rng.choice(names)
        t = rng.choice(["nat", "fruit", "term"])
        cls = Exists if r == 8 else Forall
        return cls(v, t, rnd(depth - 1, scope + [v], {**env, v: t}))

    base_env = dict(freevars)
    for i in range(120):
        typed = rnd(3, [n for n, _ in freevars], base_env)
        actual = ast.free_variables(typed, base_env)
        untyped = simplify_checks(transform_formula(base_env, typed))
        rep = check_equivalence(ctx, typed, untyped, actual, depth=2)
        assert rep.ok, (i, rep.first_violation, rep.first_violation_kind)


def test_simplification_never_changes_evaluation_on_random_formulas():
    import random
    from fixture_formulas import fixture_context
    from tldforge.ast import Exists, Or, Not, Eq, Atom, And, Var, Struct
    from tldforge.semantics import evaluate

    ctx = fixture_context(universe_depth=2)
    rng = random.Random(77)
    universe = list(ctx.types.enumerate_type("term", 2))
    names = ["X", "Y", "Z"]

    def rnd(depth, scope):
        r = rng.randrange(8)
        if depth <= 0 or r < 3:
            k = rng.randrange(4)
            if k == 0:
                return Eq(Var(rng.choice(scope)) if scope else Struct("zero"),
                          Struct(rng.choice(["zero", "orange"])))
            if k == 1:
                return Atom("nat", (Var(rng.choice(scope)) if scope else Struct("zero"),))
            return ast.TRUE if k == 2 else ast.FALSE
        if r == 3:
            return And(tuple(rnd(depth - 1, scope) for _ in range(rng.randrange(2, 4))))
        if r == 4:
            return Or(tuple(rnd(depth - 1, scope) for _ in range(rng.randrange(2, 4))))
        if r == 5:
            return Not(rnd(depth - 1, scope))
        v = rng.choice(names)
        return Exists(v, "term", rnd(depth - 1, scope + [v]))

    for _ in range(400):
        f = rnd(3, [])
        simplified = simplify_checks(f)
        binding = {n: rng.choice(universe) for n in ast.free_names(f)}
        assert evaluate(ctx, f, binding) is evaluate(ctx, simplified, binding)
