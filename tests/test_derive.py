import random

import pytest

from tldforge.ast import (Call, LogicDescription, NafNot, Struct, TypeCheck,
                          Unify, Var)
from tldforge import analysis, ast, derive
from tldforge.analysis import Registry, analyze_procedure
from tldforge.derive import (MAX_CLAUSES, body_formula, derive_clauses, normalize,
                             normalized_formula, program_formula)
from tldforge.errors import NotDerivableError
from tldforge.modes import GROUND, STAR, VAR, Directionality, Multiplicity, Spec
from tldforge.parser import parse_formula, parse_tlds, parse_types
from tldforge.semantics import EvalContext, check_agreement, check_equivalence
from tldforge.transform import simplify_description, transform_tld
from tldforge.workspace import builtin_specs

from util import reference_normalize

a = Struct("a")
b = Struct("b")
TYPES = frozenset(("nat", "fruit", "integer", "integer_list", "term"))


def ld(params, text):
    return LogicDescription("p", tuple(params), parse_formula(text))


def test_already_disjunctive_input():
    nb = normalize(ld(["X"], "X = a \\/ (X = b /\\ q(X))"), TYPES)
    assert [d.literals for d in nb.disjuncts] == [
        (Unify(Var("X"), a),),
        (Unify(Var("X"), b), Call("q", (Var("X"),))),
    ]


def test_negated_disjunction_becomes_two_failures():
    nb = normalize(ld(["X"], "~(X = a \\/ X = b)"), TYPES)
    assert [d.literals for d in nb.disjuncts] == [
        (NafNot(Unify(Var("X"), a)), NafNot(Unify(Var("X"), b))),
    ]


def test_implication_expands_classically():
    nb = normalize(ld(["X"], "q(X) => r(X)"), TYPES)
    assert [d.literals for d in nb.disjuncts] == [
        (NafNot(Call("q", (Var("X"),))),),
        (Call("r", (Var("X"),)),),
    ]


def test_equivalence_expands_to_both_cases():
    nb = normalize(ld(["X"], "q(X) <=> r(X)"), TYPES)
    assert len(nb.disjuncts) == 2
    assert nb.disjuncts[0].literals == (Call("q", (Var("X"),)), Call("r", (Var("X"),)))
    assert nb.disjuncts[1].literals == (NafNot(Call("q", (Var("X"),))),
                                        NafNot(Call("r", (Var("X"),))))


def test_type_atoms_become_checks():
    nb = normalize(ld(["X"], "nat(X) /\\ q(X)"), TYPES)
    assert nb.disjuncts[0].literals == (TypeCheck("nat", Var("X")),
                                        Call("q", (Var("X"),)))


def test_duplicate_checks_collapse_within_a_disjunct():
    nb = normalize(ld(["X"], "nat(X) /\\ (q(X) /\\ nat(X))"), TYPES)
    assert nb.disjuncts[0].literals == (TypeCheck("nat", Var("X")),
                                        Call("q", (Var("X"),)))


def test_existentials_hoist_and_rename_on_collision():
    nb = normalize(ld(["X"], "(exists Y: term . q(X, Y)) /\\ (exists Y: term . r(X, Y))"),
                   TYPES)
    (d,) = nb.disjuncts
    assert d.exvars == (("Y", "term"), ("Y1", "term"))
    assert d.literals == (Call("q", (Var("X"), Var("Y"))), Call("r", (Var("X"), Var("Y1"))))


def test_disjuncts_name_their_binders_independently():
    # each disjunct's binder keeps its own type under the shared name
    nb = normalize(ld(["X"], "(exists Y: nat . q(X, Y)) \\/ (exists Y: fruit . r(X, Y))"),
                   TYPES)
    assert [d.exvars for d in nb.disjuncts] == [(("Y", "nat"),), (("Y", "fruit"),)]


def test_a_disjunctions_binders_are_named_apart_from_its_conjuncts():
    # the second Y shares a clause with the first, so it is Y1 in both clauses
    nb = normalize(ld(["X"], "(r(X) \\/ (exists Y: term . q(X, Y))) /\\ "
                             "(exists Y: term . s(X, Y))"), TYPES)
    assert [d.exvars for d in nb.disjuncts] == [
        (("Y1", "term"),), (("Y", "term"), ("Y1", "term"))]
    assert nb.disjuncts[0].literals[1] is nb.disjuncts[1].literals[1]


def test_shared_binder_keeps_its_name_in_every_disjunct():
    nb = normalize(ld(["X"], "exists Y: term . q(X, Y) \\/ r(X, Y)"), TYPES)
    assert [d.exvars for d in nb.disjuncts] == [(("Y", "term"),), (("Y", "term"),)]
    assert nb.disjuncts[0].literals == (Call("q", (Var("X"), Var("Y"))),)


def test_shared_binder_names_are_pinned():
    # the outer Y keeps its name in every disjunct holding it; in the
    # second, the conjoined binders shadowing it skip Y, the parameter Y1
    # and each other
    nb = normalize(ld(["X", "Y1"], "exists Y: term . (q(X, Y) \\/ (exists Y: nat . r(Y))"
                                  " /\\ (exists Y: fruit . t(Y1, Y)) \\/ s(Y) \\/ u(X))"),
                   TYPES)
    assert [d.exvars for d in nb.disjuncts] == [
        (("Y", "term"),), (("Y2", "nat"), ("Y3", "fruit")), (("Y", "term"),), ()]
    assert nb.disjuncts[1].literals == (Call("r", (Var("Y2"),)),
                                        Call("t", (Var("Y1"), Var("Y3"))))


def test_negation_of_exists_is_not_derivable():
    with pytest.raises(NotDerivableError):
        normalize(ld(["X"], "~(exists Y: term . q(X, Y))"), TYPES)


def test_universal_in_body_is_not_derivable():
    with pytest.raises(NotDerivableError) as exc:
        normalize(ld(["X"], "forall Y: term . q(X, Y)"), TYPES)
    assert "at <formula>:1:" in str(exc.value)  # carries the source position


def conjoined_tests(k):
    """k conjoined two-way disjunctions, then Y through a binder that all
    2**k disjuncts share."""
    return "exists V: term . " + " /\\ ".join(
        [f"(lt(X, {i}) \\/ ge(X, {i}))" for i in range(k)] + ["plus(X, 1, V)", "Y = V"])


def test_clause_limit_is_reached_exactly(monkeypatch):
    assert MAX_CLAUSES == 4096
    prog = derive_clauses(ld(["X", "Y"], conjoined_tests(12)), TYPES)
    assert len(prog.clauses) == MAX_CLAUSES
    assert prog.clauses[-1].body[-2:] == (Call("plus", (Var("X"), Struct("1"), Var("V"))),
                                         Unify(Var("Y"), Var("V")))
    # one more disjunction is refused before the conjunction is distributed:
    # only the two-way disjunctions are
    sizes = []
    original = derive._dnf

    def recording(f, positive, *state):
        out = original(f, positive, *state)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(derive, "_dnf", recording)
    with pytest.raises(NotDerivableError) as exc:
        normalize(ld(["X", "Y"], conjoined_tests(13)), TYPES)
    assert max(sizes) == 2
    # at the conjunction's first literal, lt(X, 0): connectives carry no position
    assert str(exc.value) == ("derive-blowup: the conjunction at <formula>:1:19 "
                              "distributes into 8192 clauses, more than the limit of 4096")
    with pytest.raises(NotDerivableError,
                       match="disjunction at <formula>:1:1 distributes into 4097 clauses"):
        normalize(ld(["X"], " \\/ ".join(["X = a"] * 4097)), TYPES)


def test_the_clauses_of_a_distribution_share_their_literals(monkeypatch):
    k = 6
    prog = derive_clauses(ld(["X", "Y"], conjoined_tests(k)), TYPES)
    assert len(prog.clauses) == 2 ** k
    # each clause holds one of the two literals of each disjunction, and
    # all of them the same plus(X, 1, V) and Y = V
    assert len({id(lit) for c in prog.clauses for lit in c.body}) == 2 * k + 2
    built = []
    original = analysis._LiteralStep.__init__

    def recording(self, lit, registry):
        built.append(lit)
        original(self, lit, registry)

    monkeypatch.setattr(analysis._LiteralStep, "__init__", recording)
    spec = Spec("p", ("X", "Y"), ("integer", "integer"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), Multiplicity(0, STAR)),))
    registry = Registry(parse_types("nat ::= zero | s(nat).")[0],
                        {**{s.name: s for s in builtin_specs()}, "p": spec})
    assert all(r.ok for r in analyze_procedure(prog, spec, registry))
    # one compiled mode step per distinct literal
    assert len(built) == len(set(built)) <= 2 * k + 4


def test_negated_universal_is_derivable():
    nb = normalize(ld(["X"], "~(forall Y: term . q(X, Y))"), TYPES)
    (d,) = nb.disjuncts
    assert d.literals == (NafNot(Call("q", (Var("X"), Var("Y")))),)
    assert d.exvars == (("Y", "term"),)


def test_normalize_is_idempotent():
    for text in ("X = a \\/ (X = b /\\ q(X))",
                 "q(X) => r(X)",
                 "exists Y: term . q(X, Y) \\/ r(X, Y)"):
        first = normalize(ld(["X"], text), TYPES)
        again = normalize(LogicDescription("p", ("X",), normalized_formula(first)), TYPES)
        assert again == first


def test_two_clauses_for_the_accumulator_fixture(maxprefix_ws):
    tld = maxprefix_ws.tlds["max_prefix_gen"]
    untyped = simplify_description(transform_tld(tld))
    prog = derive_clauses(untyped, frozenset(maxprefix_ws.env.defs))
    assert len(prog.clauses) == 2
    assert prog.clauses[0].head_args == (Var("L"), Var("M"), Var("A"))
    assert prog.clauses[0].provenance == "disjunct 1 of 2"


def test_false_definition_yields_no_clauses():
    prog = derive_clauses(ld(["X"], "false"), TYPES)
    assert prog.clauses == ()
    assert prog.predicate == "p" and prog.arity == 1


def test_single_check_clause():
    prog = derive_clauses(ld(["X"], "fruit(X)"), TYPES)
    assert len(prog.clauses) == 1
    assert prog.clauses[0].body == (TypeCheck("fruit", Var("X")),)


def test_true_definition_yields_a_fact():
    prog = derive_clauses(ld(["X"], "true"), TYPES)
    assert len(prog.clauses) == 1
    assert prog.clauses[0].body == ()


X, Y = Var("X"), Var("Y")
ZERO = Struct("zero")
NAT_X, NAT_Y = TypeCheck("nat", X), TypeCheck("nat", Y)
# the transform puts a type check inside each ~ and =>, so each leaves a
# disjunct holding the check and its negation, which normalize drops
NEGATIONS = [
    ("p(X: nat) <=> ~(X = zero).",
     [((NAT_X, NafNot(Unify(X, ZERO))), "disjunct 1 of 1")]),
    ("r(X: nat, Y: nat) <=> ~(X = Y).",
     [((NAT_X, NAT_Y, NafNot(Unify(X, Y))), "disjunct 1 of 1")]),
    ("q(X: nat) <=> ~~~~X = zero.",
     [((NAT_X, Unify(X, ZERO)), "disjunct 1 of 1")]),
    ("s(X: nat) <=> X = zero => X = s(zero).",
     [((NAT_X, NafNot(Unify(X, ZERO))), "disjunct 1 of 2"),
      ((NAT_X, Unify(X, Struct("s", (ZERO,)))), "disjunct 2 of 2")]),
    ("w(X: nat) <=> ~nat(X).", []),
    # 50 such disjuncts dropped
    ("t(X: nat) <=> " + "~" * 100 + "X = zero.",
     [((NAT_X, Unify(X, ZERO)), "disjunct 1 of 1")]),
]


@pytest.mark.parametrize("text, expected", NEGATIONS)
def test_no_clause_holds_a_check_and_its_negation(nat_env, text, expected):
    untyped = simplify_description(transform_tld(parse_tlds(text)[0][0]))
    prog = derive_clauses(untyped, frozenset(nat_env.defs))
    assert [(c.body, c.provenance) for c in prog.clauses] == expected
    # the normalized stage lists what the derived stage holds
    nb = normalize(untyped, frozenset(nat_env.defs))
    assert [d.literals for d in nb.disjuncts] == [body for body, _ in expected]
    # the dropped clauses are false on every binding
    ctx = EvalContext(nat_env, {untyped.predicate: untyped}, universe_depth=2)
    rep = check_agreement(ctx, program_formula(prog), untyped.definition,
                          [(n, "term") for n in untyped.params], depth=2)
    assert (rep.disagree, rep.inconclusive) == (0, 0) and rep.total > 0


# -- bounded faithfulness ---------------------------------------------------------

def clark_agrees(env_text, tld_text, depth=2, unfold=4):
    from tldforge.parser import parse_tlds
    env, _ = parse_types(env_text)
    tld = parse_tlds(tld_text)[0][0]
    untyped = simplify_description(transform_tld(tld))
    prog = derive_clauses(untyped, frozenset(env.defs))
    ctx = EvalContext(env, {tld.predicate: untyped},
                      universe_depth=depth, unfold_depth=unfold)
    freevars = [(n, "term") for n in untyped.params]
    return check_equivalence(ctx, program_formula(prog), untyped.definition,
                             freevars, depth=depth)


def test_clauses_agree_with_their_description():
    rep = clark_agrees("letter ::= a | b.",
                       "p(X: letter) <=> X = a \\/ X = b /\\ ~(X = a).")
    assert rep.ok and rep.violations == 0


def test_clauses_agree_for_the_recursive_fixture(maxprefix_ws):
    tld = maxprefix_ws.tlds["max_prefix_gen"]
    untyped = simplify_description(transform_tld(tld))
    prog = derive_clauses(untyped, frozenset(maxprefix_ws.env.defs))
    ctx = EvalContext(maxprefix_ws.env, {"max_prefix_gen": untyped},
                      universe_depth=2, unfold_depth=4)
    rep = check_equivalence(ctx, program_formula(prog), untyped.definition,
                            [(n, "term") for n in untyped.params], depth=2)
    assert rep.violations == 0


# -- the single walk against the three-pass reference ------------------------------

def _random_text(rng, depth, names, positive=True):
    """A formula over every connective, ``true``/``false``, type checks and
    both quantifiers, whose binders shadow each other and the parameters.
    A quantifier is mostly the one its polarity can derive."""
    if depth == 0 or rng.random() < 0.15:
        x, y = rng.choice(names), rng.choice(names)
        return rng.choice([f"{x} = {y}", f"{x} = a", f"{x} = s({y})", f"q({x})",
                           f"r({x}, {y})", f"nat({x})", f"term({y})", "true", "false"])
    kind = rng.choice(["and", "or", "not", "implies", "iff", "quantifier",
                       "negated quantifier"])
    if kind in ("and", "or"):
        op = " /\\ " if kind == "and" else " \\/ "
        return "(" + op.join(_random_text(rng, depth - 1, names, positive)
                             for _ in range(rng.randint(2, 3))) + ")"
    if kind == "not":
        return "~" + _random_text(rng, depth - 1, names, not positive)
    if kind == "implies":
        return ("(" + _random_text(rng, depth - 1, names, not positive) + " => "
                + _random_text(rng, depth - 1, names, positive) + ")")
    if kind == "iff":
        return ("(" + _random_text(rng, depth - 1, names, positive) + " <=> "
                + _random_text(rng, depth - 1, names, positive) + ")")
    negated = kind == "negated quantifier"
    derivable = "exists" if positive != negated else "forall"
    other = "forall" if derivable == "exists" else "exists"
    var = rng.choice(["V", "V1", "W", "X", "Y"])
    quantifier = (f"{derivable if rng.random() < 0.8 else other} {var}: "
                  f"{rng.choice(['term', 'nat'])} . ")
    body = _random_text(rng, depth - 1, names + [var], positive != negated)
    return ("~" if negated else "") + "(" + quantifier + body + ")"


def _outcome(normalizer, description):
    try:
        nb = normalizer(description, TYPES)
    except NotDerivableError as e:
        return str(e)
    return nb, [[lit.pos for lit in d.literals] for d in nb.disjuncts]


def _random_descriptions(seed):
    """100 seeded descriptions over ``_random_text``, with their texts."""
    rng = random.Random(seed)
    for _ in range(100):
        params = rng.choice([["X"], ["X", "Y"], ["X", "V", "V1"]])
        text = _random_text(rng, rng.randint(2, 5), params + ["Z"])
        yield LogicDescription("p", tuple(params), parse_formula(text)), text


@pytest.mark.parametrize("seed", range(4))
def test_single_walk_matches_the_three_pass_reference(seed):
    for description, text in _random_descriptions(seed):
        assert _outcome(normalize, description) == _outcome(reference_normalize,
                                                            description), text


@pytest.mark.parametrize("seed", range(4))
def test_every_disjunct_is_its_own_scope(seed):
    for description, text in _random_descriptions(seed):
        try:
            nb = normalize(description, TYPES)
        except NotDerivableError:
            continue
        outside = set(description.params) | set(ast.free_names(description.definition))
        for d in nb.disjuncts:
            local = [n for n, _ in d.exvars]
            assert len(local) == len(set(local)), text
            assert outside.isdisjoint(local), text
            for lit in d.literals:
                assert set(ast.literal_vars(lit)) <= outside.union(local), text


def conjoined_disjunctions(k, var="X"):
    return "(" + " /\\ ".join(f"(lt({var}, {i}) \\/ ge({var}, {i}))"
                              for i in range(k)) + ")"


@pytest.mark.parametrize("text", [
    " \\/ ".join(["X = a"] * 4097),
    conjoined_disjunctions(13),
    # 2**7 * 2**6 clauses in the equivalence's first case
    conjoined_disjunctions(7) + " <=> " + conjoined_disjunctions(6, "Y"),
    # 4096 + 12 clauses in the equivalence's two cases together
    conjoined_disjunctions(12) + " <=> X = a",
    # 4096 + 1 clauses in the implication, 4096 * 2 in its negation
    "(" + " /\\ ".join(["X = a"] * 4096) + ") => q(X)",
    "~(" + conjoined_disjunctions(12) + " => (X = a /\\ X = b))",
    # the first positioned node of the normal form: the expanded connective's,
    # and never a negation's
    "(lt(X, 0) => ge(X, 0)) /\\ " + conjoined_disjunctions(12),
    "(lt(X, 0) <=> ge(X, 0)) /\\ " + conjoined_disjunctions(12),
    "(~~lt(X, 0) \\/ ge(X, 0)) /\\ " + conjoined_disjunctions(12),
])
def test_blowups_match_the_reference(text):
    description = ld(["X", "Y"], text)
    with pytest.raises(NotDerivableError) as exc:
        normalize(description, TYPES)
    assert str(exc.value).startswith("derive-blowup: ")
    assert str(exc.value) == _outcome(reference_normalize, description)


def test_blowup_before_a_universal_is_reported_first():
    # the one walk meets the disjunction's blowup before the universal; the
    # reference's first pass refused the universal before distributing
    disjunction = "(" + " \\/ ".join(["X = a"] * 4097) + ") /\\ ("
    description = ld(["X"], disjunction + "forall Y: term . q(X, Y))")
    with pytest.raises(NotDerivableError, match="^derive-blowup: the disjunction at "
                       "<formula>:1:2 distributes into 4097 clauses"):
        normalize(description, TYPES)
    assert _outcome(reference_normalize, description) == (
        "universal quantifier in a body position at "
        f"<formula>:1:{len(disjunction) + 1}")
