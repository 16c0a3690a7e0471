import contextlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from tldforge import ast
from tldforge.analysis import (AbstractState, Registry, ReorderFailure,
                               RESPEC_SUGGESTION, SPLIT_SUGGESTION,
                               abstract_step, analyze_determinism,
                               analyze_procedure, detect_switch,
                               eliminate_checks, initial_state, proved_checks,
                               reorder, run_as_written, trusted_params, _LiteralStep,
                               _outs_satisfied)
from tldforge.ast import (Call, Clause, NafNot, Program, Struct, TypeCheck,
                          Unify, Var)
from tldforge.diagnostics import SourcePos
from tldforge.derive import body_formula, derive_clauses, literal_formula
from tldforge.codegen import flatten_program
from tldforge.errors import NotCallableError, ReorderLimitError, UnknownCalleeError
from tldforge.modes import (ALL_MODES, ANY, Directionality, GROUND, Mode,
                            Multiplicity, NOVAR, Spec, VAR, bound_leq)
from tldforge.parser import parse_specs, parse_types
from tldforge.printer import format_literal
from tldforge.semantics import TRUE, UNKNOWN, check_agreement, evaluate
from tldforge.transform import simplify_description, transform_tld
from tldforge.workspace import builtin_specs, load_workspace
from reference_reorder import reorder as reference_reorder
from util import (instantiation_class, reference_determinism, reference_literal_mults,
                  reference_pick, reference_step, reinstated_clause, resolve, unify)

D11 = Multiplicity(1, 1)
D01 = Multiplicity(0, 1)


@pytest.fixture(scope="module")
def registry(maxprefix_ws):
    return maxprefix_ws.registry


def state_of(**modes):
    return AbstractState.make({k: Mode.from_name(v) for k, v in modes.items()})


def test_decomposing_a_ground_list_grounds_the_pieces(registry):
    st = state_of(L="ground", H="var", T="var")
    lit = Unify(Var("L"), ast.cons(Var("H"), Var("T")))
    out = abstract_step(st, lit, registry)
    modes = out.mode_map()
    assert modes["H"] == GROUND and modes["T"] == GROUND


def test_aliasing_a_variable_to_ground(registry):
    st = state_of(M="var", A="ground")
    out = abstract_step(st, Unify(Var("M"), Var("A")), registry)
    assert out.mode_map()["M"] == GROUND


def test_type_checks_are_tests_not_generators(registry):
    st = state_of(M="var")
    with pytest.raises(NotCallableError):
        abstract_step(st, TypeCheck("integer", Var("M")), registry)
    abstract_step(state_of(M="ground"), TypeCheck("integer", Var("M")), registry)


def test_binding_a_variable_to_a_nonground_term(registry):
    st = state_of(X="var", Y="var")
    out = abstract_step(st, Unify(Var("X"), Struct("f", (Var("Y"),))), registry)
    modes = out.mode_map()
    assert modes["X"] == NOVAR


def test_call_takes_declared_out_modes_and_typefacts(registry):
    st = state_of(H="ground", A="ground", A1="var")
    out = abstract_step(st, Call("plus", (Var("H"), Var("A"), Var("A1"))), registry)
    assert out.mode_map()["A1"] == GROUND


def test_call_without_matching_directionality(registry):
    st = state_of(H="var", A="var", A1="var")
    with pytest.raises(NotCallableError):
        abstract_step(st, Call("plus", (Var("H"), Var("A"), Var("A1"))), registry)


def test_unknown_callee(registry):
    with pytest.raises(UnknownCalleeError):
        abstract_step(state_of(X="ground"), Call("mystery", (Var("X"),)), registry)


def test_negation_needs_ground_arguments(registry):
    st = state_of(X="var")
    with pytest.raises(NotCallableError):
        abstract_step(st, NafNot(Unify(Var("X"), Struct("a"))), registry)
    ok = abstract_step(state_of(X="ground"),
                       NafNot(Unify(Var("X"), Struct("a"))), registry)
    assert ok.mode_map()["X"] == GROUND


SHARE_CLAUSE = Clause("p", (Var("X"), Var("Y"), Var("Z")),
                      (Call("q", (Var("X"), Var("W"))), Unify(Var("Z"), Var("W"))))
SHARE_MODES = ((GROUND, GROUND), (VAR, GROUND), (NOVAR, ANY))


def test_no_share_seed_excludes_declared_pairs():
    # the state holds modes alone, so there are no sharing pairs to seed:
    # no-share pairs are part of the .spec format and leave the state unchanged
    st = initial_state(SHARE_CLAUSE, Directionality(SHARE_MODES, D01))
    d = Directionality(SHARE_MODES, D01, frozenset({(1, 3)}))
    assert d.nosh == frozenset({(1, 3)})
    assert initial_state(SHARE_CLAUSE, d) == st


def test_ground_parameters_never_share(registry):
    st = initial_state(SHARE_CLAUSE, Directionality(SHARE_MODES, D01))
    assert st.mode_map() == {"X": GROUND, "Y": VAR, "Z": NOVAR, "W": VAR}
    # a ground term shares no variable, so binding its partner leaves it ground
    out = abstract_step(st, Unify(Var("Y"), Struct("f", (Var("W"),))), registry)
    out = abstract_step(out, Unify(Var("X"), Var("Z")), registry).mode_map()
    assert out["X"] == out["Z"] == GROUND
    assert out["Y"] == NOVAR


# -- reordering --------------------------------------------------------------------

def derived_program(ws, name):
    tld = ws.tlds[name]
    untyped = simplify_description(transform_tld(tld))
    return flatten_program(derive_clauses(untyped, frozenset(ws.env.defs)))


def test_first_directionality_order_matches_expected(maxprefix_ws, registry):
    prog = derived_program(maxprefix_ws, "max_prefix_gen")
    spec = maxprefix_ws.specs["max_prefix_gen"]
    d1 = spec.directionalities[0]
    c1 = reorder(prog.clauses[0], d1, registry)
    assert [literal_formula(lit) for lit in c1.body] == [
        ast.Atom("integer_list", (Var("L"),)),
        ast.Atom("integer", (Var("A"),)),
        ast.Eq(Var("L"), ast.NIL),
        ast.Eq(Var("M"), Var("A")),
        ast.Atom("integer", (Var("M"),)),
    ]
    c2 = reorder(prog.clauses[1], d1, registry)
    kinds = [lit.predicate if isinstance(lit, Call) else type(lit).__name__
             for lit in c2.body]
    plus_at = kinds.index("plus")
    rec_at = kinds.index("max_prefix_gen")
    max_at = kinds.index("max")
    assert plus_at < rec_at < max_at


def test_reordering_is_deterministic(maxprefix_ws, registry):
    prog = derived_program(maxprefix_ws, "max_prefix_gen")
    d1 = maxprefix_ws.specs["max_prefix_gen"].directionalities[0]
    first = reorder(prog.clauses[1], d1, registry)
    second = reorder(prog.clauses[1], d1, registry)
    assert first == second


def test_unsatisfiable_directionality_returns_both_suggestions(registry):
    clause = Clause("q", (Var("X"),), (NafNot(Unify(Var("X"), Struct("a"))),))
    d = Directionality(((VAR, VAR),), D01)
    out = reorder(clause, d, registry)
    assert isinstance(out, ReorderFailure)
    assert out.suggestions == (SPLIT_SUGGESTION, RESPEC_SUGGESTION)


def test_head_out_modes_must_be_reached(registry):
    # X never becomes ground, so var -> ground cannot be satisfied
    clause = Clause("q", (Var("X"),), ())
    d = Directionality(((VAR, GROUND),), D11)
    out = reorder(clause, d, registry)
    assert isinstance(out, ReorderFailure)


def test_backtracking_beyond_the_greedy_run(registry):
    # scheduling the unification first floats the check; greedy alone works
    # here, but an initially callable choice must not poison the search
    clause = Clause("p", (Var("X"), Var("Y")),
                    (Unify(Var("X"), Var("Y")),
                     TypeCheck("integer", Var("X"))))
    d = Directionality(((VAR, GROUND), (GROUND, GROUND)), D11)
    out = reorder(clause, d, registry)
    assert not isinstance(out, ReorderFailure)


# -- elimination --------------------------------------------------------------------

def test_fixture_elimination_keeps_exactly_the_unproved_check(maxprefix_ws, registry):
    spec = maxprefix_ws.specs["max_prefix_gen"]
    results = analyze_procedure(derived_program(maxprefix_ws, "max_prefix_gen"),
                                spec, registry)
    clause1, clause2 = results[0].eliminated.clauses
    assert [literal_formula(lit) for lit in clause1.body] == [
        ast.Eq(Var("L"), ast.NIL),
        ast.Eq(Var("M"), Var("A")),
        ast.Atom("integer", (Var("M"),)),
    ]
    assert not any(isinstance(lit, TypeCheck) for lit in clause2.body)
    assert len(clause2.body) == 4


def test_level_none_keeps_everything(maxprefix_ws, registry):
    spec = maxprefix_ws.specs["max_prefix_gen"]
    results = analyze_procedure(derived_program(maxprefix_ws, "max_prefix_gen"),
                                spec, registry, level="none")
    assert results[0].removed == ()
    assert any(isinstance(lit, TypeCheck) for lit in results[0].eliminated.clauses[0].body)


def test_typefacts_do_not_flow_through_variable_aliasing(registry):
    # M = A links M to trusted A, but elimination must still keep integer(M)
    spec = Spec("p", ("A", "M"), ("integer", "integer"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), D11),))
    clause = Clause("p", (Var("A"), Var("M")),
                    (Unify(Var("M"), Var("A")), TypeCheck("integer", Var("M"))))
    result = eliminate_checks(Program("p", 2, (clause,)), spec,
                              registry, "paper-compat")
    assert any(isinstance(lit, TypeCheck) for lit in result.program.clauses[0].body)


def test_alias_equivalence_counts_for_removal():
    env, _ = parse_types("nat ::= zero | s(nat).\nnat2 == nat.")
    spec = Spec("p", ("X",), ("nat",), directionalities=(
        Directionality(((GROUND, GROUND),), D01),))
    reg = Registry(env, {"p": spec})
    clause = Clause("p", (Var("X"),), (TypeCheck("nat2", Var("X")),))
    result = eliminate_checks(Program("p", 1, (clause,)), spec, reg, "paper-compat")
    assert result.program.clauses[0].body == ()
    assert len(result.removed) == 1


BUILT_ENV = parse_types("nat ::= zero | s(nat).\nnat2 == nat.\n"
                        "fruit ::= enum {orange, apple}.\n"
                        "nat_list ::= [] | [nat | nat_list].\n"
                        "t ::= f(nat) | f(fruit).\n")[0]


def _built_spec(name, params):
    """A specification of ``params``, (name, type) pairs, with one
    directionality: the first ground in, so trusted, the others var -> ground."""
    modes = ((GROUND, GROUND),) + ((VAR, GROUND),) * (len(params) - 1)
    return Spec(name, tuple(n for n, _ in params), tuple(t for _, t in params),
                directionalities=(Directionality(modes, D01),))


BUILT_SPECS = {"dbl": _built_spec("dbl", (("X", "nat"), ("Y", "nat"))),
               "n": _built_spec("n", (("X", "nat"),)),
               "nl": _built_spec("nl", (("L", "nat_list"),)),
               "fr": _built_spec("fr", (("F", "fruit"),))}


def _after_elimination(*body, links=False):
    """The body of p(X, Y), X: nat trusted and Y: nat an output, after check
    elimination, or with ``links`` without each check that the fact pass
    proves reading variable-variable unifications too, as determinism reads
    it; calls go to dbl, n, nl and fr."""
    spec = _built_spec("p", (("X", "nat"), ("Y", "nat")))
    reg = Registry(BUILT_ENV, {**BUILT_SPECS, "p": spec})
    clause = Clause("p", (Var("X"), Var("Y")), body)
    if links:
        gone = proved_checks(clause, reg, trusted_params(spec), links=True)
        return tuple(lit for pos, lit in enumerate(body) if pos not in gone)
    return eliminate_checks(Program("p", 2, (clause,)), spec, reg).program.clauses[0].body


def _s(t):
    return Struct("s", (t,))


# A = B merges A, a nat once nat(A) ran, with B = s(Z): with links, Z is a nat
LINKED_BODY = (Unify(Var("B"), _s(Var("Z"))), TypeCheck("nat", Var("A")),
               Unify(Var("A"), Var("B")), TypeCheck("nat", Var("Z")))


@pytest.mark.parametrize("body", [
    (Unify(Var("Y"), Struct("zero")), TypeCheck("nat", Var("Y"))),
    (Unify(Struct("22"), Var("K")), TypeCheck("integer", Var("K"))),
    (Unify(Var("S"), Struct("apple")), TypeCheck("fruit", Var("S"))),
    (Unify(Var("Y"), _s(Struct("zero"))), TypeCheck("nat2", Var("Y"))),
    # the dbl recursion: the call types Y1, before or after the unification
    (Call("dbl", (Var("X1"), Var("Y1"))), Unify(Var("Y"), _s(_s(Var("Y1")))),
     TypeCheck("nat", Var("Y"))),
    (Unify(Var("Y"), _s(_s(Var("Y1")))), Call("dbl", (Var("X1"), Var("Y1"))),
     TypeCheck("nat", Var("Y"))),
    (Call("n", (Var("H"),)), Call("nl", (Var("T"),)),
     Unify(Var("L"), ast.cons(Var("H"), Var("T"))), TypeCheck("nat_list", Var("L"))),
    # X is trusted, so Z is a nat, and so is s(Z)
    (Unify(Var("X"), _s(Var("Z"))), Unify(Var("Y"), _s(Var("Z"))),
     TypeCheck("nat", Var("Y"))),
    # a check that ran proves what follows it: W is a nat, and so is s(W)
    (TypeCheck("nat", Var("W")), Unify(Var("Y"), _s(Var("W"))),
     TypeCheck("nat", Var("Y"))),
    # Y is a nat once nat(Y) ran, so the Z nested in s(s(Z)) is one
    (TypeCheck("nat", Var("Y")), Unify(Var("Y"), _s(_s(Var("Z")))),
     TypeCheck("nat", Var("Z"))),
    # n succeeds on a nat, so W in its argument s(W) is one
    (Call("n", (_s(Var("W")),)), Unify(Var("Y"), _s(Var("W"))), TypeCheck("nat", Var("Y"))),
    # W is a nat once nat(W) ran, after W = s(Z), so Z is one
    (Unify(Var("W"), _s(Var("Z"))), TypeCheck("nat", Var("W")), TypeCheck("nat", Var("Z"))),
    LINKED_BODY,
    # f(F) is built by t's second case, f(fruit)
    (Call("fr", (Var("F"),)), Unify(Var("W"), Struct("f", (Var("F"),))),
     TypeCheck("t", Var("W"))),
])
def test_a_check_after_a_term_built_of_its_type_is_removed(body):
    assert _after_elimination(*body, links=body == LINKED_BODY) == body[:-1]


@pytest.mark.parametrize("body", [
    (Unify(Var("Y"), Struct("orange")), TypeCheck("nat", Var("Y"))),
    (Unify(Var("Y"), Struct("22")), TypeCheck("nat", Var("Y"))),
    (Unify(Var("Y"), _s(Var("W"))), TypeCheck("nat", Var("Y"))),
    (Call("fr", (Var("W"),)), Unify(Var("Y"), _s(Var("W"))), TypeCheck("nat", Var("Y"))),
    (Call("n", (Var("H"),)), Unify(Var("L"), ast.cons(Var("H"), Var("T"))),
     TypeCheck("nat_list", Var("L"))),
    (Unify(Var("Y"), Struct("f", (Struct("zero"),))), TypeCheck("nat", Var("Y"))),
    # a variable-variable chain establishes nothing
    (Unify(Var("V"), Struct("zero")), Unify(Var("Y"), Var("V")),
     TypeCheck("nat", Var("Y"))),
    # a unification after the check proves nothing at the check
    (TypeCheck("nat", Var("Y")), Unify(Var("Y"), Struct("zero"))),
    # the check on the recursion's output comes before the call types Y1
    (Unify(Var("Y"), _s(_s(Var("Y1")))), TypeCheck("nat", Var("Y")),
     Call("dbl", (Var("X1"), Var("Y1")))),
    # check elimination reads no variable-variable unification
    LINKED_BODY,
    # t has two cases f: W = f(Z) does not tell which one built W
    (TypeCheck("t", Var("W")), Unify(Var("W"), Struct("f", (Var("Z"),))),
     TypeCheck("nat", Var("Z"))),
])
def test_a_check_after_a_term_not_built_of_its_type_stays(body):
    assert _after_elimination(*body) == body


# each a compile-typical template: enum constants, integer literals, nat
# terms and lists built of typed parts
TYPICAL_WORKSPACE = {
    "types": "nat ::= zero | s(nat).\nfruit ::= enum {orange, apple, banana}.\n"
             "integer_list ::= [] | [integer | integer_list].\n"
             "nat_list ::= [] | [nat | nat_list].\n",
    "spec": "procedure classify(X, S, P).\ntype X : integer.\ntype S : fruit.\n"
            "type P : nat.\ndir (ground, var -> ground, var -> ground) : <0-*>.\n"
            "procedure dbl(X, Y).\ntype X : nat.\ntype Y : nat.\n"
            "dir (ground, var -> ground) : <1-1>.\ndir (ground, ground) : <0-1>.\n"
            "procedure code(C, K).\ntype C : fruit.\ntype K : integer.\n"
            "dir (ground, var -> ground) : <1-1>.\n"
            "dir (var -> ground, ground) : <0-1>.\ndir (ground, ground) : <0-1>.\n"
            "procedure len(L, N).\ntype L : nat_list.\ntype N : integer.\n"
            "dir (ground, var -> ground) : <1-1>.\ndir (ground, ground) : <0-1>.\n"
            "procedure ilen(L, N).\ntype L : integer_list.\ntype N : integer.\n"
            "dir (ground, var -> ground) : <1-1>.\n"
            "procedure wrap(X, Y).\ntype X : integer.\ntype Y : nat.\n"
            "dir (ground, var -> ground) : <0-1>.\n",
    "tld": "classify(X: integer, S: fruit, P: nat) <=> (lt(X, 1) /\\ S = orange \\/ "
           "ge(X, 1) /\\ S = apple) /\\ (X = 0 /\\ P = zero \\/ gt(X, 0) /\\ "
           "P = s(zero) \\/ lt(X, 0) /\\ P = s(s(zero))).\n"
           "dbl(X: nat, Y: nat) <=> X = zero /\\ Y = zero \\/ exists X1: nat . "
           "exists Y1: nat . X = s(X1) /\\ dbl(X1, Y1) /\\ Y = s(s(Y1)).\n"
           "code(C: fruit, K: integer) <=> C = orange /\\ K = 2 \\/ "
           "C = apple /\\ K = 0 \\/ C = banana /\\ K = 1.\n"
           "len(L: nat_list, N: integer) <=> L = [] /\\ N = 0 \\/ exists T: nat_list . "
           "exists N1: integer . L = [H | T] /\\ len(T, N1) /\\ plus(N1, 1, N).\n"
           "ilen(L: integer_list, N: integer) <=> L = [] /\\ N = 0 \\/ "
           "exists T: integer_list . exists N1: integer . L = [H | T] /\\ "
           "ilen(T, N1) /\\ plus(N1, 1, N).\n"
           # no term is built of nat: W has an integer fact, V none: a check
           # removed here by mistake shows in the safety test
           "wrap(X: integer, Y: nat) <=> (exists W: integer . plus(X, 1, W) /\\ Y = s(W)) "
           "\\/ (exists V: integer . V = X /\\ Y = s(V)) \\/ X = 0 /\\ Y = orange.\n"}


# nat(W) runs after W = s(Z), and proves the nat(Z) after it; X is trusted
LEARNED_WORKSPACE = {
    "types": "nat ::= zero | s(nat).\n",
    "spec": "procedure h(X, Y).\ntype X : nat.\ntype Y : nat.\n"
            "dir (ground, ground) : <0-1>.\ndir (ground, var -> ground) : <0-1>.\n",
    "tld": "h(X: nat, Y: nat) <=> exists W: term . exists Z: term . "
           "W = X /\\ W = s(Z) /\\ Z = Y /\\ nat(W) /\\ nat(Z).\n"}


def _written_workspace(tmp_path_factory, files):
    d = tmp_path_factory.mktemp("ws")
    for ext in ("types", "spec", "tld"):
        (d / f"w.{ext}").write_text(files[ext])
    (d / "manifest.txt").write_text("types w.types\nspec w.spec\ntld w.tld\n")
    loaded = load_workspace(d / "manifest.txt")
    assert loaded.ok, [x.format() for x in loaded.diagnostics]
    return loaded.workspace


@pytest.fixture(scope="module")
def typical_ws(tmp_path_factory):
    return _written_workspace(tmp_path_factory, TYPICAL_WORKSPACE)


@pytest.fixture(scope="module")
def learned_ws(tmp_path_factory):
    return _written_workspace(tmp_path_factory, LEARNED_WORKSPACE)


@pytest.fixture(scope="module")
def split_ws(maxprefix_dir):
    loaded = load_workspace(maxprefix_dir.parent / "split_versions" / "manifest.txt")
    assert loaded.ok, [x.format() for x in loaded.diagnostics]
    return loaded.workspace


def test_a_check_that_ran_proves_the_checks_after_it(split_ws):
    # q's X and Y are each var in one directionality, so neither is
    # trusted; once the first check of the second clause has run, X = s(Z)
    # or Y = s(s(Z)) makes Z a nat, and the other term is built of nat
    results = analyze_procedure(derived_program(split_ws, "q"), split_ws.specs["q"],
                                split_ws.registry)
    assert [[format_literal(lit) for lit in res.eliminated.clauses[1].body
             if isinstance(lit, TypeCheck)] for res in results] == [["nat(X)"], ["nat(Y)"]]


def test_typical_templates_keep_only_the_checks_nothing_before_proves(typical_ws):
    kept = {name: [format_literal(lit) for res in analyze_procedure(
                derived_program(typical_ws, name), typical_ws.specs[name],
                typical_ws.registry)
            for c in res.eliminated.clauses for lit in c.body if isinstance(lit, TypeCheck)]
            for name in typical_ws.tlds}
    # what stays is a check placed before the literal that would prove it
    # (a ground input that is not trusted is tested first), and wrap's
    assert kept == {"classify": [], "dbl": ["nat(Y)", "nat(Y)"], "code": [
        "fruit(C)", "fruit(C)", "fruit(C)", "integer(K)", "integer(K)", "integer(K)",
        "fruit(C)", "integer(K)", "fruit(C)", "integer(K)", "fruit(C)", "integer(K)"],
        "len": ["integer(N)", "integer(N)"], "ilen": [],
        "wrap": ["nat(Y)", "integer(V)", "nat(Y)", "nat(Y)"]}


def test_elimination_safety_on_the_fixtures(maxprefix_ws, typical_ws, split_ws, learned_ws):
    # reinstating any removed check must not change bounded evaluation over
    # well-typed inputs, nor, when the check is on a parameter that is not
    # trusted, over every term as that parameter: only a trusted parameter's
    # check is removed on the strength of its declared type (split_ws's q
    # removes checks on the strength of a check that ran, and learned_ws's h
    # on a type its check gave a term unified before it)
    learned = analyze_procedure(derived_program(learned_ws, "h"), learned_ws.specs["h"],
                                learned_ws.registry)
    assert [[format_literal(rc.literal) for rc in res.removed] for res in learned] == [
        ["nat(X)", "nat(Z)"], ["nat(X)", "nat(Z)"]]
    for ws, name in [(w, n) for w in (maxprefix_ws, typical_ws, split_ws, learned_ws)
                     for n in w.tlds]:
        registry = ws.registry
        ctx = ws.eval_context(universe_depth=2, unfold_depth=4)
        spec = ws.specs[name]
        results = analyze_procedure(derived_program(ws, name), spec, registry)
        trusted = trusted_params(spec)
        freevars = list(zip(spec.params, spec.param_types))
        for res in results:
            for ci, clause in enumerate(res.eliminated.clauses):
                with_all = body_formula(res.ordered.clauses[ci])
                without = body_formula(clause)
                rep = check_agreement(ctx, with_all, without, freevars,
                                      depth=2, side="untyped")
                assert rep.ok, (name, ci, rep.first_disagreement)
            for removed in res.removed:
                # the check back at its body position, inside the clause's
                # existential over its locals
                clause = res.eliminated.clauses[removed.clause_index]
                checked = removed.literal.arg.name
                rep = check_agreement(ctx, body_formula(reinstated_clause(res, removed)),
                                      body_formula(clause),
                                      [(p, ast.UNIVERSAL_TYPE if p == checked and p not in trusted
                                        else t) for p, t in freevars],
                                      depth=2, side="untyped")
                assert rep.ok and rep.inconclusive == 0, (name, removed, rep)


# -- determinism --------------------------------------------------------------------

def determinism(prog, d, reg):
    """analyze_determinism on the multiplicities reorder records; each
    program here is already in an executable order, which reorder keeps."""
    mults = []
    for clause in prog.clauses:
        clause_mults = []
        assert reorder(clause, d, reg, clause_mults) == clause
        mults.append(clause_mults)
    return analyze_determinism(prog, d, reg, mults)


def test_fixture_multiplicities(maxprefix_ws, registry):
    spec = maxprefix_ws.specs["max_prefix_gen"]
    results = analyze_procedure(derived_program(maxprefix_ws, "max_prefix_gen"),
                                spec, registry)
    assert results[0].determinism.computed == D11
    assert results[1].determinism.computed == D01
    assert all(r.determinism.ok for r in results)
    assert results[0].determinism.switch is not None


def _mirrored(f):
    """f with every equation s = t written t = s."""
    if isinstance(f, ast.Eq):
        return replace(f, left=f.right, right=f.left)
    if isinstance(f, (ast.And, ast.Or)):
        return replace(f, items=tuple(map(_mirrored, f.items)))
    if isinstance(f, (ast.Not, ast.Exists, ast.Forall)):
        return replace(f, body=_mirrored(f.body))
    if isinstance(f, (ast.Implies, ast.Iff)):
        return replace(f, left=_mirrored(f.left), right=_mirrored(f.right))
    return f


@pytest.mark.parametrize("fixture", ["maxprefix", "dnf"])
def test_mirrored_equations_analyze_alike(fixture, maxprefix_dir):
    # t = s unifies, proves type facts and discriminates a switch as s = t does
    loaded = load_workspace(maxprefix_dir.parent / fixture / "manifest.txt")
    assert loaded.ok
    ws = loaded.workspace
    mirrored = replace(ws, tlds={name: replace(tld, definition=_mirrored(tld.definition))
                                 for name, tld in ws.tlds.items()})
    assert mirrored.tlds != ws.tlds

    def outcome(w, name):
        return [(sorted((rc.clause_index, rc.position) for rc in r.removed),
                 r.determinism.computed,
                 r.determinism.switch and r.determinism.switch.positions)
                for r in analyze_procedure(derived_program(w, name), w.specs[name],
                                           w.registry)]
    for name in ws.tlds:
        assert outcome(mirrored, name) == outcome(ws, name), name


def test_single_possibly_failing_unification():
    env, _ = parse_types("letter ::= a | b.")
    spec = Spec("p", ("X",), ("letter",), directionalities=(
        Directionality(((GROUND, GROUND),), D01),))
    reg = Registry(env, {"p": spec})
    clause = Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),))
    det = determinism(Program("p", 1, (clause,)), spec.directionalities[0], reg)
    assert det.computed == D01
    assert det.switch is None  # one case does not cover the type


def test_switch_detection_requires_coverage_and_distinct_cases():
    env, _ = parse_types("letter ::= a | b.")
    spec = Spec("p", ("X",), ("letter",), directionalities=(
        Directionality(((GROUND, GROUND),), D11),))
    reg = Registry(env, {"p": spec})
    covering = Program("p", 1, (
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),)),
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("b")),))))
    d = spec.directionalities[0]
    assert detect_switch(covering, d, spec, env) is not None
    assert determinism(covering, d, reg).computed == D11
    duplicated = Program("p", 1, (
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),)),
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),))))
    assert detect_switch(duplicated, d, spec, env) is None


def test_zero_clause_program_is_failure(registry):
    spec = maxspec = Spec("p", ("X",), ("integer",), directionalities=(
        Directionality(((GROUND, GROUND),), D01),))
    reg = Registry(registry.env, {"p": spec})
    det = determinism(Program("p", 1, ()), spec.directionalities[0], reg)
    assert det.computed == Multiplicity(0, 0)


def test_clause_sum_without_switch():
    env, _ = parse_types("letter ::= a | b.")
    spec = Spec("p", ("X", "Y"), ("term", "term"), directionalities=(
        Directionality(((VAR, ANY), (GROUND, GROUND)), Multiplicity(2, 3)),))
    reg = Registry(env, {"p": spec})
    prog = Program("p", 2, (
        Clause("p", (Var("X"), Var("Y")), (Unify(Var("X"), Struct("a")),)),
        Clause("p", (Var("X"), Var("Y")), (Unify(Var("X"), Struct("b")),)),
        Clause("p", (Var("X"), Var("Y")), (Unify(Var("Y"), Struct("c")),))))
    det = determinism(prog, spec.directionalities[0], reg)
    assert det.computed == Multiplicity(2, 3)
    assert det.ok


def test_declared_bounds_violation_reported():
    env, _ = parse_types("letter ::= a | b.")
    spec = Spec("p", ("X",), ("term",), directionalities=(
        Directionality(((VAR, ANY),), D11),))
    reg = Registry(env, {"p": spec})
    prog = Program("p", 1, (
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),)),
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("b")),))))
    det = determinism(prog, spec.directionalities[0], reg)
    assert det.computed == Multiplicity(2, 2)
    assert not det.ok


# -- concrete soundness of the abstract step -----------------------------------------

def test_unification_post_states_cover_concrete_runs(registry):
    rng = random.Random(5)
    grounds = [Struct("zero"), Struct("s", (Struct("zero"),)), Struct("a")]

    def concretize(mode, name, k):
        if mode == GROUND:
            return rng.choice(grounds)
        if mode == VAR:
            return Var(f"F{name}{k}")
        return Struct("s", (Var(f"F{name}{k}"),))  # non-ground non-variable

    for trial in range(400):
        mx = rng.choice([GROUND, VAR, Mode.from_name("ngv")])
        my = rng.choice([GROUND, VAR, Mode.from_name("ngv")])
        st = AbstractState.make({"X": mx, "Y": my})
        shape = rng.randrange(3)
        if shape == 0:
            lit = Unify(Var("X"), Var("Y"))
        elif shape == 1:
            lit = Unify(Var("X"), Struct("s", (Var("Y"),)))
        else:
            lit = Unify(Var("X"), Struct("pair2", (Var("Y"), Var("Y"))))
        if shape == 0 and mx == my == VAR:
            # Mercury's rule: a unification of two free variables cannot run
            with pytest.raises(NotCallableError, match="two free variables would alias"):
                abstract_step(st, lit, registry)
            continue
        post = abstract_step(st, lit, registry).mode_map()
        cx, cy = concretize(mx, "x", trial), concretize(my, "y", trial)
        binding = {"X": cx, "Y": cy}
        left = ast.subst_term(lit.left, binding)
        right = ast.subst_term(lit.right, binding)
        subst = unify(left, right, {})
        if subst is None:
            continue  # failure: no post-state to check
        for name, concrete in (("X", cx), ("Y", cy)):
            result = resolve(concrete, subst)
            assert instantiation_class(result) in post[name].atoms, (
                trial, lit, st, post, name, result)


# -- the memoized reorder against brute force -----------------------------------------

def _first_valid_permutation(clause, d, registry):
    """Slow reference: the first permutation in itertools order that every
    abstract step accepts and that reaches the directionality's out modes."""
    walked = {(): initial_state(clause, d)}  # prefix -> its state, None if stuck
    for perm in itertools.permutations(range(len(clause.body))):
        for k in range(1, len(perm) + 1):
            prefix = perm[:k]
            if prefix not in walked:
                try:
                    walked[prefix] = reference_step(walked[perm[:k - 1]],
                                                    clause.body[perm[k - 1]], registry)
                except NotCallableError:
                    walked[prefix] = None
            if walked[prefix] is None:
                break
        else:
            if _outs_satisfied(walked[perm], clause, d):
                return perm
    return None


def _run_as_written(clause, d, registry):
    """Slow reference: every literal in written order through the reference
    step, with the callee directionality each call picks, then the head's
    out-modes."""
    state, picks = initial_state(clause, d), []
    for lit in clause.body:
        try:
            picks.append(reference_pick(state, lit, registry))
            state = reference_step(state, lit, registry)
        except NotCallableError:
            return None
    return picks if _outs_satisfied(state, clause, d) else None


TRAP_SPECS = ("procedure src(A, B).\ntype A : integer.\ntype B : integer.\n"
              "dir (ground, var -> ground) : <1-1>.\n\n"
              "procedure split(A, B, C).\ntype A : integer.\ntype B : integer.\n"
              "type C : integer.\n"
              "dir (ground, var -> ground, var -> ground) : <1-1>.\n"
              "dir (ground, ground, var -> ground) : <0-1>.\n\n")

# callees beyond the builtins: an r-like generator, the perfbench chain
# trap's src (callable only while its second argument is free) and split,
# flip, which grounds its second argument only while its first is free, and
# q, which may bind the variables of a compound argument
SEARCH_SPECS = """
procedure q(A).
type A : term.
dir (novar) : <0-1>.

procedure r(A).
type A : integer.
dir (var -> ground) : <0-*>.
dir (ground) : <0-1>.

procedure t(A).
type A : integer.
dir (ground) : <0-1>.

procedure flip(A, B).
type A : integer.
type B : integer.
dir (var -> var, var -> ground) : <0-1>.
dir (ground, var -> var) : <0-1>.
""" + TRAP_SPECS


@pytest.fixture(scope="module")
def search_registry(registry):
    specs, diags = parse_specs(SEARCH_SPECS, "<search>")
    assert not diags, diags
    return Registry(registry.env, {**registry.specs, **{s.name: s for s in specs}})


NAMES = ("X", "Y", "Z", "W")
HEAD_MODES = ((GROUND, GROUND), (VAR, GROUND), (VAR, VAR), (VAR, ANY),
              (Mode.from_name("ngv"), ANY))


@st.composite
def clauses_and_dirs(draw):
    names = NAMES[:draw(st.integers(2, 4))]
    var = st.sampled_from(names).map(Var)
    const = st.sampled_from((Struct("a"), Struct("3")))
    call = st.one_of(
        st.tuples(st.sampled_from(("plus", "times", "split")), var,
                  st.one_of(var, const), var)
        .map(lambda t: Call(t[0], t[1:])),
        st.tuples(st.sampled_from(("gt", "lt", "src", "flip")), var, st.one_of(var, const))
        .map(lambda t: Call(t[0], t[1:])),
        var.map(lambda v: Call("r", (v,))),
        var.map(lambda v: Call("q", (Struct("f", (v,)),))))
    # constants and f(...) terms on either side, f(X) = f(Y) among them
    side = st.one_of(var, const, var.map(lambda v: Struct("f", (v,))))
    unify = st.tuples(side, side).map(lambda t: Unify(*t))
    check = var.map(lambda v: TypeCheck("integer", v))
    naf = st.one_of(unify, call).map(NafNot)
    body = draw(st.lists(st.one_of(call, unify, check, naf), max_size=6))
    head = tuple(Var(n) for n in names[:draw(st.integers(1, len(names)))])
    modes = tuple(draw(st.sampled_from(HEAD_MODES)) for _ in head)
    return Clause("p", head, tuple(body)), Directionality(modes, D01)


X, Y, Z, W = map(Var, NAMES)


@contextlib.contextmanager
def _counting_applies():
    """A one-element list that counts the ``_LiteralStep.apply`` calls made
    in the block."""
    original = _LiteralStep.apply
    count = [0]

    def counting(self, state, where):
        count[0] += 1
        return original(self, state, where)

    _LiteralStep.apply = counting
    try:
        yield count
    finally:
        _LiteralStep.apply = original


@settings(max_examples=300, deadline=None)
@given(clauses_and_dirs())
# the state after both literals depends on their order: X = f(Y) first
# leaves X non-ground, so a failure must not be remembered by subset alone
@example((Clause("p", (X, Y), (Unify(X, Struct("f", (Y,))), Unify(Y, Struct("a")))),
          Directionality(((VAR, GROUND), (VAR, GROUND)), D01)))
# the greedy pass runs Y = V while both are free and Y stays free; only the
# search finds plus first
@example((Clause("p", (X, Y), (Unify(Y, Z), Call("plus", (X, Struct("7"), Z)))),
          Directionality(((GROUND, GROUND), (VAR, GROUND)), D01)))
# the chain trap: split first leaves src uncallable, so the search must
# backtrack to run src before split
@example((Clause("p", (X, W), (Call("split", (X, Z, W)), Call("src", (X, Z)))),
          Directionality(((GROUND, GROUND), (VAR, GROUND)), D01)))
# the same with no order at all: the failure is the search's deepest prefix
@example((Clause("p", (X, W), (Call("split", (X, Z, W)), Call("src", (X, Z)),
                               TypeCheck("integer", Y))),
          Directionality(((GROUND, GROUND), (VAR, GROUND)), D01)))
# a monotone clause with no order: r grounds X, t(Y) never runs
@example((Clause("p", (Y,), (TypeCheck("integer", X), Call("r", (X,)),
                             Call("t", (Y,)), Unify(Y, Struct("3")))),
          Directionality(((VAR, GROUND),), D01)))
def test_reorder_is_the_first_valid_permutation(search_registry, case):
    clause, d = case
    mults: list = []
    with _counting_applies() as applied:
        out = reorder(clause, d, search_registry, mults)
    # the search that the saturation verdict and the limit cut short: the
    # same order, multiplicities and failure, reason and blocked literals
    ref_mults: list = []
    with _counting_applies() as ref_applied:
        assert out == reference_reorder(clause, d, search_registry, ref_mults)
    assert mults == ref_mults
    # the greedy pass is the search's first descent, never walked twice
    assert applied[0] <= ref_applied[0]
    expected = _first_valid_permutation(clause, d, search_registry)
    if expected is None:
        assert isinstance(out, ReorderFailure)
        return
    assert out.body == tuple(clause.body[i] for i in expected)
    # the recorded multiplicities are those the determinism analysis
    # computed by walking the returned order again
    assert mults == reference_literal_mults(out, d, search_registry)


@settings(max_examples=150, deadline=None)
@given(clauses_and_dirs(), st.lists(st.sampled_from(ALL_MODES), min_size=4, max_size=4))
# q may bind the Y inside its argument f(Y)
@example((Clause("p", (X,), (Call("q", (Struct("f", (Y,)),)),)),
          Directionality(((GROUND, GROUND),), D01)), [GROUND, VAR, VAR, VAR])
def test_abstract_step_is_the_reference_step(search_registry, case, modes):
    # the compiled step applied once gives the reference's post-state, or
    # fails with the reference's message
    clause, _ = case
    state = AbstractState.make(dict(zip(NAMES, modes)))
    for lit in clause.body:
        try:
            expected = reference_step(state, lit, search_registry)
        except NotCallableError as e:
            with pytest.raises(NotCallableError) as exc:
                abstract_step(state, lit, search_registry)
            assert str(exc.value) == str(e)
            continue
        assert abstract_step(state, lit, search_registry) == expected


def test_a_call_grounds_the_variables_of_a_compound_out_argument(search_registry):
    # wrap's second argument goes from any mode to ground, so wrap(X, f(Y))
    # grounds Y, the variable of its compound argument, from every mode
    specs, diags = parse_specs("procedure wrap(A, B).\ntype A : integer.\ntype B : term.\n"
                               "dir (ground, any -> ground) : <0-1>.\n", "<wrap>")
    assert not diags, diags
    reg = Registry(search_registry.env, {**search_registry.specs, "wrap": specs[0]})
    call = Call("wrap", (X, Struct("f", (Y,))))
    for mode in (VAR, NOVAR, ANY, GROUND):
        state = AbstractState.make({"X": GROUND, "Y": mode})
        assert abstract_step(state, call, reg) == reference_step(state, call, reg) \
            == AbstractState.make({"X": GROUND, "Y": GROUND})
    # the check on Y, written first, runs once the call has grounded Y
    check = TypeCheck("integer", Y)
    clause = Clause("p", (X, Y), (check, call))
    out = reorder(clause, Directionality(((GROUND, GROUND), (VAR, GROUND)), D01), reg)
    assert out.body == (call, check)


def test_a_literal_that_may_bind_a_compound_term_widens_its_variables(search_registry):
    # q(f(Y)) leaves f(Y) novar, so it may bind Y, as X = f(Y) may with X
    # not free: Y is no longer known to be free, and r, which needs it free,
    # runs first
    specs, diags = parse_specs("procedure r(B).\ntype B : term.\n"
                               "dir (var -> ground) : <0-*>.\n", "<probe>")
    assert not diags, diags
    reg = Registry(search_registry.env, {"q": search_registry.specs["q"], "r": specs[0]})
    call = Call("q", (Struct("f", (Y,)),))
    state = AbstractState.make({"X": GROUND, "Y": VAR})
    assert abstract_step(state, call, reg) == reference_step(state, call, reg) \
        == AbstractState.make({"X": GROUND, "Y": ANY})
    unify = Unify(X, Struct("f", (Y,)))
    state = AbstractState.make({"X": NOVAR, "Y": VAR})
    assert abstract_step(state, unify, reg) == reference_step(state, unify, reg) \
        == AbstractState.make({"X": NOVAR, "Y": ANY})
    clause = Clause("p", (X,), (call, Call("r", (Y,)), Unify(X, Y)))
    out = reorder(clause, Directionality(((GROUND, GROUND),), D01), reg)
    assert [format_literal(lit) for lit in out.body] == ["r(Y)", "q(f(Y))", "X = Y"]
    # C = A leaves C any, so C = s(D) may bind D: the written order of
    # p(X, Y) <=> A = s(B) /\ C = A /\ C = s(D) /\ B = X /\ D = Y runs, with
    # D any once C = s(D) ran
    a, b, c, d = map(Var, "ABCD")
    body = (Unify(a, _s(b)), Unify(c, a), Unify(c, _s(d)), Unify(b, X), Unify(d, Y))
    clause, both = Clause("p", (X, Y), body), Directionality(((GROUND, GROUND),) * 2, D01)
    mults: list = []
    assert reorder(clause, both, reg, mults).body == body
    assert mults == [D11, D11, D01, D11, D01]
    state = initial_state(clause, both)
    for lit in body[:3]:
        state = abstract_step(state, lit, reg)
    assert state.mode_map() == {"A": ANY, "B": VAR, "C": NOVAR, "D": ANY,
                                "X": GROUND, "Y": GROUND}


def _probe(g: int) -> Clause:
    """g generators r(Ci), each with its check, and a t(Z) that never runs:
    a monotone clause of 2g + 3 literals with no order."""
    cs = [Var(f"C{i}") for i in range(g)]
    body = ([TypeCheck("integer", Z)] + [TypeCheck("integer", c) for c in cs]
            + [Call("r", (c,)) for c in cs] + [Call("t", (Z,)), Unify(X, Struct("3"))])
    return Clause("p", (X,), tuple(body), provenance="disjunct 1 of 1")


def test_failing_monotone_reorder_applies_at_most_n_squared_literals(
        search_registry, monkeypatch):
    import tldforge.analysis as analysis
    count = 0
    original = analysis._LiteralStep.apply

    def counting(self, state, where):
        nonlocal count
        count += 1
        return original(self, state, where)

    monkeypatch.setattr(analysis._LiteralStep, "apply", counting)
    # eight literals, all callable in any order, none binding the output Y
    body = (Call("gt", (X, Struct("1"))), Call("plus", (X, Struct("2"), Var("V0"))),
            Call("lt", (X, Struct("3"))), Call("times", (X, Struct("4"), Var("V1"))),
            Call("ge", (X, Struct("5"))), Call("le", (X, Struct("6"))),
            Call("gt", (X, Struct("7"))), TypeCheck("integer", X))
    cases = [(Clause("p", (X, Y), body, provenance="disjunct 1 of 1"),
              Directionality(((GROUND, GROUND), (VAR, GROUND)), D01))]
    cases += [(_probe(g), Directionality(((VAR, GROUND),), D01)) for g in (3, 12, 40)]
    for clause, d in cases:
        count = 0
        out = reorder(clause, d, search_registry)
        n = len(clause.body)
        assert isinstance(out, ReorderFailure)
        assert out.reason == ("no literal permutation satisfies the directionality "
                              "(disjunct 1 of 1)")
        assert 0 < count <= n * n, (n, count)
        if n < 10:
            assert out == reference_reorder(clause, d, search_registry)
    assert [b.split(" never")[0] for b in out.blocked] == ["integer(Z)", "t(Z)"]


def test_the_builtins_are_monotone():
    specs = builtin_specs()
    assert len(specs) == 9
    reg = Registry(None, {s.name: s for s in specs})
    for s in specs:
        args = tuple(Var(f"A{i}") for i in range(s.arity))
        assert _LiteralStep(Call(s.name, args), reg).is_monotone(), s.name


def test_monotone_literals(search_registry):
    def monotone(lit):
        return _LiteralStep(lit, search_registry).is_monotone()

    assert monotone(Call("r", (X,)))
    assert monotone(Call("t", (X,)))
    assert monotone(Call("plus", (X, Struct("7"), X)))
    assert monotone(TypeCheck("integer", Struct("f", (X, Y))))
    assert monotone(NafNot(Call("lt", (X, Y))))
    assert monotone(Unify(X, Struct("s", (Struct("zero"),))))
    assert monotone(Unify(Struct("f", (X, Struct("1"))), Struct("f", (Struct("2"), Y))))
    # callable once a side is bound, as Mercury requires, and then it grounds
    # both
    assert monotone(Unify(X, Y))
    assert monotone(Unify(Struct("f", (X,)), Struct("f", (Y,))))
    # with X free it grounds Y, with X ground it leaves Y free: its effect
    # depends on when it runs
    assert not monotone(Call("flip", (X, Y)))
    # callable only while its second argument is free
    assert not monotone(Call("src", (X, Y)))
    # X = f(Y) leaves X neither ground nor var
    assert not monotone(Unify(X, Struct("f", (Y,))))


def test_a_non_monotone_literal_disqualifies_a_clause(search_registry, monkeypatch):
    import tldforge.analysis as analysis
    monkeypatch.setattr(analysis, "MAX_REORDER_STEPS", 0)
    d = Directionality(((VAR, GROUND),), D01)
    probe = _probe(2)
    # monotone: decided by the greedy pass, with no search step at all; so
    # is X = Z, which waits until a side is bound
    assert isinstance(reorder(probe, d, search_registry), ReorderFailure)
    clause = replace(probe, body=probe.body[:-1] + (Unify(X, Z),))
    assert isinstance(reorder(clause, d, search_registry), ReorderFailure)
    # X = f(Z) leaves X neither ground nor var before Z is ground, so only a
    # search decides the clause, and at a limit of 0 it stops at its first
    # dead end
    clause = replace(probe, body=probe.body[:-1] + (
        Unify(X, Struct("f", (Z,)), SourcePos("w.tld", 3, 5)),))
    with pytest.raises(ReorderLimitError) as exc:
        reorder(clause, d, search_registry)
    assert str(exc.value) == (
        "reorder-limit: the clause of p (disjunct 1 of 1) has no literal order for "
        "(var -> ground) : <0-1> within 0 dead ends of the search; it is searched "
        "because these are not monotone: X = f(Z) at w.tld:3:5")
    # so do head in-modes outside ground and var
    with pytest.raises(ReorderLimitError, match="not monotone: the head in-modes$"):
        reorder(probe, Directionality(((ANY, GROUND),), D01), search_registry)


def test_a_long_clause_stops_at_the_limit_not_at_the_recursion_limit(search_registry):
    # src(X, Y), callable only while Y is free, is not monotone, so the
    # search backtracks from the pass's dead end after 1,201 literals; its
    # path is a list, not the Python stack
    body = ((Call("src", (X, Y)),) + tuple(Call("gt", (X, Struct(str(c)))) for c in range(1200))
            + (Call("t", (Z,)),))
    clause = Clause("p", (X, Y), body, provenance="disjunct 1 of 1")
    d = Directionality(((GROUND, GROUND), (VAR, GROUND)), D01)
    with pytest.raises(ReorderLimitError, match=r"not monotone: src\(X, Y\)$"):
        reorder(clause, d, search_registry)


# -- analyze_procedure against the references on generated workspaces ---------------

DNF_PARTS = ("(lt(X, {c}) \\/ ge(X, {c}))", "(le(X, {c}) \\/ gt(X, {c}))",
             "(X = {c} \\/ gt(X, {c}))")
DNF_TAILS = ("plus(X, {c}, V) /\\ Y = V", "Y = V /\\ plus(X, {c}, V)")
DNF_DIRS = ("(ground, var -> ground) : <0-*>", "(ground, ground) : <0-*>",
            "(var -> ground, ground) : <0-*>")


def _dnf_workspace(rng):
    """k conjoined two-way disjunctions over X, then Y from X: the shape of
    the DNF benchmark, with random directionalities."""
    parts = [rng.choice(DNF_PARTS).format(c=rng.randrange(-5, 6))
             for _ in range(rng.randrange(1, 5))]
    body = " /\\ ".join(parts + [rng.choice(DNF_TAILS).format(c=rng.randrange(1, 9))])
    dirs = rng.sample(DNF_DIRS, rng.randrange(1, 4))
    return "", dirs, body


def _chain_workspace(rng):
    """A reverse data-flow chain of times/3 from X to Y, optionally through
    src/split, whose valid order needs backtracking."""
    n = rng.randrange(1, 5)
    names = ["X"] + [f"V{i}" for i in range(1, n)] + ["Y"]
    lits = [f"times({names[i]}, {rng.randrange(2, 6)}, {names[i + 1]})" for i in range(n)]
    extra = ""
    if rng.random() < 0.5:
        j = rng.randrange(n)
        lits[j] = lits[j].replace(f"({names[j]},", "(W,", 1)
        lits[j:j] = [f"split({names[j]}, Z, W)", f"src({names[j]}, Z)"]
        extra = TRAP_SPECS
    rng.shuffle(lits)
    dirs = rng.sample(("(ground, var -> ground) : <1-1>", "(ground, ground) : <0-1>",
                       "(var -> ground, ground) : <1-1>"), rng.randrange(1, 3))
    return extra, dirs, " /\\ ".join(lits)


def test_analyze_procedure_matches_the_references(tmp_path):
    rng = random.Random(10)
    compared = failed = 0
    for w in range(40):
        extra, dirs, body = (_dnf_workspace if w % 2 else _chain_workspace)(rng)
        d = tmp_path / f"w{w}"
        d.mkdir()
        (d / "w.types").write_text("")
        (d / "w.spec").write_text(extra + "procedure p(X, Y).\ntype X : integer.\n"
                                  "type Y : integer.\n"
                                  + "".join(f"dir {x}.\n" for x in dirs))
        (d / "w.tld").write_text(f"p(X: integer, Y: integer) <=> {body}.\n")
        (d / "manifest.txt").write_text("types w.types\nspec w.spec\ntld w.tld\n")
        loaded = load_workspace(d / "manifest.txt")
        assert loaded.ok, [x.format() for x in loaded.diagnostics]
        ws = loaded.workspace
        reg, spec = ws.registry, ws.specs["p"]
        prog = derived_program(ws, "p")
        for res, dir_ in zip(analyze_procedure(prog, spec, reg), spec.directionalities,
                             strict=True):
            perms = [_first_valid_permutation(c, dir_, reg) for c in prog.clauses]
            if None in perms:
                assert not res.ok, body
                failed += 1
                continue
            ordered = Program("p", 2, tuple(
                Clause("p", c.head_args, tuple(c.body[i] for i in perm))
                for c, perm in zip(prog.clauses, perms)))
            elim = eliminate_checks(ordered, spec, reg)
            assert res.ordered == ordered, body
            # the fixed-order walk the emitter runs for the other directionalities
            for other in spec.directionalities:
                for c in elim.program.clauses:
                    assert run_as_written(c, other, reg) == _run_as_written(c, other, reg)
            assert (res.eliminated, res.removed) == (elim.program, elim.removed), body
            assert res.determinism.computed == reference_determinism(
                elim.program, dir_, reg), body
            compared += 1
    assert compared >= 20 and failed >= 5, (compared, failed)


# -- computed multiplicities against answer counts on a bounded universe -------------

ALIAS_SPECS = """procedure q(A).
type A : nat.
dir (ground) : <0-1>.
dir (var -> ground) : <0-*>.

procedure p(X, Y).
type X : nat.
type Y : nat.
""" + "".join(f"dir ({m}) : <0-*>.\n" for m in (
    "ground, ground", "ground, var -> ground", "var -> ground, ground",
    "var -> ground, var -> ground"))


def _alias_body(rng):
    """Two to four literals over X, Y and the existentials A and B, without
    arithmetic: unifications of two variables, of a variable with zero or
    s(V), negated unifications and calls q(V), the first of them sometimes
    a disjunction."""
    def literal():
        u, v = rng.sample(("X", "Y", "A", "B"), 2)
        return rng.choice((f"{u} = {v}", f"{u} = {v}", f"{u} = s({v})", f"{u} = zero",
                           f"~({u} = {v})", f"q({u})"))
    lits = [literal() for _ in range(rng.randrange(2, 5))]
    if rng.random() < 0.25:
        lits[0] = f"({lits[0]} \\/ {literal()})"
    return "exists A: nat . exists B: nat . " + " /\\ ".join(lits)


def _answer_count(ctx, tld, d, ins: dict, values) -> int:
    """The answers of the description at the in-values ``ins``: the tuples
    of ``values`` at d's out-positions on which it evaluates to true."""
    outs = [n for (n, _), (m_in, _) in zip(tld.params, d.modes) if m_in != GROUND]
    count = 0
    for combo in itertools.product(values, repeat=len(outs)):
        verdict = evaluate(ctx, tld.definition, {**ins, **dict(zip(outs, combo))})
        assert verdict is not UNKNOWN
        count += verdict is TRUE
    return count


def test_computed_multiplicities_bound_the_answers(tmp_path):
    # the multiplicity the analysis computes must contain each input's
    # answer count on the bounded universe: both bounds where every position
    # is an input, the maximum where there are outputs.  The inputs range
    # over nat at depth 2; every literal adds at most one s(...), so the
    # outputs and the existentials' witnesses lie within depth 2 + 4.
    rng = random.Random(15)
    (tmp_path / "w.types").write_text("nat ::= zero | s(nat).\n")
    (tmp_path / "w.spec").write_text(ALIAS_SPECS)
    (tmp_path / "manifest.txt").write_text("types w.types\nspec w.spec\ntld w.tld\n")
    checked = aliasing = 0
    for _ in range(150):
        body = _alias_body(rng)
        (tmp_path / "w.tld").write_text(
            f"q(A: nat) <=> A = zero \\/ A = s(zero).\np(X: nat, Y: nat) <=> {body}.\n")
        loaded = load_workspace(tmp_path / "manifest.txt")
        assert loaded.ok, [x.format() for x in loaded.diagnostics]
        ws = loaded.workspace
        tld, ctx = ws.tlds["p"], ws.eval_context(universe_depth=6)
        ins_values = ws.env.enumerate_type("nat", 2)
        out_values = ws.env.enumerate_type("nat", 6)
        results = analyze_procedure(derived_program(ws, "p"), ws.specs["p"], ws.registry)
        for res in results:
            if not res.ok:
                continue
            d, computed = res.directionality, res.determinism.computed
            ins = [n for (n, _), (m_in, _) in zip(tld.params, d.modes) if m_in == GROUND]
            for combo in itertools.product(ins_values, repeat=len(ins)):
                count = _answer_count(ctx, tld, d, dict(zip(ins, combo)), out_values)
                assert bound_leq(count, computed.max), (body, str(d), combo, count)
                if len(ins) == len(tld.params):
                    assert bound_leq(computed.min, count), (body, str(d), combo, count)
                checked += 1
            aliasing += any(isinstance(lit, Unify) and isinstance(lit.left, Var)
                            and isinstance(lit.right, Var)
                            for c in res.ordered.clauses for lit in c.body)
    assert checked >= 300 and aliasing >= 50, (checked, aliasing)
