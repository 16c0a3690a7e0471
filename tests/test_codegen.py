import itertools

import pytest

from tldforge.analysis import Registry, analyze_procedure
from tldforge.ast import (Call, Clause, NafNot, Program, Struct, TypeCheck,
                          Unify, Var)
from tldforge.codegen import (MERCURY_MODE_TO_DIRECTION,
                              determinism_class, emit_mercury, emit_prolog,
                              flatten_arithmetic, mercury_determinism_to_multiplicity,
                              mode_to_mercury, mult_to_mercury_determinism)
from tldforge.derive import body_formula, derive_clauses
from tldforge.errors import MultipleOrdersError
from tldforge.modes import (ANY, Directionality, GROUND, INF, Multiplicity,
                            STAR, Spec, VAR)
from tldforge.parser import parse_tlds, parse_types
from tldforge.semantics import EvalContext
from tldforge.transform import simplify_description, transform_tld
from tldforge.workspace import builtin_specs
from util import read_prolog

D11 = Multiplicity(1, 1)
D01 = Multiplicity(0, 1)


# -- arithmetic flattening -----------------------------------------------------

def test_flattening_introduces_one_variable_per_distinct_subterm():
    h_plus_a = Struct("+", (Var("H"), Var("A")))
    clause = Clause("g", (Var("T"), Var("M1"), Var("H"), Var("A"), Var("M")), (
        Call("g", (Var("T"), Var("M1"), h_plus_a)),
        Call("max", (h_plus_a, Var("M1"), Var("M"))),
    ))
    flat = flatten_arithmetic(clause)
    assert flat.body == (
        Call("plus", (Var("H"), Var("A"), Var("A1"))),
        Call("g", (Var("T"), Var("M1"), Var("A1"))),
        Call("max", (Var("A1"), Var("M1"), Var("M"))),
    )


def test_flattening_leaves_plain_clauses_alone():
    # a one-argument minus is no arithmetic functor
    negated = Struct("-", (Var("X"),))
    clause = Clause("p", (Var("X"),), (
        Unify(Var("X"), Struct("a")),
        TypeCheck("nat", negated),
        NafNot(Call("q", (Struct("f", (Var("X"), negated)),))),
    ))
    assert flatten_arithmetic(clause) is clause


def test_nested_arithmetic_flattens_in_dependency_order():
    nested = Struct("+", (Struct("+", (Var("X"), Var("Y"))), Var("Z")))
    clause = Clause("p", (Var("X"), Var("Y"), Var("Z"), Var("W")),
                    (Unify(Var("W"), nested),))
    flat = flatten_arithmetic(clause)
    assert flat.body == (
        Call("plus", (Var("X"), Var("Y"), Var("A1"))),
        Call("plus", (Var("A1"), Var("Z"), Var("A2"))),
        Unify(Var("W"), Var("A2")),
    )
    # hand-flattening oracle: with plus/3 as addition, the flattened body
    # succeeds exactly at the chained sum, whenever the intermediate value
    # stays inside the bounded integer sample
    env, _ = parse_types("")
    ctx = EvalContext(env, {}, universe_depth=2, unfold_depth=2)
    flat_formula = body_formula(flat)
    ints = ctx.types.enumerate_type("integer", 1)
    sample = {int(t.functor) for t in ints}
    from tldforge.semantics import TRUE, evaluate
    for x, y, z in itertools.product(ints, repeat=3):
        partial = int(x.functor) + int(y.functor)
        total = partial + int(z.functor)
        for w in ints:
            got = evaluate(ctx, flat_formula,
                           {"X": x, "Y": y, "Z": z, "W": w}, side="untyped")
            if int(w.functor) == total and partial in sample:
                assert got is TRUE
            else:
                assert got is not TRUE


def test_fresh_names_skip_taken_ones():
    clause = Clause("p", (Var("A1"),),
                    (Unify(Var("A1"), Struct("+", (Struct("1"), Struct("2")))),))
    flat = flatten_arithmetic(clause)
    assert flat.body[0] == Call("plus", (Struct("1"), Struct("2"), Var("A2")))


def test_flattening_inside_negation_and_checks():
    clause = Clause("p", (Var("X"),), (
        NafNot(Unify(Var("X"), Struct("+", (Struct("1"), Struct("1"))))),
        TypeCheck("integer", Struct("*", (Var("X"), Var("X")))),
    ))
    flat = flatten_arithmetic(clause)
    assert flat.body[0] == Call("plus", (Struct("1"), Struct("1"), Var("A1")))
    assert flat.body[1] == NafNot(Unify(Var("X"), Var("A1")))
    assert flat.body[2] == Call("times", (Var("X"), Var("X"), Var("A2")))
    assert flat.body[3] == TypeCheck("integer", Var("A2"))


# -- determinism table -----------------------------------------------------------

def test_determinism_table_exact_rows():
    cases = {
        (1, 1): "det",
        (0, 1): "semidet",
        (0, STAR): "nondet",
        (0, INF): "nondet",
        (1, STAR): "multi",
        (1, INF): "multi",
        (STAR, STAR): "multi",
        (0, 0): "failure",
        (1, 0): "erroneous",
    }
    for (lo, hi), name in cases.items():
        mapping = mult_to_mercury_determinism(Multiplicity(lo, hi))
        assert mapping.name == name and mapping.widened is None


def test_determinism_table_reads_back_canonically():
    for name, canonical in [("det", (1, 1)), ("semidet", (0, 1)),
                            ("nondet", (0, STAR)), ("multi", (1, STAR)),
                            ("failure", (0, 0)), ("erroneous", (1, 0))]:
        assert mercury_determinism_to_multiplicity(name) == Multiplicity(*canonical)


def test_round_trip_stays_in_the_same_class():
    for name, pairs in [("det", [(1, 1)]), ("semidet", [(0, 1)]),
                        ("nondet", [(0, STAR), (0, INF)]),
                        ("multi", [(1, STAR), (1, INF), (STAR, STAR)]),
                        ("failure", [(0, 0)]), ("erroneous", [(1, 0)])]:
        cls = determinism_class(name)
        for lo, hi in pairs:
            assert mult_to_mercury_determinism(Multiplicity(lo, hi)).name == name
        assert mercury_determinism_to_multiplicity(name) in cls


def test_widening_two_three_goes_to_nondet_with_warning():
    mapping = mult_to_mercury_determinism(Multiplicity(2, 3))
    assert mapping.name == "nondet"
    assert mapping.widened == Multiplicity(0, INF)


def test_widening_prefers_the_earliest_candidate():
    # candidates in order: (0, Max), (Min, inf), (0, inf)
    assert mult_to_mercury_determinism(Multiplicity(0, 5)).name == "nondet"
    assert mult_to_mercury_determinism(Multiplicity(2, INF)).name == "nondet"
    assert mult_to_mercury_determinism(Multiplicity(STAR, INF)).name == "nondet"
    assert mult_to_mercury_determinism(Multiplicity(1, 4)).name == "multi"


def test_mode_correspondence_both_directions():
    assert mode_to_mercury(GROUND, GROUND) == "in"
    assert mode_to_mercury(VAR, GROUND) == "out"
    assert mode_to_mercury(ANY, ANY) == "m_any_any"
    assert MERCURY_MODE_TO_DIRECTION["in"] == (GROUND, GROUND)
    assert MERCURY_MODE_TO_DIRECTION["out"] == (VAR, GROUND)
    assert MERCURY_MODE_TO_DIRECTION["di"] == (GROUND, GROUND)
    assert MERCURY_MODE_TO_DIRECTION["uo"] == (VAR, GROUND)


# -- emission -------------------------------------------------------------------

def fixture_registry():
    env, _ = parse_types("letter ::= a | b.")
    specs = {s.name: s for s in builtin_specs()}
    return env, specs


def test_zero_clause_program_emits_a_comment():
    # the comment, then a clause that fails: a caller fails instead of
    # meeting an existence error
    for arity, head in ((1, "p(_)"), (0, "p")):
        env, specs = fixture_registry()
        spec = Spec("p", ("X",) * arity, ("letter",) * arity, directionalities=(
            Directionality(((GROUND, GROUND),) * arity, Multiplicity(0, 0)),))
        specs["p"] = spec
        registry = Registry(env, specs)
        analysis = analyze_procedure(Program("p", arity, ()), spec, registry)
        text = emit_prolog(spec, analysis, registry)
        assert text == (f"% p/{arity} has no clauses: the definition is unsatisfiable.\n"
                        f"{head} :- fail.\n")
        (clause,) = read_prolog(_without_comments(text))
        assert clause == (Struct("p", (Var("_"),) * arity), [("call", Struct("fail"))])


def test_split_zero_clause_procedures_all_fail():
    env, specs = fixture_registry()
    spec = Spec("p", ("X", "Y"), ("letter", "letter"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), Multiplicity(0, 0)),
        Directionality(((VAR, GROUND), (GROUND, GROUND)), Multiplicity(0, 0))))
    specs["p"] = spec
    registry = Registry(env, specs)
    analysis = analyze_procedure(Program("p", 2, ()), spec, registry)
    text = emit_prolog(spec, analysis, registry, split=True)
    assert [(head.functor, head.args, body)
            for head, body in read_prolog(_without_comments(text))] == [
        (name, (Var("_"), Var("_")), [("call", Struct("fail"))])
        for name in ("p", "p__d2")]


def _without_comments(prolog: str) -> str:
    return "".join(line for line in prolog.splitlines(keepends=True)
                   if not line.startswith("%"))


def test_cut_introduction_on_a_complete_switch():
    env, specs = fixture_registry()
    spec = Spec("p", ("X", "Y"), ("letter", "letter"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), D11),))
    specs["p"] = spec
    prog = Program("p", 2, (
        Clause("p", (Var("X"), Var("Y")),
               (Unify(Var("X"), Struct("a")), Unify(Var("Y"), Struct("a")))),
        Clause("p", (Var("X"), Var("Y")),
               (Unify(Var("X"), Struct("b")), Unify(Var("Y"), Struct("b"))))))
    registry = Registry(env, specs)
    with_cuts = emit_prolog(spec, analyze_procedure(prog, spec, registry), registry,
                            cuts=True)
    assert "X = a,\n    !,\n    Y = a." in with_cuts
    assert with_cuts.count("!") == 1  # never after the last clause


def test_cut_never_fires_without_a_verified_switch():
    env, specs = fixture_registry()
    spec = Spec("p", ("X",), ("letter",), directionalities=(
        Directionality(((GROUND, GROUND),), D01),))
    specs["p"] = spec
    prog = Program("p", 1, (
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),)),
        Clause("p", (Var("X"),), (Unify(Var("X"), Struct("a")),))))
    registry = Registry(env, specs)
    text = emit_prolog(spec, analyze_procedure(prog, spec, registry), registry,
                       cuts=True)
    assert "!" not in text


def incompatible_setup():
    env, specs = fixture_registry()
    q = Spec("q", ("X",), ("integer",), directionalities=(
        Directionality(((GROUND, GROUND),), D01),))
    r = Spec("r", ("X", "Y"), ("integer", "integer"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), D11),
        Directionality(((VAR, GROUND), (GROUND, GROUND)), D11),))
    p = Spec("p", ("X", "Y"), ("integer", "integer"), directionalities=(
        Directionality(((GROUND, GROUND), (VAR, GROUND)), D01),
        Directionality(((VAR, GROUND), (GROUND, GROUND)), D01),))
    specs.update({"q": q, "r": r, "p": p})
    prog = Program("p", 2, (
        Clause("p", (Var("X"), Var("Y")),
               (Call("q", (Var("X"),)), Call("r", (Var("X"), Var("Y"))))),))
    registry = Registry(env, specs)
    return prog, p, registry


def test_incompatible_orders_raise_with_the_split_suggestion():
    prog, p, registry = incompatible_setup()
    analysis = analyze_procedure(prog, p, registry)
    assert all(r.ok for r in analysis)
    with pytest.raises(MultipleOrdersError) as exc:
        emit_prolog(p, analysis, registry)
    assert "separate versions" in str(exc.value)


def test_split_emission_suffixes_later_directionalities():
    prog, p, registry = incompatible_setup()
    analysis = analyze_procedure(prog, p, registry)
    text = emit_prolog(p, analysis, registry, split=True)
    assert "p(X, Y) :-" in text
    assert "p__d2(X, Y) :-" in text


def test_compatible_orders_do_not_raise(maxprefix_ws):
    from tldforge.workspace import run_pipeline
    result = run_pipeline(maxprefix_ws, "max_prefix_gen", target="prolog")
    assert result.ok


def test_emitted_prolog_reparses(maxprefix_ws):
    from tldforge.workspace import run_pipeline
    for pred in ("max_prefix_gen", "max_prefix"):
        r = run_pipeline(maxprefix_ws, pred, target="prolog")
        clauses = read_prolog(r.code)
        assert len(clauses) == len(r.analysis[0].eliminated.clauses)
        for head, _ in clauses:
            assert head.functor == pred


def test_mercury_user_defined_mode_stub():
    env, specs = fixture_registry()
    tld = parse_tlds("p(X: letter) <=> X = a.")[0][0]
    spec = Spec("p", ("X",), ("letter",), directionalities=(
        Directionality(((ANY, ANY),), D01),))
    specs["p"] = spec
    registry = Registry(env, specs)
    prog = derive_clauses(simplify_description(transform_tld(tld)),
                          frozenset(env.defs))
    analysis = analyze_procedure(prog, spec, registry)
    text, warnings = emit_mercury(tld, spec, analysis)
    assert ":- mode m_any_any == any >> any." in text
    assert ":- mode p(m_any_any) is semidet." in text


def test_mercury_failure_determinism():
    env, specs = fixture_registry()
    tld = parse_tlds("p(X: letter) <=> false.")[0][0]
    spec = Spec("p", ("X",), ("letter",), directionalities=(
        Directionality(((GROUND, GROUND),), Multiplicity(0, 0)),))
    specs["p"] = spec
    prog = derive_clauses(simplify_description(transform_tld(tld)),
                          frozenset(env.defs))
    analysis = analyze_procedure(prog, spec, Registry(env, specs))
    text, _ = emit_mercury(tld, spec, analysis)
    assert "is failure." in text


def test_mercury_widening_warning_surfaces():
    env, specs = fixture_registry()
    tld = parse_tlds("wob(X: term, Y: term) <=> X = a \\/ X = b \\/ Y = c.")[0][0]
    spec = Spec("wob", ("X", "Y"), ("term", "term"), directionalities=(
        Directionality(((VAR, ANY), (GROUND, GROUND)), Multiplicity(2, 3)),))
    specs["wob"] = spec
    prog = derive_clauses(simplify_description(transform_tld(tld)),
                          frozenset(env.defs))
    analysis = analyze_procedure(prog, spec, Registry(env, specs))
    assert analysis[0].determinism.computed == Multiplicity(2, 3)
    text, warnings = emit_mercury(tld, spec, analysis)
    assert "is nondet." in text
    assert warnings and "widened" in warnings[0]


def test_mercury_keeps_arithmetic_inline_and_drops_checks(maxprefix_ws, golden_dir):
    from tldforge.workspace import run_pipeline
    r = run_pipeline(maxprefix_ws, "max_prefix_gen", target="mercury")
    assert "H + A" in r.code
    assert "integer_list(L)" not in r.code
    assert "plus(" not in r.code


def test_mercury_constant_rewrite_table(maxprefix_ws):
    from tldforge.workspace import run_pipeline
    r = run_pipeline(maxprefix_ws, "max_prefix", target="mercury")
    assert "min_int(X)" in r.code
    assert "-infinite" not in r.code
