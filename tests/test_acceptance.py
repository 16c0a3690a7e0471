"""The acceptance gate: every shipped behavior, one criterion per test,
one PASS/FAIL line each (run with -s to watch them)."""

import functools
import itertools
import random
import time

from tldforge import ast
from tldforge.analysis import RESPEC_SUGGESTION, SPLIT_SUGGESTION
from tldforge.cli import main
from tldforge.codegen import (determinism_class,
                              mercury_determinism_to_multiplicity,
                              mode_to_mercury, mult_to_mercury_determinism)
from tldforge.derive import body_formula, derive_clauses, program_formula
from tldforge.modes import (ALL_MODES, ANY, GROUND, GV, INF, Multiplicity,
                            STAR, VAR)
from tldforge.parser import parse_formula, parse_types
from tldforge.printer import format_literal
from tldforge.semantics import EvalContext, check_agreement, check_equivalence
from tldforge.transform import (simplify_checks, simplify_description,
                                transform_formula, transform_tld)
from tldforge.typesys import check_env
from tldforge.workspace import run_oracle, run_pipeline
from fixture_formulas import fixture_cases, fixture_context
from util import reinstated_clause, tokens_of

EXPECTED_PROLOG = """
max_prefix_gen(L, M, A) :-
    L = [],
    M = A,
    integer(M).

max_prefix_gen(L, M, A) :-
    L = [H | T],
    plus(H, A, A1),
    max_prefix_gen(T, M1, A1),
    max(A1, M1, M).

max_prefix(L, M) :-
    max_prefix_gen(L, M, -infinite).
"""

# arithmetic stays in the description's operand order (H + A); the emitter
# note in the README records this as the one cosmetic liberty
EXPECTED_MERCURY = """
:- pred max_prefix_gen(integer_list, integer, integer).
:- mode max_prefix_gen(in, out, in) is det.
:- mode max_prefix_gen(in, in, in) is semidet.

max_prefix_gen(L, M, A) :-
(   L = [],
    M = A
;
    L = [H | T],
    max_prefix_gen(T, M1, H + A),
    max(H + A, M1, M)
).

:- pred max_prefix(integer_list, integer).
:- mode max_prefix(in, out) is det.
:- mode max_prefix(in, in) is semidet.

max_prefix(L, M) :-
    min_int(X),
    max_prefix_gen(L, M, X).
"""


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {title}")
                raise
            print(f"PASS  criterion {number}: {title}")
        return run
    return wrap


@criterion(1, "Prolog output reproduces the reference clauses token for token")
def test_criterion_1_prolog_golden(maxprefix_ws, golden_dir):
    start = time.monotonic()
    code = "\n".join(
        run_pipeline(maxprefix_ws, pred, target="prolog").code
        for pred in ("max_prefix_gen", "max_prefix"))
    elapsed = time.monotonic() - start
    assert tokens_of(code) == tokens_of(EXPECTED_PROLOG)
    assert "integer(M)" in code
    assert "-infinite" in code
    assert code == (golden_dir / "max_prefix.pl").read_text()
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "Mercury output reproduces the reference declarations and body")
def test_criterion_2_mercury_golden(maxprefix_ws, golden_dir):
    start = time.monotonic()
    code = "\n".join(
        run_pipeline(maxprefix_ws, pred, target="mercury").code
        for pred in ("max_prefix_gen", "max_prefix"))
    elapsed = time.monotonic() - start
    for decl in (":- pred max_prefix_gen(integer_list, integer, integer).",
                 ":- mode max_prefix_gen(in, out, in) is det.",
                 ":- mode max_prefix_gen(in, in, in) is semidet.",
                 ":- pred max_prefix(integer_list, integer).",
                 ":- mode max_prefix(in, out) is det.",
                 ":- mode max_prefix(in, in) is semidet."):
        assert decl in code
    assert tokens_of(code) == tokens_of(EXPECTED_MERCURY)
    assert code == (golden_dir / "max_prefix.m").read_text()
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(3, "mode and determinism correspondence tables are exact")
def test_criterion_3_correspondence_tables():
    determinism_rows = {
        "det": [(1, 1)],
        "semidet": [(0, 1)],
        "nondet": [(0, STAR), (0, INF)],
        "multi": [(1, STAR), (1, INF), (STAR, STAR)],
        "failure": [(0, 0)],
        "erroneous": [(1, 0)],
    }
    for name, pairs in determinism_rows.items():
        for lo, hi in pairs:
            mapping = mult_to_mercury_determinism(Multiplicity(lo, hi))
            assert mapping.name == name and mapping.widened is None, (name, lo, hi)
        back = mercury_determinism_to_multiplicity(name)
        assert back in determinism_class(name)
        assert mult_to_mercury_determinism(back).name == name
    assert mode_to_mercury(GROUND, GROUND) == "in"
    assert mode_to_mercury(VAR, GROUND) == "out"
    assert mode_to_mercury(ANY, ANY).startswith("m_")
    from tldforge.codegen import MERCURY_MODE_TO_DIRECTION as back_modes
    assert back_modes["in"] == (GROUND, GROUND)
    assert back_modes["out"] == (VAR, GROUND)
    assert back_modes["di"] == (GROUND, GROUND)
    assert back_modes["uo"] == (VAR, GROUND)


@criterion(4, "typed/untyped equivalence holds on every fixture at depths 2 and 3")
def test_criterion_4_equivalence_oracle(maxprefix_ws):
    start = time.monotonic()
    count = 0
    for depth in (2, 3):
        ctx = fixture_context(universe_depth=depth)
        for name, typed, freevars in fixture_cases():
            untyped = simplify_checks(transform_formula(dict(freevars), typed))
            rep = check_equivalence(ctx, typed, untyped, freevars, depth=depth)
            assert rep.ok, (name, depth, rep.first_violation)
            count += 1
    assert count >= 40  # twenty-plus fixtures, two depths
    for depth in (2, 3):
        rep = run_oracle(maxprefix_ws, "max_prefix_gen", depth=depth)
        assert rep.ok and rep.violations == 0, rep.describe()
    # the deliberately broken variant drops the negation row's check
    ctx = fixture_context(universe_depth=2)
    typed = parse_formula("~(X = zero)")
    broken = ast.Not(transform_formula({"X": "nat"}, parse_formula("X = zero")))
    rep = check_equivalence(ctx, typed, broken, [("X", "nat")], depth=2)
    assert rep.violations >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(5, "type system: examples load, mutual recursion rejected, "
              "enumeration matches membership")
def test_criterion_5_type_system(example_env):
    assert not [d for d in check_env(example_env) if d.severity == "error"]
    for name in ("fruit", "nat", "list", "nat_list", "nat_set"):
        assert name in example_env

    bad_env, diags = parse_types("t1 == t2.\nt2 ::= c | wrap(t1).")
    diags += check_env(bad_env)
    assert any(d.code == "mutual-recursion" for d in diags)

    for k in (1, 2, 3):
        universe = example_env.enumerate_type("term", k)
        for tname in ("nat", "list", "nat_list", "fruit", "nat_set"):
            enumerated = set(example_env.enumerate_type(tname, k))
            filtered = {t for t in universe if example_env.is_member(tname, t)}
            assert enumerated == filtered, (tname, k)


@criterion(6, "mode lattice laws hold and all pairwise joins match the encoding")
def test_criterion_6_mode_lattice():
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = (rng.choice(ALL_MODES) for _ in range(3))
        assert a.join(b) == b.join(a) and a.join(a) == a
        assert a.join(b).join(c) == a.join(b.join(c))
        mab = a.meet(b)
        assert mab == b.meet(a) and a.meet(a) == a
        mbc = b.meet(c)
        left = None if mab is None else mab.meet(c)
        right = None if mbc is None else a.meet(mbc)
        assert left == right
        if a.leq(b) and b.leq(a):
            assert a == b
    assert GROUND.join(VAR) == GV
    pairs = list(itertools.combinations(ALL_MODES, 2))
    assert len(pairs) == 21
    for a, b in pairs:
        assert a.join(b).atoms == a.atoms | b.atoms


@criterion(7, "first-directionality analysis reproduces the reference literal "
              "orders; an unsatisfiable directionality reports both suggestions")
def test_criterion_7_reordering(maxprefix_ws, tmp_path, capsys):
    result = run_pipeline(maxprefix_ws, "max_prefix_gen", target="prolog")
    clause_bodies = [[format_literal(lit) for lit in clause.body]
                     for clause in result.analysis[0].eliminated.clauses]
    assert clause_bodies == [
        ["L = []", "M = A", "integer(M)"],
        ["L = [H | T]", "plus(H, A, A1)", "max_prefix_gen(T, M1, A1)",
         "max(A1, M1, M)"],
    ]
    (tmp_path / "u.types").write_text("")
    (tmp_path / "u.spec").write_text(
        "procedure q(X).\ntype X : term.\ndir (var -> var) : <0-1>.\n")
    (tmp_path / "u.tld").write_text("q(X: term) <=> ~(X = a).\n")
    (tmp_path / "manifest.txt").write_text("types u.types\nspec u.spec\ntld u.tld\n")
    code = main(["gen", "prolog", "--manifest", str(tmp_path / "manifest.txt")])
    captured = capsys.readouterr()
    assert code != 0
    assert SPLIT_SUGGESTION in captured.err
    assert RESPEC_SUGGESTION in captured.err


@criterion(8, "every removed check is harmless over well-typed bounded inputs")
def test_criterion_8_elimination_safety(maxprefix_ws):
    ctx = maxprefix_ws.eval_context(universe_depth=2, unfold_depth=4)
    checked = 0
    for name in ("max_prefix_gen", "max_prefix"):
        spec = maxprefix_ws.specs[name]
        result = run_pipeline(maxprefix_ws, name)
        freevars = list(zip(spec.params, spec.param_types))
        for res in result.analysis:
            for removed in res.removed:
                # the check back at its body position, inside the clause's
                # existential over its locals
                clause = res.eliminated.clauses[removed.clause_index]
                rep = check_agreement(ctx, body_formula(reinstated_clause(res, removed)),
                                      body_formula(clause),
                                      freevars, depth=2, side="untyped")
                assert rep.ok and rep.disagree == rep.inconclusive == 0, (name, removed)
                checked += 1
    assert checked >= 10


@criterion(9, "derived clauses agree with their source description on bounded instances")
def test_criterion_9_clark_faithfulness(maxprefix_ws):
    simple = [
        ("letter ::= a | b.", "p(X: letter) <=> X = a \\/ X = b /\\ ~(X = a)."),
        ("letter ::= a | b.", "p(X: letter, Y: letter) <=> X = Y."),
        ("nat ::= zero | s(nat).", "p(X: nat) <=> exists Y: nat . X = s(Y)."),
        ("nat ::= zero | s(nat).", "p(X: nat) <=> ~(X = zero) => X = s(zero)."),
        ("nat ::= zero | s(nat).", "p(X: nat) <=> false."),
    ]
    from tldforge.parser import parse_tlds
    for types_text, tld_text in simple:
        env, _ = parse_types(types_text)
        tld = parse_tlds(tld_text)[0][0]
        untyped = simplify_description(transform_tld(tld))
        prog = derive_clauses(untyped, frozenset(env.defs))
        ctx = EvalContext(env, {tld.predicate: untyped},
                          universe_depth=2, unfold_depth=4)
        rep = check_equivalence(ctx, program_formula(prog), untyped.definition,
                                [(n, "term") for n in untyped.params], depth=2)
        assert rep.violations == 0, (tld_text, rep.first_violation)

    tld = maxprefix_ws.tlds["max_prefix_gen"]
    untyped = simplify_description(transform_tld(tld))
    prog = derive_clauses(untyped, frozenset(maxprefix_ws.env.defs))
    ctx = EvalContext(maxprefix_ws.env, {"max_prefix_gen": untyped},
                      universe_depth=2, unfold_depth=4)
    rep = check_equivalence(ctx, program_formula(prog), untyped.definition,
                            [(n, "term") for n in untyped.params], depth=2)
    assert rep.violations == 0, rep.first_violation


@criterion(10, "computed multiplicities match declarations; widening warns")
def test_criterion_10_determinism(maxprefix_ws, tmp_path):
    result = run_pipeline(maxprefix_ws, "max_prefix_gen")
    computed = [r.determinism.computed for r in result.analysis]
    assert computed == [Multiplicity(1, 1), Multiplicity(0, 1)]
    assert all(r.determinism.ok for r in result.analysis)

    mapping = mult_to_mercury_determinism(Multiplicity(2, 3))
    assert mapping.name == "nondet" and mapping.widened is not None

    (tmp_path / "w.types").write_text("")
    (tmp_path / "w.spec").write_text(
        "procedure wob(X, Y).\ntype X : term.\ntype Y : term.\n"
        "dir (var -> any, ground) : <2-3>.\n")
    (tmp_path / "w.tld").write_text(
        "wob(X: term, Y: term) <=> X = a \\/ X = b \\/ Y = c.\n")
    (tmp_path / "manifest.txt").write_text("types w.types\nspec w.spec\ntld w.tld\n")
    from tldforge.workspace import load_workspace
    ws = load_workspace(tmp_path / "manifest.txt").workspace
    r = run_pipeline(ws, "wob", target="mercury")
    assert r.analysis[0].determinism.computed == Multiplicity(2, 3)
    assert any("widened" in w for w in r.warnings)
    assert "is nondet." in r.code
