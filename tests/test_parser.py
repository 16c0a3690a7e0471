import string

import pytest
from hypothesis import given, seed, settings, strategies as st

from tldforge import ast
from tldforge.ast import (And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or,
                          Struct, Var)
from tldforge.modes import GROUND, INF, Multiplicity, STAR, VAR
from tldforge.parser import (MAX_NESTING, ParseError, parse_formula, parse_spec,
                             parse_specs, parse_term, parse_tld, parse_tlds,
                             parse_type_defs, parse_types, tokenize)
from tldforge.printer import format_formula, format_term, format_tld
from tldforge.typesys import Alias, Case, Cases
from util import NESTINGS, reference_tokenize


# -- .types ------------------------------------------------------------------

def test_parse_recursive_union():
    env, diags = parse_types("nat ::= zero | s(nat).")
    assert not diags
    d = env.defs["nat"]
    assert d.body == Cases((Case("zero"), Case("s", ("nat",))))


def test_parse_enumeration_sugar_becomes_cases():
    env, diags = parse_types(
        "fruit ::= enum {orange, apple, banana, pineapple, strawberry}.")
    assert not diags
    cases = env.defs["fruit"].body.cases
    assert len(cases) == 5
    assert all(c.arity == 0 for c in cases)
    assert cases[0] == Case("orange")


def test_parse_alias():
    env, diags = parse_types("nat_set == nat_list.\nnat_list ::= empty_list.")
    assert not diags
    assert env.defs["nat_set"].body == Alias("nat_list")


def test_parse_list_sugar_maps_to_list_constructors():
    env, diags = parse_types("integer_list ::= [] | [integer | integer_list].")
    assert not diags
    assert env.defs["integer_list"].body == Cases(
        (Case("[]"), Case("[|]", ("integer", "integer_list"))))


def test_duplicate_type_definition_is_an_error():
    _, diags = parse_types("t ::= a.\nt ::= b.")
    assert any(d.code == "dup-type" for d in diags)


def test_universal_type_cannot_be_redefined():
    _, diags = parse_types("term ::= a.")
    assert any(d.code == "reserved-type" for d in diags)


def test_user_list_definition_overrides_default():
    env, diags = parse_types("list ::= empty_list | cons_list(term, list).")
    assert not diags
    assert env.defs["list"].body.cases[0] == Case("empty_list")


def test_duplicate_constructor_warns_first_case_wins():
    _, diags = parse_types("t ::= a | a.")
    assert any(d.code == "dup-case" and d.severity == "warning" for d in diags)


def test_syntax_error_recovers_at_next_dot():
    defs, diags = parse_type_defs("t ::= | b.\nu ::= c.")
    assert any(d.severity == "error" for d in diags)
    assert [d.name for d in defs] == ["u"]


# -- .spec -------------------------------------------------------------------

MAXPREFIX_SPEC = """
procedure max_prefix(L, M).
type L : integer_list.
type M : integer.
relation "M is the maximum of the sums of the prefixes of L".
dir (ground, var -> ground) : <1-1>.
dir (ground, ground) : <0-1>.
"""


def test_parse_spec_template():
    spec, diags = parse_spec(MAXPREFIX_SPEC)
    assert not diags
    assert spec.name == "max_prefix"
    assert spec.params == ("L", "M")
    assert spec.param_types == ("integer_list", "integer")
    assert "maximum of the sums" in spec.relation
    d1, d2 = spec.directionalities
    assert d1.modes == ((GROUND, GROUND), (VAR, GROUND))
    assert d1.mult == Multiplicity(1, 1)
    assert d2.modes == ((GROUND, GROUND), (GROUND, GROUND))
    assert d2.mult == Multiplicity(0, 1)


def test_singleton_mode_abbreviates_in_to_in():
    spec, diags = parse_spec(
        'procedure p(X).\ntype X : term.\ndir (ground) : <1-1>.')
    assert not diags
    assert spec.directionalities[0].modes == ((GROUND, GROUND),)


def test_multiplicity_bounds_star_and_inf():
    spec, _ = parse_spec(
        'procedure p(X).\ntype X : term.\n'
        'dir (var -> ground) : <0-inf>.\ndir (any) : <*-*>.')
    assert spec.directionalities[0].mult == Multiplicity(0, INF)
    assert spec.directionalities[1].mult == Multiplicity(STAR, STAR)


def test_no_share_pairs():
    spec, diags = parse_spec(
        'procedure p(X, Y, Z).\ntype X : term.\ntype Y : term.\ntype Z : term.\n'
        'dir (ground, var -> ground, var) : <0-1> : {(1,2), (2,3)}.')
    assert not diags
    assert spec.directionalities[0].nosh == frozenset({(1, 2), (2, 3)})


def test_unknown_mode_keyword_is_an_error():
    _, diags = parse_spec('procedure p(X).\ntype X : term.\ndir (ground -> free) : <1-1>.')
    assert any("mode keyword" in d.message for d in diags)


def test_arity_mismatch_between_params_and_modes():
    _, diags = parse_spec('procedure p(X, Y).\ntype X : term.\ntype Y : term.\n'
                          'dir (ground) : <1-1>.')
    assert any(d.code == "dir-arity" for d in diags)


def test_malformed_multiplicity():
    _, diags = parse_spec('procedure p(X).\ntype X : term.\ndir (ground) : <a-1>.')
    assert any("multiplicity" in d.message for d in diags)


def test_multiple_procedures_per_file():
    specs, diags = parse_specs(
        'procedure p(X).\ntype X : term.\ndir (ground) : <1-1>.\n'
        'procedure q(Y).\ntype Y : term.\ndir (var -> ground) : <1-1>.')
    assert not diags
    assert [s.name for s in specs] == ["p", "q"]


# -- .tld --------------------------------------------------------------------

def test_parse_tld_single_equality():
    tld, diags = parse_tld("p(X: term) <=> X = a.")
    assert not diags
    assert tld.predicate == "p"
    assert tld.params == (("X", "term"),)
    assert tld.definition == Eq(Var("X"), Struct("a"))


def test_parse_tld_materializes_implicit_existentials():
    tld, diags = parse_tld("p(X: nat) <=> q(X, Y).")
    assert not diags
    assert tld.definition == Exists("Y", "term",
                                    Atom("q", (Var("X"), Var("Y"))))


def test_parse_tld_accumulator_example_shape():
    text = """
    max_prefix_gen(L: integer_list, M: integer, A: integer) <=>
        L = [] /\\ M = A
        \\/ exists M1: integer .
            L = [H | T] /\\ max_prefix_gen(T, M1, H + A) /\\ max(H + A, M1, M).
    """
    tld, diags = parse_tld(text)
    assert not diags
    f = tld.definition
    assert isinstance(f, Exists) and f.var == "H" and f.type_name == "term"
    assert isinstance(f.body, Exists) and f.body.var == "T"
    body = f.body.body
    assert isinstance(body, Or) and len(body.items) == 2
    first, second = body.items
    assert first == And((Eq(Var("L"), ast.NIL), Eq(Var("M"), Var("A"))))
    assert isinstance(second, Exists) and second.type_name == "integer"
    inner = second.body
    assert isinstance(inner, And) and len(inner.items) == 3
    assert inner.items[1] == Atom("max_prefix_gen",
                                  (Var("T"), Var("M1"),
                                   Struct("+", (Var("H"), Var("A")))))


def test_duplicate_parameter_names_rejected():
    _, diags = parse_tld("p(X: nat, X: nat) <=> X = zero.")
    assert any(d.severity == "error" for d in diags)


def test_negative_atom_lexing():
    assert parse_term("-infinite") == Struct("-infinite")
    assert parse_term("-3") == Struct("-3")
    assert parse_term("X - 3") == Struct("-", (Var("X"), Struct("3")))
    assert parse_term("f(-infinite, -2)") == Struct(
        "f", (Struct("-infinite"), Struct("-2")))


def test_arithmetic_precedence_and_lists():
    assert parse_term("X + Y * Z") == Struct(
        "+", (Var("X"), Struct("*", (Var("Y"), Var("Z")))))
    assert parse_term("(X + Y) + Z") == Struct(
        "+", (Struct("+", (Var("X"), Var("Y"))), Var("Z")))
    assert parse_term("[1, 2 | T]") == ast.listterm(
        [Struct("1"), Struct("2")], Var("T"))


def test_diagnostics_carry_positions_within_input():
    bad_inputs = [
        ("t ::= .\n", parse_type_defs),
        ("procedure p(.\n", parse_specs),
        ("p(X: nat) <=> /\\ .\n", parse_tlds),
    ]
    for text, parse in bad_inputs:
        _, diags = parse(text, "inline")
        assert diags
        lines = text.splitlines()
        for d in diags:
            assert d.pos is not None
            assert 1 <= d.pos.line <= len(lines) + 1
            assert d.pos.col >= 1


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_past_the_limit_is_a_positioned_diagnostic(kind):
    nest, opener = NESTINGS[kind]
    head = "p(X: nat) <=> "
    tlds, diags = parse_tlds(f"{head}{nest(MAX_NESTING)}.\n", "deep.tld")
    assert not diags and len(tlds) == 1
    body = nest(MAX_NESTING + 1)
    tlds, diags = parse_tlds(f"{head}{body}.\n", "deep.tld")
    assert not tlds
    d = diags[0]
    assert (d.code, d.pos.file, d.pos.line) == ("nesting-too-deep", "deep.tld", 1)
    # the diagnostic points at the token opening the level past the limit
    offset = d.pos.col - 1 - len(head)
    assert body[offset:].startswith(opener)
    assert body[:offset].count(opener) == MAX_NESTING


@pytest.mark.parametrize("body, code, message, col", [
    ("X = zero /\\ (exists Y: nat . Y = X /\\ ) /\\ X = X", "syntax", "expected ')'", 35),
    (NESTINGS["quantifiers"][0](MAX_NESTING + 1), "nesting-too-deep",
     f"nesting deeper than {MAX_NESTING} levels", None),  # column pinned above
    ("exists Y: . X = zero", "syntax", "expected a type name", 25),
    ("exists Y nat . X = zero", "syntax", "expected ':'", 24),
], ids=["quantifier-body", "nesting-too-deep", "header-without-type",
        "header-without-colon"])
def test_recovery_resumes_after_the_description_not_a_quantifier(body, code, message, col):
    # a quantifier header's dot, whole or missing its type name or its ':',
    # does not end the description, so the rest of the broken description
    # is not reported as a second error
    tlds, diags = parse_tlds(f"p(X: nat) <=> {body}.\nq(X: nat) <=> X = zero.\n")
    assert [(d.code, d.message, d.pos.line) for d in diags] == [(code, message, 1)]
    if col is not None:
        assert diags[0].pos.col == col
    assert [t.predicate for t in tlds] == ["q"]


# -- round trips --------------------------------------------------------------

def test_fixture_corpus_round_trip(maxprefix_dir):
    text = (maxprefix_dir / "maxprefix.tld").read_text()
    tlds, diags = parse_tlds(text)
    assert not diags
    for tld in tlds:
        reparsed, diags2 = parse_tld(format_tld(tld))
        assert not diags2
        assert reparsed == tld


var_names = st.sampled_from(["X", "Y", "Z", "Acc", "_t"])
functors = st.sampled_from(["f", "g", "zero", "s", "cons_list", "-infinite"])
type_names = st.sampled_from(["nat", "term", "integer", "fruit"])
pred_names = st.sampled_from(["p", "q", "member2"])


@st.composite
def terms(draw, depth=3):
    kind = draw(st.integers(0, 4 if depth else 2))
    if kind == 0:
        return Var(draw(var_names))
    if kind == 1:
        return Struct(draw(functors))
    if kind == 2:
        return Struct(str(draw(st.integers(-9, 9))))
    if kind == 3:
        n = draw(st.integers(1, 2))
        return Struct(draw(functors), tuple(draw(terms(depth - 1)) for _ in range(n)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return Struct(op, (draw(terms(depth - 1)), draw(terms(depth - 1))))


@st.composite
def random_formulas(draw, depth=3):
    kind = draw(st.integers(0, 9 if depth else 2))
    if kind == 0:
        return Eq(draw(terms()), draw(terms()))
    if kind == 1:
        return Atom(draw(pred_names),
                    tuple(draw(terms()) for _ in range(draw(st.integers(0, 2)))))
    if kind == 2:
        return draw(st.sampled_from([ast.TRUE, ast.FALSE]))
    if kind == 3:
        return Not(draw(random_formulas(depth - 1)))
    if kind == 4:
        n = draw(st.integers(2, 3))
        return And(tuple(draw(random_formulas(depth - 1)) for _ in range(n)))
    if kind == 5:
        n = draw(st.integers(2, 3))
        return Or(tuple(draw(random_formulas(depth - 1)) for _ in range(n)))
    if kind == 6:
        return Implies(draw(random_formulas(depth - 1)), draw(random_formulas(depth - 1)))
    if kind == 7:
        return Iff(draw(random_formulas(depth - 1)), draw(random_formulas(depth - 1)))
    cls = Exists if kind == 8 else Forall
    return cls(draw(var_names), draw(type_names), draw(random_formulas(depth - 1)))


@settings(max_examples=300, deadline=None)
@given(terms())
def test_term_print_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


@settings(max_examples=300, deadline=None)
@given(random_formulas())
def test_formula_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


# -- the tokenizer against the character loop it replaced ---------------------

def _token_outcome(tokenize_fn, text):
    try:
        return [tuple(t) for t in tokenize_fn(text)]
    except ParseError as e:
        return (e.message, e.code, tuple(e.token))


# pieces the two tokenizers must read alike: every ASCII punctuation mark,
# blanks, strings with escapes and newlines, comments (also at the end),
# numbers with fractions and exponents, a `-` after a closing bracket, and
# letters and digits where str.isdigit/isalpha/islower and the regex classes
# \d and \w disagree
_LEXEMES = st.sampled_from(
    list(string.punctuation) + list(" \t\r\n")
    + ["a", "Z", "_x", "e", "E", "0", "7", "12", "3.5", "1.5e-3", "2E+7", "4.e",
       '"a\\"b"', '"two\nlines"', '"\\\\"', '"open', "# note", "#", "# end\n",
       ")-1", "]-x", "}-2.5", "-infinite", "--3", "-4.5e3", "->", "::=", "<=>", "/\\", "\\/",
       "\\+", ":-", "==", "=>", "é", "ß", "Ü", "٣", "²", "½", "x²", "٣٣.٣", "-é", "-ß"])


@seed(8)
@settings(max_examples=3000, deadline=None)
@given(st.lists(_LEXEMES, max_size=16).map("".join))
def test_tokenizer_matches_the_reference_loop(text):
    assert _token_outcome(tokenize, text) == _token_outcome(reference_tokenize, text)


def test_tokenizer_matches_the_reference_loop_on_the_fixtures(maxprefix_dir, golden_dir):
    paths = sorted(maxprefix_dir.iterdir()) + sorted(golden_dir.iterdir())
    for path in paths:
        text = path.read_text()
        assert _token_outcome(tokenize, text) == _token_outcome(reference_tokenize, text)
