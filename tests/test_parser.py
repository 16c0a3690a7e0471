import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import reference_parser
from tldforge import ast, parser
from tldforge.ast import (And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or,
                          Struct, Var)
from tldforge.modes import GROUND, INF, Multiplicity, STAR, VAR
from tldforge.parser import (MAX_INT_DIGITS, MAX_NESTING, ParseError, parse_formula,
                             parse_spec, parse_specs, parse_term, parse_tld, parse_tlds,
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


@pytest.mark.parametrize("prefix", ["", "-", "X - ", "X -"])
def test_integer_literal_longer_than_the_limit_is_a_positioned_diagnostic(prefix):
    head = "p(X: integer) <=> X = "
    # an integer at the limit, and a float past it
    for literal in ("9" * MAX_INT_DIGITS, "9" * (MAX_INT_DIGITS + 1) + ".5"):
        tlds, diags = parse_tlds(f"{head}{prefix}{literal}.\n")
        assert not diags and len(tlds) == 1
    tlds, diags = parse_tlds(f"{head}{prefix}{'9' * (MAX_INT_DIGITS + 1)}.\n", "big.tld")
    assert not tlds
    # at the literal, its sign included when it has one
    col = len(head) + len(prefix) + 1 - (prefix == "-")
    assert [d.format() for d in diags] == [
        f"big.tld:1:{col}: error[number-too-long]: integer literal longer than "
        f"{MAX_INT_DIGITS} digits"]


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


# -- the parser against the one it replaced -----------------------------------

def _with_positions(x):
    """``x`` with the ``pos`` of every node drawn into the value: equality
    skips ``pos`` fields."""
    if hasattr(x, "_fields"):
        return (type(x).__name__,
                tuple(_with_positions(getattr(x, name)) for name in x._fields))
    if isinstance(x, (tuple, list)):
        return tuple(_with_positions(y) for y in x)
    return x


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its result with every position, or
    the error it raises."""
    try:
        return _with_positions(parse(text, "input"))
    except (ParseError, reference_parser.ParseError) as e:
        return (e.message, e.code, tuple(e.token))


_PARSERS = {"types": "parse_type_defs", "spec": "parse_specs", "tld": "parse_tlds"}


def _assert_parsed_alike(text, formats=_PARSERS):
    assert _outcome(tokenize, text) == _outcome(reference_parser.tokenize, text)
    for name in (_PARSERS[f] for f in formats):
        assert _outcome(getattr(parser, name), text) == \
            _outcome(getattr(reference_parser, name), text), (name, text)


def _limit_nesting(monkeypatch, limit):
    """Both parsers refuse nesting deeper than ``limit``: a low limit makes
    short inputs test where each construct opens and closes its levels."""
    for module in (parser, reference_parser):
        monkeypatch.setattr(module, "MAX_NESTING", limit)


def _texts(directory):
    return {f"{directory.name}/{path.name}": path.read_text()
            for path in sorted(directory.iterdir())
            if path.suffix[1:] in _PARSERS}


def test_parser_matches_the_reference_on_the_fixtures(golden_dir, monkeypatch):
    texts = {"builtins.spec": (Path(parser.__file__).parent / "data" / "builtins.spec").read_text()}
    for workspace in ("maxprefix", "dnf", "pinned"):
        texts.update(_texts(golden_dir.parent / workspace))
    assert len(texts) == 10
    for limit in (MAX_NESTING, 4, 2, 1):
        _limit_nesting(monkeypatch, limit)
        for text in texts.values():
            _assert_parsed_alike(text)  # each text also as the other two formats


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_parser_matches_the_reference_at_the_nesting_limit(kind):
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        _assert_parsed_alike(f"p(X: nat) <=> {NESTINGS[kind][0](depth)}.\n", ["tld"])


@settings(max_examples=300, deadline=None)
@given(random_formulas())
def test_parser_matches_the_reference_on_printed_formulas(f):
    text = format_formula(f)
    assert _outcome(parse_formula, text) == _outcome(reference_parser.parse_formula, text)
    _assert_parsed_alike(f"p(X: nat, Y: term) <=> {text}.\n", ["tld"])


def _generated(rng: random.Random) -> dict:
    """A .types, a .spec and a .tld text drawn from ``rng`` that use every
    construct of their format."""
    names = ["zero", "s", "apple", "cons_list", "-infinite", "node"]
    types = "".join(
        f"t{i} ::= {rng.choice(names)} | {rng.choice(names)}(t{i}, nat) | [] | [integer | t{i}].\n"
        f"e{i} ::= enum {{{', '.join(rng.sample(names, 3))}}}.\nb{i} == t{i}.\n"
        for i in range(3))
    modes = ["ground", "var", "any", "ngv", "var -> ground", "ngv -> ground"]
    spec = "".join(
        f"procedure p{i}(X, Y, Z).\ntype X : t{i}.\ntype Y : integer.\ntype Z : term.\n"
        f'relation "relation \\"{i}\\"".\nexternal "p{i}_impl".\n'
        + "".join(f"dir ({', '.join(rng.choices(modes, k=3))}) : "
                  f"<{rng.choice(['0', '1', '*'])}-{rng.choice(['1', '*', 'inf'])}>"
                  + rng.choice(["", " : {(1,2)}", " : {(1, 3), (2,3)}"]) + ".\n"
                  for _ in range(2))
        for i in range(3))
    leaves = ["X = zero", "Y = s(X)", "t0(X)", "true", "false", "p1(X, Y, Z)",
              "Y = [X | Z]", "Z = [1, -2, 3.5]", "Y = X + 1 * (Z - -3)", "X = -infinite",
              "Y = X * 2 * Z + Z * 3 - 1", "Y = [1, 2 | Z] * s(Z + 1) * (Z - 3) + 1"]

    def formula(depth):
        if depth == 0:
            return rng.choice(leaves)
        a, b = formula(depth - 1), formula(depth - 1)
        return rng.choice([f"({a} /\\ {b})", f"{a} \\/ {b}", f"({a} => {b})", f"{a} <=> {b}",
                           f"~{a}", f"exists W: nat . {a}", f"(forall V: term . {b})"])
    tld = "".join(f"p{i}(X: t{i}, Y: integer, Z: term) <=>\n    {formula(3)}.\n"
                  for i in range(3))
    every_leaf = " /\\ ".join(leaves)
    tld += f"q(X: t0, Y: integer, Z: term) <=> {every_leaf}.\n"
    return {"generated.types": types, "generated.spec": spec, "generated.tld": tld}


_STRING = re.compile(r'"(?:\\.|[^"\\])*"')


def _token_spans(text):
    """The start and end index in ``text`` of each of its tokens; no string
    in ``text`` spans lines."""
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    spans = []
    for t in tokenize(text)[:-1]:
        start = line_starts[t.line - 1] + t.col - 1
        spans.append((start, _STRING.match(text, start).end() if t.kind == "string"
                      else start + len(t.text)))
    return spans


def test_parser_matches_the_reference_on_single_token_mutations(golden_dir, monkeypatch):
    rng = random.Random(4211)
    texts = {**_texts(golden_dir.parent / "maxprefix"), **_texts(golden_dir.parent / "dnf"),
             **_generated(rng)}
    count = 0
    for name, text in texts.items():
        fmt = name.rsplit(".", 1)[1]
        _assert_parsed_alike(text, [fmt])
        spans = _token_spans(text)
        if len(spans) < 2:  # dnf's .types file is a comment
            continue
        for _ in range(300):
            k = rng.randrange(len(spans) - 1)
            (s, e), (s2, e2) = spans[k], spans[k + 1]
            mutated = rng.choice([
                text[:s] + text[e:],  # delete
                text[:e] + " " + text[s:e] + text[e:],  # duplicate
                text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:],  # swap
            ])
            _limit_nesting(monkeypatch, rng.choice([MAX_NESTING, 4, 2, 1]))
            _assert_parsed_alike(mutated, [fmt])
            count += 1
    assert count >= 2000
