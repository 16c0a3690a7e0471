"""The parser that ``tldforge.parser`` replaced, kept verbatim as the
reference its token lists, syntax trees, positions and diagnostics are
compared with: a regex tokenizer whose matches are sorted into tokens by a
chain of branches, and a recursive descent that reads the tokens through
``_Stream`` with one function per precedence level.  Only the imports are
changed, from relative to absolute.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from tldforge import ast
from tldforge.ast import (And, Atom, Eq, Exists, Forall, Formula, Iff, Implies, Not,
                  Or, Struct, Term, TypedLogicDescription, Var)
from tldforge.diagnostics import SourceDiagnostic, SourcePos, error, warning
from tldforge.modes import (Directionality, INF, Mode, Multiplicity, Spec, STAR)
from tldforge.typesys import Alias, Case, Cases, TypeDef, TypeEnv

RESERVED_TYPE_NAMES = ("term", "integer", "float", "atom")

_TWO_CHAR_PLUS = ("::=", "<=>", ":-", "==", "=>", "->", "/\\", "\\/", "\\+")
_SINGLE = "()[]{},|:.+-*<>=~!;"

# deepest nesting of parentheses, negations, quantifiers, implications,
# term arguments and list items; every later stage recurses on the nesting,
# and this bound keeps all of them within Python's default recursion limit
MAX_NESTING = 100


class Token(NamedTuple):
    """One lexical token and the 1-based line and column where it starts."""

    kind: str  # ident, var, int, float, string, op, eof
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, token: Token, code: str = "syntax"):
        super().__init__(message)
        self.message = message
        self.token = token
        self.code = code


# One token, or one newline, after the blanks and comments before it.  A `-`
# directly before a digit or a lowercase letter matches ``neg``; it is a sign
# only when the previous token does not end a term.  ``_token_pattern`` fills
# in the character classes.
_TOKEN_TEMPLATE = r"""
(?P<skip>(?:[ \t\r]+|\#[^\n]*)*)
(?: (?P<word>[{alpha}][{alnum}]*)
  | (?P<neg>-(?:[{digit}]+(?:\.[{digit}]+)?|[{lower}][{alnum}]*))
  | (?P<op>{ops})
  | (?P<number>[{digit}]+(?:\.[{digit}]+(?:[eE][+-]?[{digit}]+)?)?)
  | (?P<newline>\n)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<bad>.)
  | \Z )
"""


def _token_pattern(extra: str = "") -> re.Pattern:
    """The token pattern for text whose non-ASCII characters are ``extra``:
    each class holds exactly the characters its ``str`` test accepts."""
    def cls(ascii_part: str, test) -> str:
        return ascii_part + re.escape("".join(c for c in extra if test(c)))
    ops = "|".join(map(re.escape, _TWO_CHAR_PLUS)) + "|[" + re.escape(_SINGLE) + "]"
    return re.compile(_TOKEN_TEMPLATE.format(
        digit=cls("0-9", str.isdigit), lower=cls("a-z", str.islower),
        alpha=cls("A-Za-z_", str.isalpha), alnum=cls("0-9A-Za-z_", str.isalnum),
        ops=ops), re.VERBOSE | re.DOTALL)


_ASCII_TOKEN = _token_pattern()
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Tokens with 1-based positions, ending in one ``eof`` token.

    A newline inside a string does not start a line, and a comment that
    ends the text does not move the ``eof`` column.
    """
    if text.isascii():
        finditer = _ASCII_TOKEN.finditer
    else:
        finditer = _token_pattern("".join(c for c in set(text) if not c.isascii())).finditer
    tokens: list[Token] = []
    append = tokens.append
    line, base, pos = 1, 0, 0  # base: the index where the current line starts
    while True:
        for m in finditer(text, pos):
            kind = m.lastgroup
            start = m.end(1)
            col = start - base + 1
            if kind == "word":
                raw = m[kind]
                append(Token("var" if raw[0].isupper() or raw[0] == "_" else "ident",
                             raw, line, col))
            elif kind == "op":
                append(Token("op", m[kind], line, col))
            elif kind == "newline":
                line += 1
                base = start + 1
            elif kind == "number":
                raw = m[kind]
                append(Token("float" if "." in raw else "int", raw, line, col))
            elif kind == "skip":  # the end of the text
                comment = text.find("#", m.start(), start)
                append(Token("eof", "", line, col if comment < 0 else comment - base + 1))
                return tokens
            elif kind == "string":
                raw = m[kind][1:-1]
                append(Token("string", _ESCAPE.sub(r"\1", raw) if "\\" in raw else raw,
                             line, col))
            elif kind == "neg":
                if tokens and (tokens[-1].kind in ("ident", "var", "int", "float")
                               or tokens[-1].text in (")", "]", "}")):
                    append(Token("op", "-", line, col))  # binary minus
                    pos = start + 1
                    break  # match again after the `-`
                raw = m[kind]
                kind = "ident" if not raw[1].isdigit() else "float" if "." in raw else "int"
                append(Token(kind, raw, line, col))
            elif m[kind] == '"':
                raise ParseError("unterminated string", Token("eof", "", line, col))
            else:
                raise ParseError(f"unexpected character {m[kind]!r}",
                                 Token("op", m[kind], line, col))


class _Stream:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.i = 0
        self.depth = 0  # open nesting levels, see MAX_NESTING

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == text

    def accept(self, text: str) -> bool:
        if self.at_op(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at_op(text):
            raise ParseError(f"expected {text!r}", self.peek())
        return self.next()

    def expect_kind(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}", t)
        return self.next()

    def enter(self, token: Token):
        """Open one nesting level at ``token``; the caller closes it with
        ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token,
                             "nesting-too-deep")

    def pos(self, token: Token | None = None) -> SourcePos:
        t = token or self.peek()
        return SourcePos(self.filename, t.line, t.col)

    def sync_to_dot(self):
        """Skip past the next `.` that ends a declaration; the `.` closing a
        quantifier header `exists V: T .` does not, even when the header
        lacks its type name or its `:`."""
        self.depth = 0
        while self.peek().kind != "eof":
            t = self.next()
            if t.kind == "op" and t.text == "." and not self._closes_quantifier_header():
                return

    def _closes_quantifier_header(self) -> bool:
        before = self.tokens[max(self.i - 5, 0):self.i - 1]
        for k in range(len(before) - 1):
            if (before[k].kind == "ident" and before[k].text in ("exists", "forall")
                    and before[k + 1].kind == "var"):
                rest = [t.text if t.kind == "op" else t.kind for t in before[k + 2:]]
                return rest in ([":", "ident"], [":"], ["ident"])
        return False


def _diag_from(err: ParseError, filename: str) -> SourceDiagnostic:
    return error(err.code, err.message,
                 SourcePos(filename, err.token.line, err.token.col))


# ---------------------------------------------------------------------------
# Terms and formulas
# ---------------------------------------------------------------------------

def _parse_term(s: _Stream) -> Term:
    return _parse_add(s)


def _parse_add(s: _Stream) -> Term:
    left = _parse_mul(s)
    start = s.depth
    while s.at_op("+") or s.at_op("-"):
        t = s.next()
        s.enter(t)  # a left operand nests one level deeper
        right = _parse_mul(s)
        left = Struct(t.text, (left, right))
    s.depth = start
    return left


def _parse_mul(s: _Stream) -> Term:
    left = _parse_prim_term(s)
    start = s.depth
    while s.at_op("*"):
        s.enter(s.next())
        right = _parse_prim_term(s)
        left = Struct("*", (left, right))
    s.depth = start
    return left


def _parse_prim_term(s: _Stream) -> Term:
    t = s.peek()
    if t.kind == "var":
        s.next()
        return Var(t.text)
    if t.kind in ("int", "float"):
        s.next()
        return Struct(t.text)
    if t.kind == "ident":
        s.next()
        if s.at_op("("):
            s.enter(s.next())
            args = [_parse_term(s)]
            while s.accept(","):
                args.append(_parse_term(s))
            s.expect(")")
            s.depth -= 1
            return Struct(t.text, tuple(args))
        return Struct(t.text)
    if s.at_op("["):
        start = s.depth
        s.enter(s.next())
        if s.accept("]"):
            s.depth = start
            return ast.NIL
        items = [_parse_term(s)]
        while s.accept(","):
            s.enter(s.peek())  # [a, b] is [a | [b]]: each item nests one deeper
            items.append(_parse_term(s))
        tail: Term = ast.NIL
        if s.accept("|"):
            tail = _parse_term(s)
        s.expect("]")
        s.depth = start
        return ast.listterm(items, tail)
    if s.at_op("("):
        s.enter(s.next())
        inner = _parse_term(s)
        s.expect(")")
        s.depth -= 1
        return inner
    raise ParseError("expected a term", t)


def _parse_formula(s: _Stream) -> Formula:
    return _parse_iff(s)


def _parse_iff(s: _Stream) -> Formula:
    left = _parse_implies(s)
    while s.at_op("<=>"):
        t = s.next()
        right = _parse_implies(s)
        left = Iff(left, right, pos=s.pos(t))
    return left


def _parse_implies(s: _Stream) -> Formula:
    left = _parse_or(s)
    if s.at_op("=>"):
        t = s.next()
        s.enter(t)
        right = _parse_implies(s)
        s.depth -= 1
        return Implies(left, right, pos=s.pos(t))
    return left


def _parse_or(s: _Stream) -> Formula:
    items = [_parse_and(s)]
    while s.at_op("\\/"):
        s.next()
        items.append(_parse_and(s))
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def _parse_and(s: _Stream) -> Formula:
    items = [_parse_unary(s)]
    while s.at_op("/\\"):
        s.next()
        items.append(_parse_unary(s))
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def _parse_unary(s: _Stream) -> Formula:
    t = s.peek()
    if s.accept("~"):
        s.enter(t)
        body = _parse_unary(s)
        s.depth -= 1
        return Not(body, pos=s.pos(t))
    if t.kind == "ident" and t.text in ("exists", "forall"):
        s.next()
        s.enter(t)
        var = s.expect_kind("var", "a variable").text
        s.expect(":")
        tname = s.expect_kind("ident", "a type name").text
        s.expect(".")
        body = _parse_formula(s)
        s.depth -= 1
        cls = Exists if t.text == "exists" else Forall
        return cls(var, tname, body, pos=s.pos(t))
    return _parse_primary(s)


def _parse_primary(s: _Stream) -> Formula:
    t = s.peek()
    if t.kind == "ident" and t.text == "true":
        s.next()
        return ast.TrueF(pos=s.pos(t))
    if t.kind == "ident" and t.text == "false":
        s.next()
        return ast.FalseF(pos=s.pos(t))
    if s.at_op("("):
        # either a parenthesized formula or a parenthesized term opening an
        # equation; try the formula reading first and fall back
        mark = s.i, s.depth
        try:
            s.enter(s.next())
            inner = _parse_formula(s)
            s.expect(")")
            s.depth -= 1
            return inner
        except ParseError as e:
            if e.code == "nesting-too-deep":
                raise  # the term reading would nest as deep
            s.i, s.depth = mark
    term = _parse_term(s)
    if s.at_op("="):
        s.next()
        right = _parse_term(s)
        return Eq(term, right, pos=s.pos(t))
    if isinstance(term, Struct) and not ast.is_int_literal(term) \
            and not ast.is_float_literal(term) \
            and not (term.functor in ("+", "-", "*") and term.arity == 2):
        return Atom(term.functor, term.args, pos=s.pos(t))
    raise ParseError("expected '=' or a predicate atom", t)


def parse_formula(text: str, filename: str = "<formula>") -> Formula:
    """Parse a standalone formula (no terminating dot); raises on error."""
    s = _Stream(tokenize(text, filename), filename)
    f = _parse_formula(s)
    if s.peek().kind != "eof":
        raise ParseError("trailing input after formula", s.peek())
    return f


def parse_term(text: str, filename: str = "<term>") -> Term:
    s = _Stream(tokenize(text, filename), filename)
    t = _parse_term(s)
    if s.peek().kind != "eof":
        raise ParseError("trailing input after term", s.peek())
    return t


# ---------------------------------------------------------------------------
# .types files
# ---------------------------------------------------------------------------

def parse_type_defs(text: str, filename: str = "<types>") -> tuple[list[TypeDef], list[SourceDiagnostic]]:
    """The raw definitions of a .types file, without builtins."""
    diags: list[SourceDiagnostic] = []
    defs: list[TypeDef] = []
    try:
        s = _Stream(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    seen: dict[str, SourcePos] = {}
    while s.peek().kind != "eof":
        start = s.peek()
        try:
            d = _parse_type_def(s)
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            s.sync_to_dot()
            continue
        if d.name in RESERVED_TYPE_NAMES:
            diags.append(error("reserved-type",
                               f"built-in type {d.name} cannot be redefined",
                               s.pos(start)))
            continue
        if d.name in seen:
            diags.append(error("dup-type",
                               f"type {d.name} is defined twice", s.pos(start)))
            continue
        seen[d.name] = s.pos(start)
        if isinstance(d.body, Cases):
            pairs = [(c.functor, c.arity) for c in d.body.cases]
            if len(set(pairs)) != len(pairs):
                diags.append(warning("dup-case",
                                     f"type {d.name} repeats a constructor; "
                                     "check elimination does not decompose a term built by it",
                                     s.pos(start)))
        defs.append(d)
    return defs, diags


def _parse_type_def(s: _Stream) -> TypeDef:
    start = s.peek()
    name = s.expect_kind("ident", "a type name").text
    pos = s.pos(start)
    if s.accept("=="):
        target = s.expect_kind("ident", "a type name").text
        s.expect(".")
        return TypeDef(name, Alias(target), pos=pos)
    s.expect("::=")
    if s.peek().kind == "ident" and s.peek().text == "enum" and s.peek(1).text == "{":
        s.next()
        s.expect("{")
        cases = [Case(s.expect_kind("ident", "an atom").text)]
        while s.accept(","):
            cases.append(Case(s.expect_kind("ident", "an atom").text))
        s.expect("}")
        s.expect(".")
        return TypeDef(name, Cases(tuple(cases)), pos=pos)
    cases = [_parse_case(s)]
    while s.accept("|"):
        cases.append(_parse_case(s))
    s.expect(".")
    return TypeDef(name, Cases(tuple(cases)), pos=pos)


def _parse_case(s: _Stream) -> Case:
    if s.accept("["):
        if s.accept("]"):
            return Case("[]")
        head = s.expect_kind("ident", "a type name").text
        s.expect("|")
        tail = s.expect_kind("ident", "a type name").text
        s.expect("]")
        return Case("[|]", (head, tail))
    functor = s.expect_kind("ident", "a constructor").text
    components: list[str] = []
    if s.accept("("):
        components.append(s.expect_kind("ident", "a type name").text)
        while s.accept(","):
            components.append(s.expect_kind("ident", "a type name").text)
        s.expect(")")
    return Case(functor, tuple(components))


def parse_types(text: str, filename: str = "<types>") -> tuple[TypeEnv, list[SourceDiagnostic]]:
    """A full environment (builtins included) from a .types file."""
    defs, diags = parse_type_defs(text, filename)
    return TypeEnv(defs), diags


# ---------------------------------------------------------------------------
# .spec files
# ---------------------------------------------------------------------------

def parse_specs(text: str, filename: str = "<spec>") -> tuple[list[Spec], list[SourceDiagnostic]]:
    diags: list[SourceDiagnostic] = []
    specs: list[Spec] = []
    try:
        s = _Stream(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    current: dict | None = None

    def finish():
        nonlocal current
        if current is None:
            return
        types = []
        for p in current["params"]:
            if p not in current["types"]:
                diags.append(error("param-type",
                                   f"{current['name']}: no type for parameter {p}",
                                   current["pos"]))
                types.append("term")
            else:
                types.append(current["types"][p])
        specs.append(Spec(current["name"], tuple(current["params"]), tuple(types),
                          current["relation"], current["external"],
                          tuple(current["dirs"]), pos=current["pos"]))
        current = None

    while s.peek().kind != "eof":
        try:
            t = s.peek()
            if t.kind != "ident":
                raise ParseError("expected a declaration keyword", t)
            if t.text == "procedure":
                finish()
                s.next()
                name = s.expect_kind("ident", "a procedure name").text
                params: list[str] = []
                s.expect("(")
                if not s.at_op(")"):
                    params.append(s.expect_kind("var", "a parameter variable").text)
                    while s.accept(","):
                        params.append(s.expect_kind("var", "a parameter variable").text)
                s.expect(")")
                s.expect(".")
                if len(set(params)) != len(params):
                    diags.append(error("dup-param",
                                       f"duplicate parameter names in {name}",
                                       s.pos(t)))
                    params = list(dict.fromkeys(params))
                current = {"name": name, "params": params, "types": {},
                           "relation": "", "external": "", "dirs": [],
                           "pos": s.pos(t)}
                continue
            if current is None:
                raise ParseError("declaration outside a procedure block", t)
            if t.text == "type":
                s.next()
                var = s.expect_kind("var", "a parameter variable").text
                s.expect(":")
                tname = s.expect_kind("ident", "a type name").text
                s.expect(".")
                if var not in current["params"]:
                    diags.append(error("param-type",
                                       f"{current['name']}: type for unknown parameter {var}",
                                       s.pos(t)))
                elif var in current["types"]:
                    diags.append(error("param-type",
                                       f"{current['name']}: parameter {var} typed twice",
                                       s.pos(t)))
                else:
                    current["types"][var] = tname
                continue
            if t.text in ("relation", "external"):
                s.next()
                value = s.expect_kind("string", "a quoted text").text
                s.expect(".")
                current[t.text] = value
                continue
            if t.text == "dir":
                s.next()
                d = _parse_directionality(s, s.pos(t))
                s.expect(".")
                if d.arity != len(current["params"]):
                    diags.append(error("dir-arity",
                                       f"{current['name']}: directionality has {d.arity} "
                                       f"modes for arity {len(current['params'])}",
                                       s.pos(t)))
                else:
                    current["dirs"].append(d)
                continue
            raise ParseError(f"unknown declaration {t.text!r}", t)
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            s.sync_to_dot()
    finish()
    return specs, diags


def _parse_directionality(s: _Stream, pos: SourcePos) -> Directionality:
    s.expect("(")
    modes = [_parse_mode_entry(s)]
    while s.accept(","):
        modes.append(_parse_mode_entry(s))
    s.expect(")")
    s.expect(":")
    mult = _parse_multiplicity(s)
    nosh: set = set()
    if s.at_op(":"):
        s.next()
        s.expect("{")
        if not s.at_op("}"):
            nosh.add(_parse_nosh_pair(s))
            while s.accept(","):
                nosh.add(_parse_nosh_pair(s))
        s.expect("}")
    return Directionality(tuple(modes), mult, frozenset(nosh), pos=pos)


def _parse_mode_entry(s: _Stream) -> tuple[Mode, Mode]:
    t = s.expect_kind("ident", "a mode keyword")
    try:
        m_in = Mode.from_name(t.text)
    except ValueError:
        raise ParseError(f"unknown mode keyword {t.text!r}", t) from None
    if s.accept("->"):
        t2 = s.expect_kind("ident", "a mode keyword")
        try:
            m_out = Mode.from_name(t2.text)
        except ValueError:
            raise ParseError(f"unknown mode keyword {t2.text!r}", t2) from None
        return (m_in, m_out)
    return (m_in, m_in)  # a singleton mode abbreviates In -> In


def _parse_bound(s: _Stream):
    t = s.peek()
    if t.kind == "int":
        s.next()
        value = int(t.text)
        if value < 0:
            raise ParseError("multiplicity bounds are not negative", t)
        return value
    if s.accept("*"):
        return STAR
    if t.kind == "ident" and t.text == "inf":
        s.next()
        return INF
    raise ParseError("malformed multiplicity bound", t)


def _parse_multiplicity(s: _Stream) -> Multiplicity:
    s.expect("<")
    lo = _parse_bound(s)
    s.expect("-")
    hi = _parse_bound(s)
    s.expect(">")
    return Multiplicity(lo, hi)


def _parse_nosh_pair(s: _Stream) -> tuple[int, int]:
    s.expect("(")
    i = int(s.expect_kind("int", "an index").text)
    s.expect(",")
    j = int(s.expect_kind("int", "an index").text)
    s.expect(")")
    return (min(i, j), max(i, j))


def parse_spec(text: str, filename: str = "<spec>") -> tuple[Spec | None, list[SourceDiagnostic]]:
    specs, diags = parse_specs(text, filename)
    if not specs:
        return None, diags or [error("syntax", "no procedure in input",
                                     SourcePos(filename, 1, 1))]
    return specs[0], diags


# ---------------------------------------------------------------------------
# .tld files
# ---------------------------------------------------------------------------

def close_definition(params, definition: Formula) -> Formula:
    """Materialize implicit existentials: free variables beyond the
    parameters become explicit Exists binders at the universal type,
    outermost in first-occurrence order."""
    param_names = {name for name, _ in params}
    extra = [n for n in ast.free_names(definition) if n not in param_names]
    return ast.exists_all([(n, ast.UNIVERSAL_TYPE) for n in extra], definition)


def parse_tlds(text: str, filename: str = "<tld>") -> tuple[list[TypedLogicDescription], list[SourceDiagnostic]]:
    diags: list[SourceDiagnostic] = []
    out: list[TypedLogicDescription] = []
    try:
        s = _Stream(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    while s.peek().kind != "eof":
        start = s.peek()
        try:
            name = s.expect_kind("ident", "a predicate name").text
            s.expect("(")
            params: list[tuple[str, str]] = []
            if not s.at_op(")"):
                params.append(_parse_tld_param(s))
                while s.accept(","):
                    params.append(_parse_tld_param(s))
            s.expect(")")
            if len({p for p, _ in params}) != len(params):
                raise ParseError(f"duplicate parameter names in {name}", start)
            s.expect("<=>")
            body = _parse_formula(s)
            s.expect(".")
            definition = close_definition(params, body)
            out.append(TypedLogicDescription(name, tuple(params), definition,
                                             pos=s.pos(start)))
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            s.sync_to_dot()
    return out, diags


def _parse_tld_param(s: _Stream) -> tuple[str, str]:
    var = s.expect_kind("var", "a parameter variable").text
    s.expect(":")
    tname = s.expect_kind("ident", "a type name").text
    return (var, tname)


def parse_tld(text: str, filename: str = "<tld>") -> tuple[TypedLogicDescription | None, list[SourceDiagnostic]]:
    tlds, diags = parse_tlds(text, filename)
    if not tlds:
        return None, diags or [error("syntax", "no description in input",
                                     SourcePos(filename, 1, 1))]
    return tlds[0], diags
