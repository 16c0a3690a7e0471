"""Parsers for the three input formats: .types, .spec and .tld.

The concrete syntax is line-oriented with `.`-terminated declarations and `#`
line comments.  Connectives are ASCII: /\\ \\/ ~ => <=> and `exists V: T .` /
`forall V: T .`.  Recovery is statement-level: a syntax error skips to the
next terminating dot, passing over the dots of quantifier headers.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import ast
from .ast import (And, Atom, Eq, Exists, Forall, Formula, Iff, Implies, Not,
                  Or, Struct, Term, TypedLogicDescription, Var)
from .diagnostics import SourceDiagnostic, SourcePos, error, warning
from .modes import (Directionality, INF, Mode, Multiplicity, Spec, STAR)
from .typesys import Alias, Case, Cases, TypeDef, TypeEnv

RESERVED_TYPE_NAMES = ("term", "integer", "float", "atom")

_TWO_CHAR_PLUS = ("::=", "<=>", ":-", "==", "=>", "->", "/\\", "\\/", "\\+")
_SINGLE = "()[]{},|:.+-*<>=~!;"

# deepest nesting of parentheses, negations, quantifiers, implications,
# term arguments and list items; every later stage recurses on the nesting,
# and this bound keeps all of them within Python's default recursion limit
MAX_NESTING = 100

# most body-only variables in one description: each becomes an existential
# around the body, one more level for every later stage to recurse through
MAX_LOCALS = 250

# the most digits an integer literal may have: the most that Python converts
# between text and int by default (``sys.get_int_max_str_digits``)
MAX_INT_DIGITS = 4300


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


# One token, or one newline, after the blanks and comments before it.  The
# groups of whole tokens are named by their kind.  A `-` directly before a
# digit or a lowercase letter matches ``neg``; it is a sign only when the
# previous token does not end a term.  ``_token_pattern`` fills in the
# character classes.
_TOKEN_TEMPLATE = r"""
(?P<skip>[ \t\r]*(?:\#[^\n]*)?)
(?: (?P<ident>[{lower_word}][{alnum}]*)
  | (?P<var>[{upper_word}][{alnum}]*)
  | (?P<neg>-(?:[{digit}]+(?:\.[{digit}]+)?|[{lower}][{alnum}]*))
  | (?P<op>{ops})
  | (?P<float>[{digit}]+\.[{digit}]+(?:[eE][+-]?[{digit}]+)?)
  | (?P<int>[{digit}]+)
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
        lower_word=cls("a-z", lambda c: c.isalpha() and not c.isupper()),
        upper_word=cls("A-Z_", lambda c: c.isalpha() and c.isupper()),
        alnum=cls("0-9A-Za-z_", str.isalnum), ops=ops), re.VERBOSE | re.DOTALL)


_ASCII_TOKEN = _token_pattern()
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_PLAIN = frozenset(("ident", "var", "op"))  # a group whose text is the token
_ENDS_TERM = frozenset(("ident", "var", "int", "float"))
# a Token or SourcePos built without the call to its Python-level __new__
_new = tuple.__new__


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
    line, base, pos = 1, -1, 0  # base: the index of the newline before the line
    while True:
        for m in finditer(text, pos):
            kind = m.lastgroup
            if kind in _PLAIN:
                append(_new(Token, (kind, m[kind], line, m.end(1) - base)))
            elif kind == "newline":
                line += 1
                base = m.end(1)
            elif kind == "int" or kind == "float":
                append(_convertible(_new(Token, (kind, m[kind], line, m.end(1) - base))))
            elif kind == "skip":  # the end of the text
                start = m.end(1)
                comment = text.find("#", m.start(), start)
                append(Token("eof", "", line, (start if comment < 0 else comment) - base))
                return tokens
            elif kind == "string":
                raw = m[kind][1:-1]
                append(Token("string", _ESCAPE.sub(r"\1", raw) if "\\" in raw else raw,
                             line, m.end(1) - base))
            elif kind == "neg":
                start = m.end(1)
                if tokens and (tokens[-1].kind in _ENDS_TERM
                               or tokens[-1].text in (")", "]", "}")):
                    append(Token("op", "-", line, start - base))  # binary minus
                    pos = start + 1
                    break  # match again after the `-`
                raw = m[kind]
                kind = "ident" if not raw[1].isdigit() else "float" if "." in raw else "int"
                append(_convertible(Token(kind, raw, line, start - base)))
            elif m[kind] == '"':
                raise ParseError("unterminated string", Token("eof", "", line, m.end(1) - base))
            else:
                raise ParseError(f"unexpected character {m[kind]!r}",
                                 Token("op", m[kind], line, m.end(1) - base))


def _convertible(token: Token) -> Token:
    """``token``, unless it is an integer of more than MAX_INT_DIGITS digits."""
    if token.kind == "int" and len(token.text.lstrip("-")) > MAX_INT_DIGITS:
        raise ParseError(f"integer literal longer than {MAX_INT_DIGITS} digits", token,
                         "number-too-long")
    return token


# how tightly each formula operator binds: <=> and => least, and => nests
# to the right; the operands of a run of \/ or of /\ make one node
_BINDING = {"<=>": 0, "=>": 1, "\\/": 2, "/\\": 3}
# the operators that may follow a term in an equation's left side
_TERM_OPERATORS = frozenset(("=", "+", "-", "*"))


class _Parser:
    """The recursive descent over one file's tokens.  ``tags[i]`` is the
    text of token ``i`` when it is an operator and its kind otherwise, so
    one comparison tests both; ``i`` is the next token, and ``depth`` the
    open nesting levels (see MAX_NESTING).  ``free`` maps the variables read
    outside the quantifiers that bind them, in order of first occurrence, to
    the token of that occurrence: ``bound`` holds the variables of the
    quantifiers being read."""

    __slots__ = ("tokens", "tags", "i", "depth", "filename", "free", "bound")

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.tags = [t[1] if t[0] == "op" else t[0] for t in tokens]
        self.i = 0
        self.depth = 0
        self.filename = filename
        self.free: dict[str, Token] = {}
        self.bound: list[str] = []

    def accept(self, tag: str) -> bool:
        if self.tags[self.i] == tag:
            self.i += 1
            return True
        return False

    def expect(self, tag: str, what: str = "") -> str:
        """The text of the next token, which must have ``tag``; ``what``
        names the token that was expected, by default the operator itself."""
        i = self.i
        if self.tags[i] != tag:
            raise ParseError(f"expected {what or repr(tag)}", self.tokens[i])
        self.i = i + 1
        return self.tokens[i][1]

    def sequence(self, read, separator: str = ",") -> list:
        """One or more items, each read by ``read()``, between separators."""
        items = [read()]
        while self.accept(separator):
            items.append(read())
        return items

    def enter(self, token: Token):
        """Open one nesting level at ``token``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token,
                             "nesting-too-deep")

    def pos(self, token: Token) -> SourcePos:
        return _new(SourcePos, (self.filename, token[2], token[3]))

    def sync_to_dot(self):
        """Skip past the next `.` that ends a declaration; the `.` closing a
        quantifier header `exists V: T .` does not, even when the header
        lacks its type name or its `:`."""
        self.depth = 0
        tags, i = self.tags, self.i
        while tags[i] != "eof":
            i += 1
            if tags[i - 1] == "." and not self._closes_quantifier_header(i - 1):
                break
        self.i = i

    def _closes_quantifier_header(self, dot: int) -> bool:
        start = max(dot - 4, 0)
        before = self.tags[start:dot]
        for k in range(len(before) - 1):
            if (before[k] == "ident" and self.tokens[start + k][1] in ("exists", "forall")
                    and before[k + 1] == "var"):
                return before[k + 2:] in ([":", "ident"], [":"], ["ident"])
        return False

    # -- terms and formulas -------------------------------------------------

    def term(self, first: Term | None = None) -> Term:
        """A sum of products, from its ``first`` operand when that has been
        read; within one sum, or one product, each operator opens a nesting
        level that stays open to the end of it."""
        tags, tokens = self.tags, self.tokens
        start = self.depth
        left = op = None
        right = self.primary_term() if first is None else first
        while True:
            if tags[self.i] == "*":
                product = self.depth
                while tags[self.i] == "*":
                    self.i += 1
                    self.enter(tokens[self.i - 1])
                    right = Struct("*", (right, self.primary_term()))
                self.depth = product
            left = right if op is None else Struct(op, (left, right))
            op = tags[self.i]
            if op != "+" and op != "-":
                self.depth = start
                return left
            self.i += 1
            self.enter(tokens[self.i - 1])
            right = self.primary_term()

    def primary_term(self) -> Term:
        i = self.i
        t, tag = self.tokens[i], self.tags[i]
        if tag == "var":
            self.i = i + 1
            if t[1] not in self.free and t[1] not in self.bound:
                self.free[t[1]] = t
            return Var(t[1])
        if tag == "ident":
            self.i = i + 1
            return Struct(t[1], self.arguments()) if self.tags[i + 1] == "(" else Struct(t[1])
        if tag == "int" or tag == "float":
            self.i = i + 1
            return Struct(t[1])
        if tag == "[":
            start = self.depth
            self.i = i + 1
            self.enter(t)
            if self.accept("]"):
                self.depth = start
                return ast.NIL
            items = [self.term()]
            while self.accept(","):
                self.enter(self.tokens[self.i])  # [a, b] is [a | [b]]: each item nests one deeper
                items.append(self.term())
            tail: Term = ast.NIL
            if self.accept("|"):
                tail = self.term()
            self.expect("]")
            self.depth = start
            return ast.listterm(items, tail)
        if tag == "(":
            self.i = i + 1
            self.enter(t)
            inner = self.term()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a term", t)

    def arguments(self) -> tuple:
        """The terms from an argument list's `(` to its `)`."""
        self.i += 1
        self.enter(self.tokens[self.i - 1])
        args = self.sequence(self.term)
        self.expect(")")
        self.depth -= 1
        return tuple(args)

    def formula(self, floor: int = 0) -> Formula:
        """A formula whose operators bind at least as tightly as ``floor``
        (see _BINDING); looser ones are left to the caller."""
        left = self.unary()
        tags = self.tags
        while True:
            op = tags[self.i]
            binding = _BINDING.get(op, -1)
            if binding < floor:
                return left
            t = self.tokens[self.i]
            self.i += 1
            if binding == 0:
                left = Iff(left, self.formula(1), self.pos(t))
            elif binding == 1:
                self.enter(t)
                right = self.formula(1)
                self.depth -= 1
                left = Implies(left, right, self.pos(t))
            else:
                items = [left, self.unary() if binding == 3 else self.formula(3)]
                while tags[self.i] == op:
                    self.i += 1
                    items.append(self.unary() if binding == 3 else self.formula(3))
                left = (And if binding == 3 else Or)(tuple(items))

    def unary(self) -> Formula:
        """A negation, a quantification, or a primary formula."""
        i = self.i
        t, tag = self.tokens[i], self.tags[i]
        first = None  # the first operand of an equation's left side, when read
        if tag == "~":
            self.i = i + 1
            self.enter(t)
            body = self.unary()
            self.depth -= 1
            return Not(body, self.pos(t))
        if tag == "ident":
            if t[1] == "exists" or t[1] == "forall":
                self.i = i + 1
                self.enter(t)
                var = self.expect("var", "a variable")
                self.expect(":")
                tname = self.expect("ident", "a type name")
                self.expect(".")
                self.bound.append(var)
                body = self.formula()
                self.bound.pop()
                self.depth -= 1
                cls = Exists if t[1] == "exists" else Forall
                return cls(var, tname, body, self.pos(t))
            if t[1] == "true":
                self.i = i + 1
                return ast.TrueF(self.pos(t))
            if t[1] == "false":
                self.i = i + 1
                return ast.FalseF(self.pos(t))
            # a predicate atom, unless an operator makes it a term's first operand
            self.i = i + 1
            args = self.arguments() if self.tags[i + 1] == "(" else ()
            if self.tags[self.i] not in _TERM_OPERATORS:
                return Atom(t[1], args, self.pos(t))
            first = Struct(t[1], args)
        elif tag == "(":
            # either a parenthesized formula or a parenthesized term opening
            # an equation; try the formula reading first and fall back
            start, free, bound = self.depth, len(self.free), len(self.bound)
            try:
                self.i = i + 1
                self.enter(t)
                inner = self.formula()
                self.expect(")")
                self.depth -= 1
                return inner
            except ParseError as e:
                if e.code == "nesting-too-deep":
                    raise  # the term reading would nest as deep
                self.i, self.depth = i, start
                for name in list(self.free)[free:]:
                    del self.free[name]
                del self.bound[bound:]
        term = self.term(first)
        if self.tags[self.i] == "=":
            self.i += 1
            return Eq(term, self.term(), self.pos(t))
        if isinstance(term, Struct) and not ast.is_int_literal(term) \
                and not ast.is_float_literal(term) \
                and not (term.functor in ("+", "-", "*") and term.arity == 2):
            return Atom(term.functor, term.args, self.pos(t))
        raise ParseError("expected '=' or a predicate atom", t)

    def at_end(self, what: str):
        """Raise unless every token has been read."""
        if self.tags[self.i] != "eof":
            raise ParseError(f"trailing input after {what}", self.tokens[self.i])


def _diag_from(err: ParseError, filename: str) -> SourceDiagnostic:
    return error(err.code, err.message,
                 SourcePos(filename, err.token.line, err.token.col))


def parse_formula(text: str, filename: str = "<formula>") -> Formula:
    """Parse a standalone formula (no terminating dot); raises on error."""
    p = _Parser(tokenize(text, filename), filename)
    f = p.formula()
    p.at_end("formula")
    return f


def parse_term(text: str, filename: str = "<term>") -> Term:
    p = _Parser(tokenize(text, filename), filename)
    t = p.term()
    p.at_end("term")
    return t


# ---------------------------------------------------------------------------
# .types files
# ---------------------------------------------------------------------------

def parse_type_defs(text: str, filename: str = "<types>") -> tuple[list[TypeDef], list[SourceDiagnostic]]:
    """The raw definitions of a .types file, without builtins."""
    diags: list[SourceDiagnostic] = []
    defs: list[TypeDef] = []
    try:
        p = _Parser(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    seen: dict[str, SourcePos] = {}
    while p.tags[p.i] != "eof":
        try:
            d = _parse_type_def(p)
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            p.sync_to_dot()
            continue
        if d.name in RESERVED_TYPE_NAMES:
            diags.append(error("reserved-type",
                               f"built-in type {d.name} cannot be redefined", d.pos))
            continue
        if d.name in seen:
            diags.append(error("dup-type", f"type {d.name} is defined twice", d.pos))
            continue
        seen[d.name] = d.pos
        if isinstance(d.body, Cases):
            pairs = [(c.functor, c.arity) for c in d.body.cases]
            if len(set(pairs)) != len(pairs):
                diags.append(warning("dup-case", f"type {d.name} repeats a constructor; check "
                                     "elimination does not decompose a term built by it", d.pos))
        defs.append(d)
    return defs, diags


def _parse_type_def(p: _Parser) -> TypeDef:
    pos = p.pos(p.tokens[p.i])
    name = p.expect("ident", "a type name")
    if p.accept("=="):
        target = p.expect("ident", "a type name")
        p.expect(".")
        return TypeDef(name, Alias(target), pos=pos)
    p.expect("::=")
    t = p.tokens[p.i]
    if t.kind == "ident" and t.text == "enum" and p.tokens[p.i + 1].text == "{":
        p.i += 1
        p.expect("{")
        atoms = p.sequence(lambda: p.expect("ident", "an atom"))
        p.expect("}")
        p.expect(".")
        return TypeDef(name, Cases(tuple(Case(atom) for atom in atoms)), pos=pos)
    cases = p.sequence(lambda: _parse_case(p), "|")
    p.expect(".")
    return TypeDef(name, Cases(tuple(cases)), pos=pos)


def _parse_case(p: _Parser) -> Case:
    if p.accept("["):
        if p.accept("]"):
            return Case("[]")
        head = p.expect("ident", "a type name")
        p.expect("|")
        tail = p.expect("ident", "a type name")
        p.expect("]")
        return Case("[|]", (head, tail))
    functor = p.expect("ident", "a constructor")
    components: list[str] = []
    if p.accept("("):
        components = p.sequence(lambda: p.expect("ident", "a type name"))
        p.expect(")")
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
        p = _Parser(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    current: dict | None = None

    def finish():
        nonlocal current
        if current is None:
            return
        types = []
        for name in current["params"]:
            if name not in current["types"]:
                diags.append(error("param-type",
                                   f"{current['name']}: no type for parameter {name}",
                                   current["pos"]))
                types.append("term")
            else:
                types.append(current["types"][name])
        specs.append(Spec(current["name"], tuple(current["params"]), tuple(types),
                          current["relation"], current["external"],
                          tuple(current["dirs"]), pos=current["pos"]))
        current = None

    while p.tags[p.i] != "eof":
        try:
            t = p.tokens[p.i]
            if t.kind != "ident":
                raise ParseError("expected a declaration keyword", t)
            if t.text == "procedure":
                finish()
                p.i += 1
                name = p.expect("ident", "a procedure name")
                params: list[str] = []
                p.expect("(")
                if p.tags[p.i] != ")":
                    params = p.sequence(lambda: p.expect("var", "a parameter variable"))
                p.expect(")")
                p.expect(".")
                if len(set(params)) != len(params):
                    diags.append(error("dup-param",
                                       f"duplicate parameter names in {name}",
                                       p.pos(t)))
                    params = list(dict.fromkeys(params))
                current = {"name": name, "params": params, "types": {},
                           "relation": "", "external": "", "dirs": [],
                           "pos": p.pos(t)}
                continue
            if current is None:
                raise ParseError("declaration outside a procedure block", t)
            if t.text == "type":
                p.i += 1
                var = p.expect("var", "a parameter variable")
                p.expect(":")
                tname = p.expect("ident", "a type name")
                p.expect(".")
                if var not in current["params"]:
                    diags.append(error("param-type",
                                       f"{current['name']}: type for unknown parameter {var}",
                                       p.pos(t)))
                elif var in current["types"]:
                    diags.append(error("param-type",
                                       f"{current['name']}: parameter {var} typed twice",
                                       p.pos(t)))
                else:
                    current["types"][var] = tname
                continue
            if t.text in ("relation", "external"):
                p.i += 1
                value = p.expect("string", "a quoted text")
                p.expect(".")
                current[t.text] = value
                continue
            if t.text == "dir":
                p.i += 1
                d = _parse_directionality(p, p.pos(t))
                p.expect(".")
                if d.arity != len(current["params"]):
                    diags.append(error("dir-arity",
                                       f"{current['name']}: directionality has {d.arity} "
                                       f"modes for arity {len(current['params'])}",
                                       p.pos(t)))
                else:
                    current["dirs"].append(d)
                continue
            raise ParseError(f"unknown declaration {t.text!r}", t)
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            p.sync_to_dot()
    finish()
    return specs, diags


def _parse_directionality(p: _Parser, pos: SourcePos) -> Directionality:
    p.expect("(")
    modes = p.sequence(lambda: _parse_mode_entry(p))
    p.expect(")")
    p.expect(":")
    mult = _parse_multiplicity(p)
    nosh: list = []
    if p.accept(":"):
        p.expect("{")
        if p.tags[p.i] != "}":
            nosh = p.sequence(lambda: _parse_nosh_pair(p))
        p.expect("}")
    return Directionality(tuple(modes), mult, frozenset(nosh), pos=pos)


def _parse_mode(p: _Parser) -> Mode:
    t = p.tokens[p.i]
    p.expect("ident", "a mode keyword")
    try:
        return Mode.from_name(t.text)
    except ValueError:
        raise ParseError(f"unknown mode keyword {t.text!r}", t) from None


def _parse_mode_entry(p: _Parser) -> tuple[Mode, Mode]:
    m_in = _parse_mode(p)
    if p.accept("->"):
        return (m_in, _parse_mode(p))
    return (m_in, m_in)  # a singleton mode abbreviates In -> In


def _parse_bound(p: _Parser):
    t = p.tokens[p.i]
    if t.kind == "int":
        p.i += 1
        value = int(t.text)
        if value < 0:
            raise ParseError("multiplicity bounds are not negative", t)
        return value
    if p.accept("*"):
        return STAR
    if t.kind == "ident" and t.text == "inf":
        p.i += 1
        return INF
    raise ParseError("malformed multiplicity bound", t)


def _parse_multiplicity(p: _Parser) -> Multiplicity:
    p.expect("<")
    lo = _parse_bound(p)
    p.expect("-")
    hi = _parse_bound(p)
    p.expect(">")
    return Multiplicity(lo, hi)


def _parse_nosh_pair(p: _Parser) -> tuple[int, int]:
    p.expect("(")
    i = int(p.expect("int", "an index"))
    p.expect(",")
    j = int(p.expect("int", "an index"))
    p.expect(")")
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

def parse_tlds(text: str, filename: str = "<tld>") -> tuple[list[TypedLogicDescription], list[SourceDiagnostic]]:
    diags: list[SourceDiagnostic] = []
    out: list[TypedLogicDescription] = []
    try:
        p = _Parser(tokenize(text, filename), filename)
    except ParseError as e:
        return [], [_diag_from(e, filename)]
    while p.tags[p.i] != "eof":
        start = p.tokens[p.i]
        try:
            name = p.expect("ident", "a predicate name")
            p.expect("(")
            params: list[tuple[str, str]] = []
            if p.tags[p.i] != ")":
                params = p.sequence(lambda: _parse_tld_param(p))
            p.expect(")")
            names = {var for var, _ in params}
            if len(names) != len(params):
                raise ParseError(f"duplicate parameter names in {name}", start)
            p.expect("<=>")
            p.free, p.bound = {}, []
            body = p.formula()
            # implicit existentials made explicit: the free variables beyond
            # the parameters, bound at the universal type, the first outermost
            local = [var for var in p.free if var not in names]
            if len(local) > MAX_LOCALS:
                raise ParseError(f"more than {MAX_LOCALS} body-only variables",
                                 p.free[local[MAX_LOCALS]], "too-many-locals")
            p.expect(".")
            definition = ast.exists_all([(var, ast.UNIVERSAL_TYPE) for var in local], body)
            out.append(TypedLogicDescription(name, tuple(params), definition,
                                             pos=p.pos(start)))
        except ParseError as e:
            diags.append(_diag_from(e, filename))
            p.sync_to_dot()
    return out, diags


def _parse_tld_param(p: _Parser) -> tuple[str, str]:
    var = p.expect("var", "a parameter variable")
    p.expect(":")
    return (var, p.expect("ident", "a type name"))


def parse_tld(text: str, filename: str = "<tld>") -> tuple[TypedLogicDescription | None, list[SourceDiagnostic]]:
    tlds, diags = parse_tlds(text, filename)
    if not tlds:
        return None, diags or [error("syntax", "no description in input",
                                     SourcePos(filename, 1, 1))]
    return tlds[0], diags
