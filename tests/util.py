"""Shared test helpers: a tiny concrete unifier and a generic clause reader."""

from __future__ import annotations

from tldforge import ast
from tldforge.ast import Struct, Var
from tldforge.parser import (_SINGLE, _TWO_CHAR_PLUS, ParseError, Token, _Stream,
                             _parse_term, tokenize)


def walk(t, subst):
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def unify(a, b, subst):
    """Structural unification without occurs check; returns the extended
    substitution or None."""
    a, b = walk(a, subst), walk(b, subst)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return subst
        return {**subst, a.name: b}
    if isinstance(b, Var):
        return {**subst, b.name: a}
    if a.functor != b.functor or a.arity != b.arity:
        return None
    for x, y in zip(a.args, b.args):
        subst = unify(x, y, subst)
        if subst is None:
            return None
    return subst


def resolve(t, subst):
    t = walk(t, subst)
    if isinstance(t, Var):
        return t
    if not t.args:
        return t
    return Struct(t.functor, tuple(resolve(a, subst) for a in t.args))


def instantiation_class(t) -> str:
    """g for ground, v for a free variable, n otherwise."""
    if isinstance(t, Var):
        return "v"
    return "g" if ast.ground(t) else "n"


def read_prolog(text: str):
    """Generic reader for emitted Prolog: a list of (head, body literals).

    Grammar: term (':-' goal (',' goal)*)? '.' where a goal is '!',
    '\\+' goal, or a term optionally equated with another term.
    """
    s = _Stream(tokenize(text, "<emitted>"), "<emitted>")
    clauses = []
    while s.peek().kind != "eof":
        head = _parse_term(s)
        body = []
        if s.accept(":-"):
            body.append(_read_goal(s))
            while s.accept(","):
                body.append(_read_goal(s))
        s.expect(".")
        clauses.append((head, body))
    return clauses


def _read_goal(s):
    if s.accept("!"):
        return ("cut",)
    if s.accept("\\+"):
        if s.accept("("):
            inner = _read_goal(s)
            s.expect(")")
        else:
            inner = _read_goal(s)
        return ("naf", inner)
    left = _parse_term(s)
    if s.accept("="):
        return ("=", left, _parse_term(s))
    return ("call", left)


def tokens_of(text: str):
    """Whitespace-insensitive token stream for golden comparisons."""
    return [t.text for t in tokenize(text, "<golden>") if t.kind != "eof"]


# a description body of p(X: nat) nested k levels deep by one construct,
# with the text of the token that opens each level
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "X = zero" + ")" * k, "("),
    "arguments": (lambda k: "X = " + "s(" * k + "zero" + ")" * k, "("),
    "lists": (lambda k: "X = zero /\\ Y = " + "[" * k + "1" + "]" * k, "["),
    "sums": (lambda k: "X = zero /\\ Y = 1" + " + 1" * k, "+"),
    "negations": (lambda k: "~" * k + "X = zero", "~"),
    "implications": (lambda k: "X = zero" + " => X = zero" * k, "=>"),
    "quantifiers": (lambda k: "".join(f"exists Y{i}: term . " for i in range(k))
                    + "X = zero", "exists"),
}


def reference_tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The character-by-character tokenizer that ``parser.tokenize``
    replaced, kept as the reference its token streams and errors are
    compared with."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def prev_ends_term() -> bool:
        if not tokens:
            return False
        t = tokens[-1]
        return t.kind in ("ident", "var", "int", "float") or t.text in (")", "]", "}")

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string",
                                 Token("eof", "", start_line, start_col))
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                tokens.append(Token("float", text[i:j], start_line, start_col))
            else:
                tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "-" and not prev_ends_term() and i + 1 < n and text[i + 1].isdigit() \
                and text[i:i + 2] != "->":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("float", text[i:j], start_line, start_col))
            else:
                tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "-" and not prev_ends_term() and i + 1 < n and text[i + 1].islower() \
                and text[i:i + 2] != "->":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (word[0].isupper() or word[0] == "_") else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        matched = None
        for op in _TWO_CHAR_PLUS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None and c in _SINGLE:
            matched = c
        if matched is None:
            raise ParseError(f"unexpected character {c!r}",
                             Token("op", c, start_line, start_col))
        tokens.append(Token("op", matched, start_line, start_col))
        col += len(matched)
        i += len(matched)
    tokens.append(Token("eof", "", line, col))
    return tokens
