"""Shared test helpers: a tiny concrete unifier and a generic clause reader."""

from __future__ import annotations

from tldforge import ast
from tldforge.ast import Struct, Var
from tldforge.parser import _Stream, _parse_term, tokenize


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
