"""Printers for terms, formulas, descriptions and clauses; a printed
description parses back to the same description."""

from __future__ import annotations

from . import ast
from .ast import (And, Atom, Call, Clause, Eq, Exists, FalseF, Forall, Formula,
                  Iff, Implies, LogicDescription, NafNot, Not, Or, Struct, Term,
                  TrueF, TypeCheck, TypedLogicDescription, Unify, Var)

_ARITH_PREC = {"+": 1, "-": 1, "*": 2}


def format_term(t: Term) -> str:
    return _term(t, 0)


def _term(t: Term, prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if t.functor == "[|]" and t.arity == 2:
        return _list(t)
    if t.functor in _ARITH_PREC and t.arity == 2:
        p = _ARITH_PREC[t.functor]
        left = _term(t.args[0], p)
        right = _term(t.args[1], p + 1)  # left associative
        text = f"{left} {t.functor} {right}"
        return f"({text})" if p < prec else text
    if not t.args:
        return t.functor
    return f"{t.functor}({', '.join(_term(a, 0) for a in t.args)})"


def _list(t: Term) -> str:
    items = []
    while isinstance(t, Struct) and t.functor == "[|]" and t.arity == 2:
        items.append(_term(t.args[0], 0))
        t = t.args[1]
    if isinstance(t, Struct) and t.functor == "[]" and not t.args:
        return f"[{', '.join(items)}]"
    return f"[{', '.join(items)} | {_term(t, 0)}]"


# precedence levels: quantifier 0, iff 1, implies 2, or 3, and 4, not 5, primary 6
def format_formula(f: Formula) -> str:
    return _formula(f, 0)


def _formula(f: Formula, prec: int) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Eq):
        return f"{_term(f.left, 0)} = {_term(f.right, 0)}"
    if isinstance(f, Atom):
        if not f.args:
            return f.predicate
        return f"{f.predicate}({', '.join(_term(a, 0) for a in f.args)})"
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        text = f"{kw} {f.var}: {f.type_name} . {_formula(f.body, 0)}"
        return f"({text})" if prec > 0 else text
    if isinstance(f, Iff):
        text = f"{_formula(f.left, 2)} <=> {_formula(f.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(f, Implies):
        text = f"{_formula(f.left, 3)} => {_formula(f.right, 2)}"
        return f"({text})" if prec > 2 else text
    if isinstance(f, Or):
        text = " \\/ ".join(_formula(g, 4) for g in f.items)
        return f"({text})" if prec > 3 else text
    if isinstance(f, And):
        text = " /\\ ".join(_formula(g, 5) for g in f.items)
        return f"({text})" if prec > 4 else text
    if isinstance(f, Not):
        return f"~{_formula(f.body, 6)}"
    raise TypeError(f"not a formula: {f!r}")


def format_tld(tld: TypedLogicDescription) -> str:
    params = ", ".join(f"{n}: {t}" for n, t in tld.params)
    return f"{tld.predicate}({params}) <=>\n    {format_formula(tld.definition)}.\n"


def format_ld(ld: LogicDescription) -> str:
    """An untyped description in re-feedable .tld syntax (all params at term)."""
    params = ", ".join(f"{n}: {ast.UNIVERSAL_TYPE}" for n in ld.params)
    return f"{ld.predicate}({params}) <=>\n    {format_formula(ld.definition)}.\n"


def format_literal(lit) -> str:
    if isinstance(lit, Unify):
        return f"{format_term(lit.left)} = {format_term(lit.right)}"
    if isinstance(lit, Call):
        if not lit.args:
            return lit.predicate
        return f"{lit.predicate}({', '.join(format_term(a) for a in lit.args)})"
    if isinstance(lit, TypeCheck):
        return f"{lit.type_name}({format_term(lit.arg)})"
    if isinstance(lit, NafNot):
        inner = format_literal(lit.literal)
        if isinstance(lit.literal, Unify):
            inner = f"({inner})"
        return f"\\+ {inner}"
    raise TypeError(f"not a literal: {lit!r}")


def format_clause(c: Clause, name: str | None = None,
                  cut_after: int | None = None) -> str:
    """The clause as Prolog text, with ``name`` in place of its predicate
    when given, and a cut after the body literal at index ``cut_after``."""
    name = c.predicate if name is None else name
    head = name if not c.head_args else \
        f"{name}({', '.join(format_term(a) for a in c.head_args)})"
    if not c.body:
        return f"{head}."
    parts = [format_literal(lit) for lit in c.body]
    if cut_after is not None:
        parts.insert(cut_after + 1, "!")
    body = ",\n    ".join(parts)
    return f"{head} :-\n    {body}."
