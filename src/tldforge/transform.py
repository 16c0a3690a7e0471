"""Typed-to-untyped conversion: check conjunctions, the row-by-row formula
transformation, whole-description assembly, and purely propositional
simplification of the inserted checks.

Checks at the universal type are omitted throughout, since they are
equivalent to true.  Within a conjunction the transformed kernel comes
first and its checks after it.
"""

from __future__ import annotations

from typing import Mapping

from . import ast
from .ast import (And, Atom, Eq, Exists, FalseF, Forall, Formula, Iff, Implies,
                  LogicDescription, Not, Or, TrueF, TypedLogicDescription, Var)
from .errors import UnboundVariableError

TypingEnv = Mapping[str, str]


def _checks_for(env: TypingEnv, names, pos=None) -> list[Formula]:
    """Membership checks for ``names``, at the position ``pos`` of the
    formula that needs them."""
    out = []
    for name in names:
        if name not in env:
            raise UnboundVariableError(f"no type for variable {name}")
        tname = env[name]
        if tname != ast.UNIVERSAL_TYPE:
            out.append(Atom(tname, (Var(name),), pos=pos))
    return out


def check_of(env: TypingEnv, f: Formula) -> Formula:
    """The conjunction of type checks over f's free variables.

    Variables appear in first-occurrence order; checks at the universal type
    are omitted; the empty conjunction is true.
    """
    return ast.conj(_checks_for(env, ast.free_names(f)))


def _with_checks(kernel: Formula, checks: list[Formula]) -> Formula:
    if not checks:
        return kernel
    return And((kernel, *checks))


def transform_formula(env: TypingEnv, f: Formula) -> Formula:
    """Rewrite a typed formula into an untyped one, row by row.

    Equalities gain checks on every variable occurring in them; quantifiers
    lose their annotation and gain a membership guard; disjunction, negation,
    implication and equivalence weave in the check conjunctions of their
    subformulas.  True, false and predicate atoms map to themselves.
    """
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, Eq):
        names = dict.fromkeys(ast.term_vars(f.left) + ast.term_vars(f.right))
        return _with_checks(Eq(f.left, f.right, pos=f.pos), _checks_for(env, names, f.pos))
    if isinstance(f, And):
        return And(tuple(transform_formula(env, g) for g in f.items), pos=f.pos)
    if isinstance(f, Or):
        # each branch checks the other branches' names, a name placed where
        # it first occurs outside the branch: at its first (branch, position)
        # place, or at its second where the first is in this branch
        places: dict = {}
        for j, g in enumerate(f.items):
            for k, name in enumerate(ast.free_names(g)):
                at = places.setdefault(name, [])
                if len(at) < 2:
                    at.append((j, k))
        branches = []
        for i, g in enumerate(f.items):
            # ``places`` is in first-place order: the sort moves only the
            # names whose first place is this branch
            other_names = [name for _, name in sorted(
                (at[1] if at[0][0] == i else at[0], name) for name, at in places.items()
                if at[0][0] != i or len(at) > 1)]
            branches.append(_with_checks(transform_formula(env, g),
                                         _checks_for(env, other_names, f.pos)))
        return Or(tuple(branches), pos=f.pos)
    if isinstance(f, Not):
        checks = _checks_for(env, ast.free_names(f.body), f.pos)
        return _with_checks(Not(transform_formula(env, f.body), pos=f.pos), checks)
    if isinstance(f, Implies):
        checks_g = _checks_for(env, ast.free_names(f.left), f.pos)
        checks_h = _checks_for(env, ast.free_names(f.right), f.pos)
        gnt = transform_formula(env, f.left)
        hnt = transform_formula(env, f.right)
        left_branch = _with_checks(Not(gnt), checks_g + checks_h)
        right_branch = _with_checks(hnt, checks_g)
        return Or((left_branch, right_branch), pos=f.pos)
    if isinstance(f, Iff):
        checks = (_checks_for(env, ast.free_names(f.left), f.pos)
                  + _checks_for(env, ast.free_names(f.right), f.pos))
        kernel = Iff(transform_formula(env, f.left),
                     transform_formula(env, f.right), pos=f.pos)
        return _with_checks(kernel, checks)
    if isinstance(f, Exists):
        inner_env = {**env, f.var: f.type_name}
        body = transform_formula(inner_env, f.body)
        if f.type_name != ast.UNIVERSAL_TYPE:
            body = And((Atom(f.type_name, (Var(f.var),), pos=f.pos), body))
        return Exists(f.var, ast.UNIVERSAL_TYPE, body, pos=f.pos)
    if isinstance(f, Forall):
        inner_env = {**env, f.var: f.type_name}
        body = transform_formula(inner_env, f.body)
        if f.type_name != ast.UNIVERSAL_TYPE:
            body = Implies(Atom(f.type_name, (Var(f.var),), pos=f.pos), body)
        return Forall(f.var, ast.UNIVERSAL_TYPE, body, pos=f.pos)
    raise TypeError(f"not a formula: {f!r}")


def transform_tld(tld: TypedLogicDescription) -> LogicDescription:
    """The untyped description: parameter checks in declaration order,
    then the transformed definition."""
    env = tld.param_env()
    checks = _checks_for(env, [name for name, _ in tld.params], tld.pos)
    body = transform_formula(env, tld.definition)
    definition = ast.conj(checks + [body]) if checks else body
    return LogicDescription(tld.predicate, tuple(n for n, _ in tld.params), definition)


def _is_check_shaped(f: Formula) -> bool:
    return isinstance(f, Atom) and len(f.args) == 1


def simplify_checks(f: Formula) -> Formula:
    """Propositional cleanup only: flatten nested conjunctions and
    disjunctions, drop true conjuncts and false disjuncts, and collapse
    duplicate type-check conjuncts within one conjunction."""
    if isinstance(f, And):
        items: list[Formula] = []
        seen_checks = set()
        for g in f.items:
            g = simplify_checks(g)
            parts = g.items if isinstance(g, And) else (g,)
            for p in parts:
                if isinstance(p, TrueF):
                    continue
                if _is_check_shaped(p):
                    key = (p.predicate, p.args)
                    if key in seen_checks:
                        continue
                    seen_checks.add(key)
                items.append(p)
        return ast.conj(items)
    if isinstance(f, Or):
        items = []
        for g in f.items:
            g = simplify_checks(g)
            parts = g.items if isinstance(g, Or) else (g,)
            for p in parts:
                if isinstance(p, FalseF):
                    continue
                items.append(p)
        return ast.disj(items)
    children = ast.subformulas(f)
    return ast.with_subformulas(f, tuple(map(simplify_checks, children))) if children else f


def simplify_description(ld: LogicDescription) -> LogicDescription:
    return LogicDescription(ld.predicate, ld.params, simplify_checks(ld.definition))
