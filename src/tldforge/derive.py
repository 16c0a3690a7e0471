"""Deriving executable clauses from an untyped logic description.

The definition is brought to disjunctive normal form in one walk that
carries a polarity: equivalences and implications expand classically,
negation flips the polarity down to atomic literals (negation as failure),
existentials are renamed fresh and hoisted outward, and conjunctions
distribute over disjunctions.  Each resulting disjunct becomes one clause.
A universal quantifier that survives in a body position falls outside the
derivable fragment and is rejected loudly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import ast
from .ast import (And, Atom, Call, Clause, Eq, Exists, FalseF, Forall, Formula,
                  Iff, Implies, LogicDescription, NafNot, Not, Or, Program,
                  TrueF, TypeCheck, Unify, Var)
from .errors import NotDerivableError

# the most clauses a definition may distribute into; past it, derivation
# stops with a ``derive-blowup`` error instead of building them all
MAX_CLAUSES = 4096


class Disjunct(NamedTuple):
    """One clause body of the normal form: its local variables and literals."""

    exvars: tuple  # of (name, type_name), clause-local after hoisting
    literals: tuple  # of Literal, order significant


class NormalizedBody(NamedTuple):
    """A description's body as a disjunction of clause bodies."""

    disjuncts: tuple  # of Disjunct


def _where(f: Formula) -> str:
    return f" at {f.pos}" if getattr(f, "pos", None) else ""


def _dnf(f: Formula, positive: bool, type_names: frozenset, used: set,
         binders: list) -> list[list]:
    """The disjuncts of ``f``, read as ``~f`` unless ``positive``, as lists
    of (literal, its variables) pairs.

    Equivalences and implications expand classically and ``~`` flips the
    polarity.  Each existential, or universal under negation, is renamed
    away from ``used`` and recorded in ``binders``, in preorder.  An atom
    becomes its literal once, a NafNot under negation, and every disjunct
    holding it shares that pair.  A subformula with more than MAX_CLAUSES
    disjuncts is refused before they are built: a conjunction by the
    product of its conjuncts' counts, a disjunction by the running sum of
    its disjuncts'.
    """
    if isinstance(f, (TrueF, FalseF)):
        return [[]] if isinstance(f, TrueF) == positive else []
    if isinstance(f, (Eq, Atom)):
        lit = _to_literal(f, type_names)
        if not positive:
            lit = NafNot(lit, f.pos)
        return [[(lit, ast.literal_vars(lit))]]
    if isinstance(f, Not):
        return _dnf(f.body, not positive, type_names, used, binders)
    if isinstance(f, Implies):
        f = Or((Not(f.left), f.right), pos=f.pos)
    elif isinstance(f, Iff):
        # not (A <=> B) is A <=> not B
        right = f.right if positive else Not(f.right)
        f = Or((And((f.left, right)), And((Not(f.left), Not(right)))), pos=f.pos)
        positive = True
    if isinstance(f, (Exists, Forall)):
        if isinstance(f, Forall) == positive:
            what = ("universal quantifier" if positive else "negation over an "
                    "existential quantifier leaves a universal")
            raise NotDerivableError(f"{what} in a body position{_where(f)}")
        name = ast.fresh_name(f.var, used)
        binders.append((name, f.type_name))
        body = f.body if name == f.var else ast.rename_free(f.body, f.var, name)
        return _dnf(body, positive, type_names, used, binders)
    if not isinstance(f, (And, Or)):
        raise TypeError(f"not a formula: {f!r}")
    if isinstance(f, Or) == positive:
        out: list[list] = []
        for g in f.items:
            out.extend(_dnf(g, positive, type_names, used, binders))
            _check_count(len(out), "disjunction", f)
        return out
    parts = [_dnf(g, positive, type_names, used, binders) for g in f.items]
    _check_count(math.prod(map(len, parts)), "conjunction", f)
    out = [[]]
    for branches in parts:
        out = [left + right for left in out for right in branches]
    return out


def _first_pos(f: Formula):
    """The source position of the first positioned node of ``f``'s normal
    form, in preorder.  Negations, binders and truth values do not survive
    into it, and connectives carry no position unless an equivalence or an
    implication expanded into them; their leaves do."""
    return next((g.pos for g in ast.walk(f)
                 if isinstance(g, (Eq, Atom, And, Or, Implies, Iff)) and g.pos), None)


def _check_count(count: int, what: str, f: Formula):
    if count > MAX_CLAUSES:
        pos = _first_pos(f)
        raise NotDerivableError(
            f"derive-blowup: the {what}{f' at {pos}' if pos else ''} distributes "
            f"into {count} clauses, more than the limit of {MAX_CLAUSES}")


def _to_literal(f: Eq | Atom, type_names: frozenset):
    if isinstance(f, Eq):
        return Unify(f.left, f.right, f.pos)
    if len(f.args) == 1 and f.predicate in type_names:
        return TypeCheck(f.predicate, f.args[0], f.pos)
    return Call(f.predicate, f.args, f.pos)


def normalize(ld: LogicDescription, type_names: frozenset = frozenset()) -> NormalizedBody:
    """Flatten the definition to ordered disjuncts of literals.

    Duplicate type-check literals within one disjunct collapse to the first
    occurrence (conjunction idempotence).  A definition with more than
    MAX_CLAUSES disjuncts is not derivable.
    """
    taken = set(ld.params) | set(ast.free_names(ld.definition))
    binders: list = []
    # the last suffix given to each renamed binder; every smaller suffix is
    # then in ``taken``, because each disjunct's names all join ``taken``
    # and a binder is renamed at most once per disjunct
    last_suffix: dict = {}
    disjuncts = []
    for leaves in _dnf(ld.definition, True, type_names, set(taken), binders):
        kept = []
        seen_checks = set()
        occurring = set()
        for lit, names in leaves:
            if isinstance(lit, TypeCheck):
                if lit in seen_checks:
                    continue
                seen_checks.add(lit)
            kept.append((lit, names))
            occurring.update(names)
        # a binder shared across disjuncts through distribution gets a fresh
        # name per disjunct: no clause-local name repeats across clauses
        exvars = []
        renaming: dict = {}
        for n, t in binders:
            if n not in occurring:
                continue
            name = n
            if name in taken:
                k = last_suffix.get(n, 0) + 1
                while f"{n}{k}" in taken or f"{n}{k}" in occurring:
                    k += 1
                last_suffix[n] = k
                name = f"{n}{k}"
                renaming[n] = Var(name)
            taken.add(name)
            exvars.append((name, t))
        literals = tuple(
            lit if renaming.keys().isdisjoint(names)
            else ast.map_literal_terms(lit, lambda t: ast.subst_term(t, renaming))
            for lit, names in kept)
        disjuncts.append(Disjunct(tuple(exvars), literals))
    return NormalizedBody(tuple(disjuncts))


def derive_clauses(ld: LogicDescription, type_names: frozenset = frozenset(),
                   nb: NormalizedBody | None = None) -> Program:
    """One clause per disjunct, head over the original parameter variables.

    ``nb`` is the description's normalized body when the caller already
    computed it.
    """
    if nb is None:
        nb = normalize(ld, type_names)
    head = tuple(Var(p) for p in ld.params)
    clauses = []
    total = len(nb.disjuncts)
    for i, d in enumerate(nb.disjuncts, start=1):
        clauses.append(Clause(ld.predicate, head, d.literals,
                              provenance=f"disjunct {i} of {total}"))
    return Program(ld.predicate, len(ld.params), tuple(clauses))


# ---------------------------------------------------------------------------
# Back to formulas (for bounded-instance comparison and stage dumps)
# ---------------------------------------------------------------------------

def literal_formula(lit) -> Formula:
    if isinstance(lit, Unify):
        return Eq(lit.left, lit.right)
    if isinstance(lit, Call):
        return Atom(lit.predicate, lit.args)
    if isinstance(lit, TypeCheck):
        return Atom(lit.type_name, (lit.arg,))
    if isinstance(lit, NafNot):
        return Not(literal_formula(lit.literal))
    raise TypeError(f"not a literal: {lit!r}")


def body_formula(clause: Clause) -> Formula:
    """The clause body as a closed-off formula: locals become existentials."""
    body = ast.conj([literal_formula(lit) for lit in clause.body])
    head_names = set()
    for t in clause.head_args:
        head_names.update(ast.term_vars(t))
    locals_ = [n for n in ast.free_names(body) if n not in head_names]
    return ast.exists_all([(n, ast.UNIVERSAL_TYPE) for n in locals_], body)


def program_formula(prog: Program) -> Formula:
    """The whole program read as a definition: the disjunction of its
    clause bodies (heads must share one variable tuple)."""
    return ast.disj([body_formula(c) for c in prog.clauses])


def normalized_formula(nb: NormalizedBody) -> Formula:
    return ast.disj([
        ast.exists_all(d.exvars, ast.conj([literal_formula(lit) for lit in d.literals]))
        for d in nb.disjuncts])
