"""Deriving executable clauses from an untyped logic description.

The definition is brought to disjunctive normal form: equivalences and
implications expand classically, negation is pushed down to atomic literals
(negation as failure), existentials are hoisted outward with fresh renaming,
and each resulting disjunct becomes one clause.  A universal quantifier that
survives in a body position falls outside the derivable fragment and is
rejected loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ast
from .ast import (And, Atom, Call, Clause, Eq, Exists, FalseF, Forall, Formula,
                  Iff, Implies, LogicDescription, NafNot, Not, Or, Program,
                  TrueF, TypeCheck, Unify, Var)
from .errors import NotDerivableError

# the most clauses a definition may distribute into; past it, derivation
# stops with a ``derive-blowup`` error instead of building them all
MAX_CLAUSES = 4096


@dataclass(frozen=True)
class Disjunct:
    exvars: tuple  # of (name, type_name), clause-local after hoisting
    literals: tuple  # of Literal, order significant


@dataclass(frozen=True)
class NormalizedBody:
    disjuncts: tuple  # of Disjunct


def _where(f: Formula) -> str:
    return f" at {f.pos}" if getattr(f, "pos", None) else ""


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, TrueF):
        return ast.TRUE if positive else ast.FALSE
    if isinstance(f, FalseF):
        return ast.FALSE if positive else ast.TRUE
    if isinstance(f, (Eq, Atom)):
        return f if positive else Not(f, pos=f.pos)
    if isinstance(f, Not):
        return _nnf(f.body, not positive)
    if isinstance(f, And):
        parts = tuple(_nnf(g, positive) for g in f.items)
        return And(parts, pos=f.pos) if positive else Or(parts, pos=f.pos)
    if isinstance(f, Or):
        parts = tuple(_nnf(g, positive) for g in f.items)
        return Or(parts, pos=f.pos) if positive else And(parts, pos=f.pos)
    if isinstance(f, Implies):
        if positive:
            return Or((_nnf(f.left, False), _nnf(f.right, True)), pos=f.pos)
        return And((_nnf(f.left, True), _nnf(f.right, False)), pos=f.pos)
    if isinstance(f, Iff):
        if positive:
            return Or((And((_nnf(f.left, True), _nnf(f.right, True))),
                       And((_nnf(f.left, False), _nnf(f.right, False)))), pos=f.pos)
        return Or((And((_nnf(f.left, True), _nnf(f.right, False))),
                   And((_nnf(f.left, False), _nnf(f.right, True)))), pos=f.pos)
    if isinstance(f, Exists):
        if not positive:
            raise NotDerivableError(
                "negation over an existential quantifier leaves a universal "
                f"in a body position{_where(f)}")
        return Exists(f.var, f.type_name, _nnf(f.body, True), pos=f.pos)
    if isinstance(f, Forall):
        if positive:
            raise NotDerivableError(
                f"universal quantifier in a body position{_where(f)}")
        return Exists(f.var, f.type_name, _nnf(f.body, False), pos=f.pos)
    raise TypeError(f"not a formula: {f!r}")


def _hoist(f: Formula, used: set) -> tuple[list, Formula]:
    """Pull existentials to the front, renaming on collision so that no
    binder name repeats anywhere in the matrix."""
    if isinstance(f, Exists):
        name = ast.fresh_name(f.var, used)
        body = f.body if name == f.var else ast.rename_free(f.body, f.var, name)
        inner, matrix = _hoist(body, used)
        return [(name, f.type_name)] + inner, matrix
    if isinstance(f, (And, Or)):
        binders: list = []
        parts = []
        for g in f.items:
            b, m = _hoist(g, used)
            binders.extend(b)
            parts.append(m)
        return binders, type(f)(tuple(parts), pos=f.pos)
    return [], f


def _first_pos(f: Formula):
    """The source position of the first positioned node of ``f``, in
    preorder; connectives carry none, their leaves do."""
    if getattr(f, "pos", None):
        return f.pos
    for g in ast.subformulas(f):
        pos = _first_pos(g)
        if pos:
            return pos
    return None


def _dnf(f: Formula, leaf) -> list[list]:
    """The disjuncts of ``f`` as lists of ``leaf(g)`` over its leaves ``g``;
    ``leaf`` runs once per leaf, and every disjunct holding that leaf shares
    its result.  A subformula with more than MAX_CLAUSES disjuncts is
    refused before they are built: a conjunction by the product of its
    conjuncts' counts, a disjunction by the running sum of its disjuncts'."""
    if isinstance(f, TrueF):
        return [[]]
    if isinstance(f, FalseF):
        return []
    if isinstance(f, Or):
        out: list[list] = []
        for g in f.items:
            out.extend(_dnf(g, leaf))
            _check_count(len(out), f)
        return out
    if isinstance(f, And):
        parts = [_dnf(g, leaf) for g in f.items]
        _check_count(math.prod(map(len, parts)), f)
        out = [[]]
        for branches in parts:
            out = [left + right for left in out for right in branches]
        return out
    return [[leaf(f)]]


def _check_count(count: int, f: Formula):
    if count > MAX_CLAUSES:
        pos = _first_pos(f)
        what = "conjunction" if isinstance(f, And) else "disjunction"
        raise NotDerivableError(
            f"derive-blowup: the {what}{f' at {pos}' if pos else ''} distributes "
            f"into {count} clauses, more than the limit of {MAX_CLAUSES}")


def _to_literal(f: Formula, type_names: frozenset):
    if isinstance(f, Eq):
        return Unify(f.left, f.right, f.pos)
    if isinstance(f, Atom):
        if len(f.args) == 1 and f.predicate in type_names:
            return TypeCheck(f.predicate, f.args[0], f.pos)
        return Call(f.predicate, f.args, f.pos)
    if isinstance(f, Not):
        if isinstance(f.body, (Eq, Atom)):
            return NafNot(_to_literal(f.body, type_names), f.pos)
        raise NotDerivableError(
            f"negation landed on a non-atomic residue{_where(f)}")
    raise NotDerivableError(
        f"formula cannot become a body literal: {f!r}{_where(f)}")


def normalize(ld: LogicDescription, type_names: frozenset = frozenset()) -> NormalizedBody:
    """Flatten the definition to ordered disjuncts of literals.

    Duplicate type-check literals within one disjunct collapse to the first
    occurrence (conjunction idempotence).  A definition with more than
    MAX_CLAUSES disjuncts is not derivable.
    """
    nnf = _nnf(ld.definition, True)
    used = set(ld.params) | set(ast.free_names(ld.definition))
    binders, matrix = _hoist(nnf, used)

    def leaf(f: Formula) -> tuple:
        lit = _to_literal(f, type_names)
        return lit, ast.literal_vars(lit)

    taken = set(ld.params) | set(ast.free_names(ld.definition))
    # the last suffix given to each renamed binder; every smaller suffix is
    # then in ``taken``, because each disjunct's names all join ``taken``
    # and a binder is renamed at most once per disjunct
    last_suffix: dict = {}
    disjuncts = []
    for leaves in _dnf(matrix, leaf):
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
