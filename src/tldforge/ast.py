"""Syntax trees shared by every stage of the toolchain.

Terms are first order: a variable, or a functor applied to subterms.
Integer literals and atoms are zero-arity functors whose functor text is the
literal itself.  Formulas carry a type name on every quantifier; the
distinguished name ``term`` is the universal type, so an untyped formula is
exactly one whose quantifier annotations are all ``term``.

All values are immutable after construction and safe to share.  Terms are
hash-consed: ``Var`` and ``Struct`` keep one weak table of the live terms,
and building a term equal to a live one returns that object, so there is at
most one live object per distinct term and ``a == b`` exactly when
``a is b``.  Equality and hashing are therefore the identity ones, done in
C.  The table holds no term alive: an entry goes when its term dies.
"""

from __future__ import annotations

import re
import weakref
from typing import Iterable, Mapping, NamedTuple, Union

from .diagnostics import SourcePos
from .errors import NonGroundSubstituteError, UnboundVariableError
from .records import record

UNIVERSAL_TYPE = "term"

INT_RE = re.compile(r"-?\d+\Z")
FLOAT_RE = re.compile(r"-?\d+\.\d+([eE][+-]?\d+)?\Z")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

# the live terms, each under its key: a variable's name, or a structure's
# (functor, args); an entry goes when its term dies
_TERMS: dict = {}


def _forget(ref, table=_TERMS):
    # a dead term's entry may already hold its successor's ref
    if table.get(ref.key) is ref:
        del table[ref.key]


class _HashConsed:
    """What ``Var`` and ``Struct`` share: immutable slots, a weak reference
    for the table, and identity equality, hashing and copying."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# a new term is built with object.__new__ and its slots' setters, and its
# table entry with weakref.ref.__new__ (what KeyedRef's Python-level
# __new__ and __init__ come down to): terms are built in the evaluator's
# inner loops
_new, _new_ref, _KeyedRef = object.__new__, weakref.ref.__new__, weakref.KeyedRef


class Var(_HashConsed):
    """A variable: at most one live ``Var`` per name."""

    __slots__ = ("name",)
    is_ground = False

    def __new__(cls, name: str):
        ref = _TERMS.get(name)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        if not name or not (name[0].isupper() or name[0] == "_"):
            raise ValueError(f"invalid variable name: {name!r}")
        t = _new(cls)
        _set_name(t, name)
        ref = _TERMS[name] = _new_ref(_KeyedRef, t, _forget)
        ref.key = name
        return t

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self) -> str:
        return self.name


class Struct(_HashConsed):
    """A functor applied to a tuple of terms: at most one live ``Struct``
    per functor and arguments.  ``is_ground`` is set when it is built, from
    its arguments'."""

    __slots__ = ("functor", "args", "is_ground")

    def __new__(cls, functor: str, args=()):
        if type(args) is not tuple:
            args = tuple(args)
        key = (functor, args)
        ref = _TERMS.get(key)
        if ref is not None:
            t = ref()
            if t is not None:
                return t
        is_ground = True
        for a in args:
            if not a.is_ground:
                is_ground = False
                break
        t = _new(cls)
        _set_functor(t, functor)
        _set_args(t, args)
        _set_is_ground(t, is_ground)
        ref = _TERMS[key] = _new_ref(_KeyedRef, t, _forget)
        ref.key = key
        return t

    def __reduce__(self):
        return Struct, (self.functor, self.args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        from .printer import format_term  # printer imports this module
        return format_term(self)


_set_name = Var.name.__set__
_set_functor, _set_args, _set_is_ground = (
    Struct.functor.__set__, Struct.args.__set__, Struct.is_ground.__set__)

Term = Union[Var, Struct]

NIL = Struct("[]")
CONS = "[|]"


def atom(name: str) -> Struct:
    return Struct(name)


def cons(head: Term, tail: Term) -> Struct:
    return Struct(CONS, (head, tail))


def listterm(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def int_value(t: Term):
    """The integer a zero-arity functor denotes, or None."""
    if isinstance(t, Struct) and not t.args and INT_RE.match(t.functor):
        return int(t.functor)
    return None


def is_int_literal(t: Term) -> bool:
    return isinstance(t, Struct) and not t.args and bool(INT_RE.match(t.functor))


def is_float_literal(t: Term) -> bool:
    return isinstance(t, Struct) and not t.args and bool(FLOAT_RE.match(t.functor))


def ground(t: Term) -> bool:
    return t.is_ground


def term_depth(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def term_vars(t: Term) -> tuple[str, ...]:
    """Variable names in left-to-right first-occurrence order."""
    out: dict[str, None] = {}

    def walk(u: Term):
        if isinstance(u, Var):
            out.setdefault(u.name)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return tuple(out)


def subst_term(t: Term, binding: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return binding.get(t.name, t)
    if not t.args or ground(t):
        return t
    return Struct(t.functor, tuple(subst_term(a, binding) for a in t.args))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

# a node's ``pos`` is where it was read; a record never compares or prints it

@record
class TrueF:
    """The formula true."""

    pos: SourcePos | None = None


@record
class FalseF:
    """The formula false."""

    pos: SourcePos | None = None


@record
class Eq:
    """The equation left = right between two terms."""

    left: Term
    right: Term
    pos: SourcePos | None = None


@record
class Atom:
    """A predicate applied to terms; with one argument naming a type, a membership check."""

    predicate: str
    args: tuple = ()
    pos: SourcePos | None = None


@record
class And:
    """A conjunction of two or more formulas."""

    items: tuple
    pos: SourcePos | None = None

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("And needs at least two conjuncts")


@record
class Or:
    """A disjunction of two or more formulas."""

    items: tuple
    pos: SourcePos | None = None

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("Or needs at least two disjuncts")


@record
class Not:
    """The negation of a formula."""

    body: "Formula"
    pos: SourcePos | None = None


@record
class Implies:
    """The implication left => right."""

    left: "Formula"
    right: "Formula"
    pos: SourcePos | None = None


@record
class Iff:
    """The equivalence left <=> right."""

    left: "Formula"
    right: "Formula"
    pos: SourcePos | None = None


@record
class Exists:
    """exists var: type_name . body"""

    var: str
    type_name: str
    body: "Formula"
    pos: SourcePos | None = None


@record
class Forall:
    """forall var: type_name . body"""

    var: str
    type_name: str
    body: "Formula"
    pos: SourcePos | None = None


Formula = Union[TrueF, FalseF, Eq, Atom, And, Or, Not, Implies, Iff, Exists, Forall]

TRUE = TrueF()
FALSE = FalseF()


def conj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def exists_all(pairs: Iterable[tuple[str, str]], body: Formula) -> Formula:
    """Wrap body in Exists binders, first pair outermost."""
    out = body
    for name, type_name in reversed(list(pairs)):
        out = Exists(name, type_name, out)
    return out


def subformulas(f: Formula):
    """Direct children of a formula node."""
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (Implies, Iff)):
        return (f.left, f.right)
    if isinstance(f, (Exists, Forall)):
        return (f.body,)
    return ()


def walk(f: Formula):
    """The nodes of a formula in preorder, ``f`` first."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        children = subformulas(g)
        if children:
            stack.extend(reversed(children))


def with_subformulas(f: Formula, children: tuple) -> Formula:
    """A node of ``f``'s kind, with ``f``'s ``pos``, over ``children``, new
    direct subformulas in the order ``subformulas`` gives them; a leaf
    comes back as it is."""
    if isinstance(f, (And, Or)):
        return type(f)(children, f.pos)
    if isinstance(f, Not):
        return Not(*children, f.pos)
    if isinstance(f, (Implies, Iff)):
        return type(f)(*children, f.pos)
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, f.type_name, *children, f.pos)
    if isinstance(f, (TrueF, FalseF, Eq, Atom)):
        return f
    raise TypeError(f"not a formula: {f!r}")


def free_names(f: Formula) -> tuple[str, ...]:
    """Free variable names in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(g: Formula, bound: frozenset):
        if isinstance(g, Eq):
            for name in term_vars(g.left) + term_vars(g.right):
                if name not in bound:
                    seen.setdefault(name)
        elif isinstance(g, Atom):
            for a in g.args:
                for name in term_vars(a):
                    if name not in bound:
                        seen.setdefault(name)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})
        else:
            for child in subformulas(g):
                walk(child, bound)

    walk(f, frozenset())
    return tuple(seen)


def all_names(f: Formula) -> frozenset:
    """Every variable name occurring in the formula, free or bound: the
    free names and the binders' names."""
    return frozenset(free_names(f)).union(
        g.var for g in walk(f) if isinstance(g, (Exists, Forall)))


def free_variables(f: Formula, env: Mapping[str, str] | None = None) -> tuple[tuple[str, str], ...]:
    """Free variables with their types, in first-occurrence order.

    Types come from the supplied environment; quantified occurrences take the
    binder's annotation and are excluded.  Raises UnboundVariableError for a
    free variable missing from the environment.
    """
    env = env or {}
    out = []
    for name in free_names(f):
        if name not in env:
            raise UnboundVariableError(f"no type for free variable {name}")
        out.append((name, env[name]))
    return tuple(out)


def substitute(f: Formula, binding: Mapping[str, Term]) -> Formula:
    """Replace free occurrences of the bound names by ground terms."""
    for name, value in binding.items():
        if not ground(value):
            raise NonGroundSubstituteError(f"replacement for {name} is not ground")
    return _substitute(f, dict(binding))


def rename_free(f: Formula, old: str, new: str) -> Formula:
    """Alpha-rename free occurrences of one variable."""
    return _substitute(f, {old: Var(new)})


def fresh_name(base: str, used: set) -> str:
    """The first of ``base``, ``base1``, ``base2``... not in ``used``, which
    it joins."""
    name, k = base, 0
    while name in used:
        k += 1
        name = f"{base}{k}"
    used.add(name)
    return name


def _substitute(f: Formula, binding: dict) -> Formula:
    if not binding:
        return f
    if isinstance(f, Eq):
        return Eq(subst_term(f.left, binding), subst_term(f.right, binding), pos=f.pos)
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(subst_term(a, binding) for a in f.args), pos=f.pos)
    if isinstance(f, (Exists, Forall)) and f.var in binding:
        binding = {k: v for k, v in binding.items() if k != f.var}
    return with_subformulas(f, tuple(_substitute(g, binding) for g in subformulas(f)))


# ---------------------------------------------------------------------------
# Descriptions
# ---------------------------------------------------------------------------

@record
class TypedLogicDescription:
    """p(X1:t1, ..., Xn:tn) <=> definition, with implicit existentials made explicit."""

    predicate: str
    params: tuple  # of (name, type_name)
    definition: Formula
    pos: SourcePos | None = None

    def __post_init__(self):
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {self.predicate}")

    @property
    def arity(self) -> int:
        return len(self.params)

    def param_env(self) -> dict:
        return dict(self.params)


class LogicDescription(NamedTuple):
    """p(X1, ..., Xn) <=> definition, over untyped first order logic."""

    predicate: str
    params: tuple  # of name
    definition: Formula

    @property
    def arity(self) -> int:
        return len(self.params)


# ---------------------------------------------------------------------------
# Clauses and programs
# ---------------------------------------------------------------------------

# a literal's ``pos`` is the source position of the formula it came from

@record
class Unify:
    """The clause literal left = right."""

    left: Term
    right: Term
    pos: SourcePos | None = None


@record
class Call:
    """A clause literal calling a predicate."""

    predicate: str
    args: tuple
    pos: SourcePos | None = None


@record
class TypeCheck:
    """A clause literal testing that a term belongs to a type."""

    type_name: str
    arg: Term
    pos: SourcePos | None = None


@record
class NafNot:
    """A clause literal negated as failure."""

    literal: "Literal"
    pos: SourcePos | None = None


Literal = Union[Unify, Call, TypeCheck, NafNot]


def literal_terms(lit: Literal) -> tuple:
    """The literal's terms, left to right."""
    if isinstance(lit, Unify):
        return (lit.left, lit.right)
    if isinstance(lit, Call):
        return lit.args
    if isinstance(lit, TypeCheck):
        return (lit.arg,)
    if isinstance(lit, NafNot):
        return literal_terms(lit.literal)
    raise TypeError(f"not a literal: {lit!r}")


def literal_vars(lit: Literal) -> tuple[str, ...]:
    out: dict[str, None] = {}
    for t in literal_terms(lit):
        for name in term_vars(t):
            out.setdefault(name)
    return tuple(out)


def map_literal_terms(lit: Literal, fn) -> Literal:
    """The literal with ``fn`` applied to each of its terms, left to right."""
    if isinstance(lit, Unify):
        return Unify(fn(lit.left), fn(lit.right), lit.pos)
    if isinstance(lit, Call):
        return Call(lit.predicate, tuple(fn(a) for a in lit.args), lit.pos)
    if isinstance(lit, TypeCheck):
        return TypeCheck(lit.type_name, fn(lit.arg), lit.pos)
    if isinstance(lit, NafNot):
        return NafNot(map_literal_terms(lit.literal, fn), lit.pos)
    raise TypeError(f"not a literal: {lit!r}")


@record
class Clause:
    """A clause head and its body literals, with where it was derived from."""

    predicate: str
    head_args: tuple  # of Term, distinct variables after derivation
    body: tuple  # of Literal, order significant
    provenance: str = ""  # printed, not compared

    @property
    def arity(self) -> int:
        return len(self.head_args)


@record
class Program:
    """A predicate's clauses, in order."""

    predicate: str
    arity: int
    clauses: tuple  # of Clause

    def __post_init__(self):
        for c in self.clauses:
            if c.predicate != self.predicate or c.arity != self.arity:
                raise ValueError("clause head does not match program predicate")
