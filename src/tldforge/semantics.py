"""Bounded-universe evaluation of typed and untyped formulas.

Evaluation is three valued: ``unknown`` arises only when a predicate
unfolding bound is hit, and it is viral through connectives except where
absorption applies (false /\\ _ = false, true \\/ _ = true).  Quantifiers
range over the bounded enumeration of their annotated type; the universal
type ranges over all terms of the environment's signature up to the depth
bound, so a true/false verdict is a fact about the bounded universe.

The evaluator compiles each formula once into closures, and each term into
a closure giving its value under a binding, so no evaluation substitutes
into a term.  Inside exists blocks it solves determining equations, matching
the equation as written against the value of its other side, and builtin
calls with one open argument, reading the value there from ``BUILTINS``.
Every value in a binding is ground, and terms are hash-consed, so two
values are equal exactly when they are one object.  A quantifier memoizes
its verdicts only where its key can recur: not when its free variables
cover every name the binding may hold (see ``_Evaluator._quantifier``).

The equivalence checker makes one descent: it binds the free variables one
at a time, in universe order, and evaluates the untyped formula on each
prefix, and the typed one once the untyped verdict is decided.  A verdict
on a prefix holds on every completion, so where the untyped verdict is
decided the block's outside completions are counted at once, and where the
typed one is decided too, or the binding is full, its inside ones; the
counts are those of enumerating every binding, and the first violation
reported is the first violating binding in universe order.

A type guard -- a mandatory membership conjunct t(X), or one mandatory in
every disjunct of a mandatory disjunction -- is false on every value of X
outside t, and a pin -- a mandatory conjunct X = t or t = X with t ground --
on every value but t.  So the descent binds only the values that pass the
filters of a formula whose verdict is open, and counts the others in bulk:
while the untyped verdict is open, the outside values failing its filters
(the untyped formula false) and the inside ones failing both formulas'
(both false); once it is decided, the inside values failing the typed
formula's filters (agreeing, or violations where the untyped formula is
true).  A quantifier block's binder takes its filtered values from the same
helper (``_passing``), from its kernel's filters: a forall block runs as the
negated exists block over its negated kernel, so ``forall Y . A => K``'s
binder is narrowed by A's filters and forced by A's equations.

The universe of ``term`` is counted.  It is built only for an enumeration
that really ranges over all of it: a swept variable without a filter, or an
unguarded binder at ``term`` that a search reaches; so is the pool of a
``term`` parameter.  A binder's domain is built on first use, an empty
domain is told by inhabitation, and every membership test is the type
system's bounded membership.  These are pure speedups: results are
identical to brute-force enumeration (see evaluate_reference, which the
tests compare against).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import product
from typing import Mapping, NamedTuple

from . import ast
from .ast import (And, Atom, Eq, Exists, FalseF, Forall, Formula, Iff, Implies,
                  Not, Or, Struct, Term, TrueF, TypedLogicDescription,
                  UNIVERSAL_TYPE, Var)
from .errors import MissingBindingError, UnknownPredicateError
from .typesys import INTEGER_RANGE, MAX_DEPTH, TypeEnv

TYPED = "typed"
UNTYPED = "untyped"


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


TRUE, FALSE, UNKNOWN = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN


def truth_not(v: Truth) -> Truth:
    if v is TRUE:
        return FALSE
    if v is FALSE:
        return TRUE
    return UNKNOWN


_NO_SOLUTION = object()
_NOT_DETERMINED = object()


def _quotient(factor: int, product: int):
    """The x with factor * x = product."""
    if factor == 0:
        return _NOT_DETERMINED if product == 0 else _NO_SOLUTION
    return product // factor if product % factor == 0 else _NO_SOLUTION


def _bound(pick):
    """The x with pick(other, x) = result, for ``pick`` max or min."""
    def solve(other: int, result: int):
        if pick(other, result) != result:
            return _NO_SOLUTION
        # with the other argument at the result, every x up to it (max) or from it (min)
        return _NOT_DETERMINED if other == result else result
    return solve


# Each builtin's relation on integer arguments, and per argument the value
# there given the others in argument order: an int, _NO_SOLUTION or
# _NOT_DETERMINED, or None where it is never solved.
BUILTINS = {
    "plus": (lambda a, b, c: a + b == c,
             (lambda b, c: c - b, lambda a, c: c - a, operator.add)),
    "minus": (lambda a, b, c: a - b == c, (operator.add, operator.sub, operator.sub)),
    "times": (lambda a, b, c: a * b == c, (_quotient, _quotient, operator.mul)),
    "max": (lambda a, b, c: max(a, b) == c, (_bound(max), _bound(max), max)),
    "min": (lambda a, b, c: min(a, b) == c, (_bound(min), _bound(min), min)),
    "lt": (operator.lt, (None, None)),
    "le": (operator.le, (None, None)),
    "gt": (operator.gt, (None, None)),
    "ge": (operator.ge, (None, None)),
}


def _builtin_call(name: str, args) -> Truth:
    """A call to a predicate without a description, on ground arguments: true
    exactly when they are integer literals in the builtin's relation."""
    entry = BUILTINS.get(name)
    if entry is None:
        raise UnknownPredicateError(f"no description for predicate {name}/{len(args)}")
    relation, solve = entry
    if len(args) != len(solve):
        raise UnknownPredicateError(
            f"{name} called with {len(args)} args, defined with {len(solve)}")
    values = [ast.int_value(a) for a in args]
    return FALSE if None in values or not relation(*values) else TRUE


def _builtin_solution(name: str, hole: int, known):
    """The value at the open position ``hole`` of a builtin call whose other
    arguments are the ground terms ``known``."""
    values = [ast.int_value(v) for v in known]
    return _NO_SOLUTION if None in values else BUILTINS[name][1][hole](*values)


@dataclass(frozen=True)
class EvalContext:
    """Types, predicate meanings, and the two bounds.

    ``predicates`` maps a name to a typed description, an untyped
    description, or a (typed, untyped) pair; with a pair, the typed side of
    an equivalence check unfolds the first and the untyped side the second.
    """

    types: TypeEnv
    predicates: Mapping[str, object] = field(default_factory=dict)
    universe_depth: int = 2
    unfold_depth: int = 4

    def __post_init__(self):
        if self.universe_depth < 1 or self.unfold_depth < 1:
            raise ValueError("bounds must be at least 1")
        if self.universe_depth > MAX_DEPTH:
            raise ValueError(f"universe depth {self.universe_depth} is over the "
                             f"limit of {MAX_DEPTH}")


def _description(entry, side: str):
    """The definition and parameter names of the description that ``side``
    unfolds for an ``EvalContext.predicates`` entry."""
    if type(entry) is tuple:  # a pair: a LogicDescription is a NamedTuple
        entry = entry[0] if side == TYPED else entry[1]
    if isinstance(entry, TypedLogicDescription):
        return entry.definition, tuple(n for n, _ in entry.params)
    return entry.definition, tuple(entry.params)


def _mandatory_conjuncts(kernel: Formula, forbidden: frozenset = frozenset()):
    """Conjuncts that must hold for the kernel to hold, also looking through
    nested existential conjuncts (whose binders become forbidden names)."""
    parts = kernel.items if isinstance(kernel, And) else (kernel,)
    for c in parts:
        if isinstance(c, Exists):
            inner = set(forbidden)
            body: Formula = c
            while isinstance(body, Exists):
                inner.add(body.var)
                body = body.body
            yield from _mandatory_conjuncts(body, frozenset(inner))
        elif isinstance(c, And):
            yield from _mandatory_conjuncts(c, forbidden)
        else:
            yield (c, forbidden)


def _filters(mandatory, name: str, types: TypeEnv) -> tuple:
    """(guards, pins) on the outer variable ``name`` among the mandatory
    conjuncts: the types t of the guards t(name) -- a membership atom, or
    one that guards every disjunct of a disjunction -- and the ground terms
    t of the pins ``name = t`` or ``t = name``.  The kernel is false on
    every value of ``name`` outside a guard's type and on every value but a
    pin's term."""
    guards, pins = [], []
    for c, forbidden in mandatory:
        if name in forbidden:
            continue
        if (isinstance(c, Atom) and len(c.args) == 1 and isinstance(c.args[0], Var)
                and c.args[0].name == name and c.predicate in types):
            guards.append(c.predicate)
        elif isinstance(c, Eq):
            pins += [t for v, t in ((c.left, c.right), (c.right, c.left))
                     if isinstance(v, Var) and v.name == name and ast.ground(t)]
        elif isinstance(c, Or):
            per_disjunct = [_filters(_mandatory_conjuncts(d, forbidden), name, types)[0]
                            for d in c.items]
            guards += [t for t in per_disjunct[0] if all(t in g for g in per_disjunct[1:])]
    return guards, pins


def _passing(mandatory, name: str, types: TypeEnv, depth: int) -> list | None:
    """The values of ``name`` at ``depth`` that pass every guard and every
    pin among the mandatory conjuncts (``_filters``), in the first guard's
    enumeration order, or None when there is no filter.  The kernel is
    false on every other value, whatever the other variables are."""
    guards, pins = _filters(mandatory, name, types)
    if not guards and not pins:
        return None
    pool = pins[:1] if pins else types.enumerate_type(guards[0], depth)
    return [v for v in pool if all(v == p for p in pins)
            and all(types.bounded_member(g, v, depth) for g in guards)]


def _term_value(t: Term):
    """``value(binding)``: t with the binding's values put for its
    variables, or None as soon as one of them is unbound.  A binding holds
    only ground values, so a value is ground."""
    if isinstance(t, Var):
        name = t.name
        return lambda binding: binding.get(name)
    if ast.ground(t):
        return lambda binding: t
    functor = t.functor
    args = [_term_value(a) for a in t.args]

    def build(binding):
        values = []
        for arg in args:
            v = arg(binding)
            if v is None:
                return None
            values.append(v)
        return Struct(functor, tuple(values))
    return build


def _term_matcher(pattern: Term):
    """``match(value, binding, out)``: the one-way match of the pattern
    against a ground value, in one walk.  The pattern's bound variables are
    read from ``binding``, and the values the others must take are recorded
    in ``out``."""
    if isinstance(pattern, Var):
        name = pattern.name

        def match_var(value, binding, out):
            seen = binding.get(name)
            if seen is None:
                seen = out.get(name)
                if seen is None:
                    out[name] = value
                    return True
            return seen is value
        return match_var
    if ast.ground(pattern):
        return lambda value, binding, out: value is pattern
    functor, arity = pattern.functor, len(pattern.args)
    args = [_term_matcher(a) for a in pattern.args]

    def match(value, binding, out):
        if value.functor != functor or len(value.args) != arity:
            return False
        for arg, v in zip(args, value.args):
            if not arg(v, binding, out):
                return False
        return True
    return match


def _junction(parts, stop: Truth):
    """Kleene conjunction (``stop`` FALSE) or disjunction (``stop`` TRUE) of
    compiled parts, run left to right until one gives ``stop``."""
    other = truth_not(stop)

    def run(binding, budget: int) -> Truth:
        result = other
        for part in parts:
            v = part(binding, budget)
            if v is stop:
                return stop
            if v is UNKNOWN:
                result = UNKNOWN
        return result
    return run


def _negated(f: Formula) -> Formula:
    """~f with the negation moved down one connective: ~(A => K) is A /\\ ~K,
    ~(A \\/ B) is ~A /\\ ~B, ~(A /\\ B) is ~A \\/ ~B with each disjunct negated
    alike, and ~~A is A (see ``_Evaluator._block``)."""
    if isinstance(f, Not):
        return f.body
    if isinstance(f, Implies):
        return And((f.left, Not(f.right)))
    if isinstance(f, Or):
        return And(tuple(Not(g) for g in f.items))
    if isinstance(f, And):
        return Or(tuple(_negated(g) for g in f.items))
    return Not(f)


class _Evaluator:
    """Compiles formulas into closures ``run(binding, budget) -> Truth``.

    ``compile`` works out once whatever depends only on the formula: free
    names, absorbed quantifier blocks, mandatory conjuncts, narrowed and
    empty domains; conjuncts run in the order written.  Each term is
    compiled too, into a closure giving its value under the binding (see
    ``_term_value``), so no evaluation substitutes into a term.  A closure
    reads nothing but the binding's values, so one compiled formula serves
    a whole sweep.  A quantifier closure memoizes its verdicts on the budget
    and the values of its free variables where that key can recur (see
    ``_quantifier``).  A variable missing from the binding makes what
    depends on it unknown.

    Every value in a binding is ground, so membership tests skip the
    groundness check, and values are compared by identity, which is term
    equality for hash-consed terms.  ``evaluate`` checks its arguments;
    everything else binds only values of the bounded universe (the sweeps,
    the domains) or values built from ground ones (the solvers, and
    ``_unfold``, which is called on ground arguments only).
    """

    def __init__(self, ctx: EvalContext, side: str = TYPED):
        self.ctx = ctx
        self.side = side
        self._definitions: dict = {}  # predicate name -> (params, run, memo)

    def universe(self, type_name: str) -> tuple:
        return self.ctx.types.enumerate_type(type_name, self.ctx.universe_depth)

    def in_universe(self, type_name: str, value: Term) -> bool:
        return self.ctx.types.bounded_member(type_name, value, self.ctx.universe_depth)

    # -- formulas -------------------------------------------------------------

    def compile(self, f: Formula, scope: frozenset):
        """``run(binding, budget)`` evaluating f.  ``scope`` holds every name
        the binding may hold; quantifier blocks rename their binders away
        from it."""
        if isinstance(f, TrueF):
            return lambda binding, budget: TRUE
        if isinstance(f, FalseF):
            return lambda binding, budget: FALSE
        if isinstance(f, Eq):
            return self._eq(f)
        if isinstance(f, Atom):
            return self._atom(f)
        if isinstance(f, (And, Or)):
            return _junction([self.compile(g, scope) for g in f.items],
                             FALSE if isinstance(f, And) else TRUE)
        if isinstance(f, Not):
            body = self.compile(f.body, scope)
            return lambda binding, budget: truth_not(body(binding, budget))
        if isinstance(f, Implies):
            return _junction([self.compile(Not(f.left), scope),
                              self.compile(f.right, scope)], TRUE)
        if isinstance(f, Iff):
            left, right = self.compile(f.left, scope), self.compile(f.right, scope)

            def iff(binding, budget):
                va, vb = left(binding, budget), right(binding, budget)
                if va is UNKNOWN or vb is UNKNOWN:
                    return UNKNOWN
                return TRUE if va is vb else FALSE
            return iff
        if isinstance(f, (Exists, Forall)):
            return self._quantifier(f, scope)
        raise TypeError(f"not a formula: {f!r}")

    def _eq(self, f: Eq):
        left, right = _term_value(f.left), _term_value(f.right)

        def eq(binding, budget):
            a, b = left(binding), right(binding)
            if a is None or b is None:
                return UNKNOWN
            return TRUE if a is b else FALSE
        return eq

    def _atom(self, f: Atom):
        name = f.predicate
        args = [_term_value(a) for a in f.args]
        types = self.ctx.types
        if len(args) == 1 and name in types:
            arg = args[0]

            def member(binding, budget):
                v = arg(binding)
                if v is None:
                    return UNKNOWN
                return TRUE if types.ground_member(name, v) else FALSE
            return member
        defined = self.ctx.predicates.get(name) is not None

        def atom(binding, budget):
            values = []
            for arg in args:
                v = arg(binding)
                if v is None:
                    return UNKNOWN
                values.append(v)
            values = tuple(values)
            if defined:
                return UNKNOWN if budget <= 0 else self._unfold(name, values, budget)
            return _builtin_call(name, values)
        return atom

    def _unfold(self, name: str, args: tuple, budget: int) -> Truth:
        """A call on ground arguments: the predicate's definition, compiled
        on the first call and memoized on the arguments and the budget.

        Few lookups hit the memo (11 of 73 in one pass of the oracle-sweep
        benchmark at seed 1), but a call repeated for each value of another
        variable runs once: ``u(X, Y) <=> d(X) /\\ ~(Y = X)``, with ``d`` a
        forall over calls to a tree recursion, checks at depth 8 in 1.8 ms
        with the memo and 5.5 ms without (in process, best of 5, Python
        3.11 on a 2-vCPU VM)."""
        hit = self._definitions.get(name)
        if hit is None:
            definition, params = _description(self.ctx.predicates[name], self.side)
            hit = (params, self.compile(definition, frozenset(params)), {})
            self._definitions[name] = hit
        params, run, memo = hit
        if len(params) != len(args):
            raise UnknownPredicateError(
                f"{name} called with {len(args)} args, defined with {len(params)}")
        key = (args, budget)
        out = memo.get(key)
        if out is None:
            out = memo[key] = run(dict(zip(params, args)), budget - 1)
        return out

    # -- quantifier blocks ----------------------------------------------------

    def _quantifier(self, f, scope: frozenset):
        """The quantifier's block, memoized on the budget and the values of
        its free variables where such a key can recur.

        A quantifier whose free names cover the whole ``scope`` sees a new
        key on every evaluation, so it runs its block directly: the
        formulas at the top of a sweep or of ``check_agreement`` are
        evaluated once per binding, a definition once per arguments and
        budget (``_unfold`` memoizes the call), and a block's kernel once
        per value of the block's binders.  Any other quantifier is
        evaluated again for each value of the names it does not read, and
        keeps its memo, though few lookups hit it (2 of 6 in one pass of
        the oracle-sweep benchmark at seed 1): under a sweep of X and Y at
        depth 8, with ``fib`` a tree recursion, a closed ``forall Z: nat .
        q(Z) => fib(Z)`` conjoined with ``~(Y = X)`` checks in 1.5 ms with
        the memo and 3.2 ms without, and the partly free ``forall Z: nat .
        q(Z) => (fib(Z) \\/ X = Z)`` in 1.8 and 3.7 ms (measured as for
        ``_unfold``).
        """
        block = self._block(f, type(f), (), scope)
        free = sorted(ast.free_names(f))
        if scope <= set(free):
            return block
        memo: dict = {}

        def run(binding, budget):
            key = (budget, tuple([binding.get(n) for n in free]))
            out = memo.get(key)
            if out is None:
                out = memo[key] = block(binding, budget)
            return out
        return run

    def _block(self, kernel: Formula, cls, block: tuple, scope: frozenset):
        """A chain of ``cls`` quantifiers over ``block`` ((name, type) pairs)
        and a kernel, whose leading ``cls`` binders join the block, renamed
        away from the scope and the block.  A forall block runs as the Kleene
        negation of the exists block over ``_negated(kernel)``, and an exists
        block splits over a disjunction."""
        while isinstance(kernel, cls):
            name, body = kernel.var, kernel.body
            taken = scope | {n for n, _ in block}
            if name in taken:
                fresh = ast.fresh_name(name, set(taken | ast.all_names(body)))
                body = ast.rename_free(body, name, fresh)
                name = fresh
            block += ((name, kernel.type_name),)
            kernel = body
        if cls is Forall:
            run = self._block(_negated(kernel), Exists, block, scope)
            return lambda binding, budget: truth_not(run(binding, budget))
        if not all(self.ctx.types.inhabited(t, self.ctx.universe_depth) for _, t in block):
            return lambda binding, budget: FALSE  # an empty domain has no witness
        if isinstance(kernel, Or):
            return _junction([self._block(g, Exists, block, scope) for g in kernel.items], TRUE)
        return self._search(kernel, block, scope)

    def _search(self, kernel: Formula, block: tuple, scope: frozenset):
        """Enumerate the exists block's binders that occur in the kernel.  It
        first binds values that a mandatory equation forces, narrows a domain
        by the kernel's guards and pins, and refutes the block through a
        mandatory conjunct that is FALSE, checked at the first node with live
        binders whose binding covers it: a binder's value is checked before
        the binders after it are enumerated (forward checking), the last
        binder's by the kernel.  Every completion's kernel is FALSE there
        too, so no verdict changes."""
        names = {n for n, _ in block}
        scope = scope | names
        run_kernel = self.compile(kernel, scope)
        free = set(ast.free_names(kernel))
        live = tuple(n for n, _ in block if n in free)
        if not live:
            return run_kernel
        outer = tuple(free - names)
        types = dict(block)
        mandatory = list(_mandatory_conjuncts(kernel))
        solvers = [solve for solve in (self._solver(c, forbidden, types)
                                       for c, forbidden in mandatory) if solve is not None]
        # a binder's domain is built when the search first reaches it, the
        # refuters when the search first reaches a node with live binders,
        # and each refuter is compiled when a node first checks it
        domain = cache(lambda name: self._narrowed_domain(name, types[name], mandatory))

        @cache
        def refuters():
            return [(cache(partial(self.compile, c, scope | forbidden)), cvars)
                    for c, forbidden in mandatory
                    if not (cvars := frozenset(ast.free_names(c))) & forbidden]

        def search(live, binding, budget, new=None):
            # ``new``: the names bound since the last node that checked the
            # refuters, None before the first
            if not live:
                return run_kernel(binding, budget)
            for solve in solvers:
                forced = solve(binding, live)
                if forced is FALSE:
                    return FALSE
                if forced is not None:
                    return search(tuple(n for n in live if n not in forced),
                                  {**binding, **forced}, budget,
                                  None if new is None else (*new, *forced))
            for run, cvars in refuters():
                if (cvars <= binding.keys() and (new is None or not cvars.isdisjoint(new))
                        and run()(binding, budget) is FALSE):
                    return FALSE
            if any(n not in binding for n in outer):
                return UNKNOWN  # enumeration cannot settle an unbound outer variable
            name, rest = live[0], live[1:]
            result = FALSE
            for value in domain(name):
                v = search(rest, {**binding, name: value}, budget, (name,))
                if v is TRUE:
                    return TRUE
                if v is UNKNOWN:
                    result = UNKNOWN
            return result
        return lambda binding, budget: search(live, binding, budget)

    def _narrowed_domain(self, name: str, tname: str, mandatory: list) -> tuple:
        """The binder's domain: the values of ``tname`` that pass every guard
        and pin on it among an exists kernel's mandatory conjuncts
        (``_passing``, as the sweep narrows its variables)."""
        values = _passing(mandatory, name, self.ctx.types, self.ctx.universe_depth)
        if values is None:
            return self.universe(tname)
        return tuple(v for v in values if self.in_universe(tname, v))

    def _solver(self, c: Formula, forbidden: frozenset, types: dict):
        """``solve(binding, live)`` for a mandatory conjunct that may force
        values of live binders, or None for one that never does.

        Equations under nested existential conjuncts count as mandatory as
        long as they avoid the inner binders.  ``solve`` returns FALSE when
        the conjunct cannot hold inside the bounded universe, the forced
        values when it determines some, or None.
        """
        solve = BUILTINS.get(c.predicate, (None, ()))[1] if isinstance(c, Atom) else ()
        if any(solve) and len(c.args) == len(solve) and c.predicate not in self.ctx.predicates:
            if any(set(ast.term_vars(a)) & forbidden for a in c.args):
                return None
            args = [_term_value(a) for a in c.args]
            # the binder an open position names, if it is a bare variable
            targets = [a.name if isinstance(a, Var) else None for a in c.args]

            def solve_builtin(binding, live):
                values = [arg(binding) for arg in args]
                holes = [i for i, v in enumerate(values) if v is None]
                if len(holes) != 1:
                    return None
                hole = holes[0]
                target = targets[hole]
                if target not in live or solve[hole] is None:
                    return None
                solved = _builtin_solution(c.predicate, hole, values[:hole] + values[hole + 1:])
                if solved is _NOT_DETERMINED:
                    return None
                if solved is _NO_SOLUTION or solved not in INTEGER_RANGE:
                    # an integer outside the sample is in no type, and may
                    # have more digits than str() converts
                    return FALSE
                value = Struct(str(solved))
                if not self.in_universe(types[target], value):
                    return FALSE  # the only satisfying value is out of reach
                return {target: value}
            return solve_builtin
        if not isinstance(c, Eq) or \
                (set(ast.term_vars(c.left)) | set(ast.term_vars(c.right))) & forbidden:
            return None
        left, right = _term_value(c.left), _term_value(c.right)
        match_left, match_right = _term_matcher(c.left), _term_matcher(c.right)

        def solve_eq(binding, live):
            # a side with a value is matched against the other side as written:
            # equal values force nothing, different ones fail the match
            value = left(binding)
            if value is not None:
                match = match_right
            else:
                value = right(binding)
                if value is None:
                    return None
                match = match_left
            sol: dict = {}
            if not match(value, binding, sol):
                return FALSE
            forced = {k: v for k, v in sol.items() if k in live}
            for k, v in forced.items():
                # a witness must come from the enumerated domain itself
                if not self.in_universe(types[k], v):
                    return FALSE
            return forced or None
        return solve_eq


def evaluate(ctx: EvalContext, f: Formula, binding: Mapping[str, Term],
             side: str = TYPED) -> Truth:
    """Evaluate a formula under a ground binding of its free variables."""
    for name, value in binding.items():
        if not ast.ground(value):
            raise MissingBindingError(f"binding for {name} is not ground")
    missing = [n for n in ast.free_names(f) if n not in binding]
    if missing:
        raise MissingBindingError(f"no binding for variable {missing[0]}")
    run = _Evaluator(ctx, side=side).compile(f, frozenset(binding))
    return run(dict(binding), ctx.unfold_depth)


def evaluate_reference(ctx: EvalContext, f: Formula, binding: Mapping[str, Term],
                       side: str = TYPED, budget: int | None = None) -> Truth:
    """Naive enumeration-only evaluator; the oracle the fast one must agree with."""
    if budget is None:
        budget = ctx.unfold_depth

    def run(g: Formula, b: dict, k: int) -> Truth:
        if isinstance(g, TrueF):
            return TRUE
        if isinstance(g, FalseF):
            return FALSE
        if isinstance(g, Eq):
            return TRUE if ast.subst_term(g.left, b) == ast.subst_term(g.right, b) else FALSE
        if isinstance(g, Atom):
            args = tuple(ast.subst_term(a, b) for a in g.args)
            if len(args) == 1 and g.predicate in ctx.types:
                return TRUE if ctx.types.is_member(g.predicate, args[0]) else FALSE
            entry = ctx.predicates.get(g.predicate)
            if entry is not None:
                if k <= 0:
                    return UNKNOWN
                definition, params = _description(entry, side)
                if len(params) != len(args):
                    raise UnknownPredicateError(
                        f"{g.predicate} called with {len(args)} args, "
                        f"defined with {len(params)}")
                return run(definition, dict(zip(params, args)), k - 1)
            return _builtin_call(g.predicate, args)
        if isinstance(g, And):
            vs = [run(x, b, k) for x in g.items]
            if FALSE in vs:
                return FALSE
            return UNKNOWN if UNKNOWN in vs else TRUE
        if isinstance(g, Or):
            vs = [run(x, b, k) for x in g.items]
            if TRUE in vs:
                return TRUE
            return UNKNOWN if UNKNOWN in vs else FALSE
        if isinstance(g, Not):
            return truth_not(run(g.body, b, k))
        if isinstance(g, Implies):
            return run(Or((Not(g.left), g.right)), b, k)
        if isinstance(g, Iff):
            va, vb = run(g.left, b, k), run(g.right, b, k)
            if UNKNOWN in (va, vb):
                return UNKNOWN
            return TRUE if va is vb else FALSE
        if isinstance(g, (Exists, Forall)):
            vs = [run(g.body, {**b, g.var: value}, k)
                  for value in ctx.types.enumerate_type(g.type_name, ctx.universe_depth)]
            if isinstance(g, Exists):
                if TRUE in vs:
                    return TRUE
                return UNKNOWN if UNKNOWN in vs else FALSE
            if FALSE in vs:
                return FALSE
            return UNKNOWN if UNKNOWN in vs else TRUE
        raise TypeError(f"not a formula: {g!r}")

    return run(f, dict(binding), budget)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    """The counts of one equivalence check, filled in as the sweep runs."""

    depth: int
    total: int = 0
    outside: int = 0
    outside_false: int = 0
    inside: int = 0
    inside_agree: int = 0
    violations: int = 0
    inconclusive: int = 0
    first_violation: dict | None = None
    first_violation_kind: str | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def describe(self) -> str:
        lines = [
            f"depth {self.depth}: checked {self.total} bindings "
            f"({self.outside} outside the types, {self.inside} inside)",
            f"  outside-type bindings with the untyped formula false: {self.outside_false}",
            f"  inside-type bindings where both sides agree: {self.inside_agree}",
            f"  violations: {self.violations}, inconclusive: {self.inconclusive}",
        ]
        if self.first_violation is not None:
            pretty = ", ".join(f"{k} = {v!r}" for k, v in self.first_violation.items())
            lines.append(f"  first violation ({self.first_violation_kind}): {pretty}")
        return "\n".join(lines)


def _checked_freevars(freevars, f: Formula, g: Formula) -> list:
    """``freevars`` as a list, once it names every free name of f and g
    (else UnboundVariableError) and no name twice (else ValueError)."""
    freevars = list(freevars)
    if len(dict(freevars)) < len(freevars):
        raise ValueError(f"a free variable is listed twice in {freevars}")
    ast.free_variables(And((f, g)), dict(freevars))
    return freevars


class _Position(NamedTuple):
    """A variable of the equivalence sweep: its in-type values, and what the
    descent binds there while the untyped verdict is open and once it is
    decided, each as (values or None for the whole universe, the number of
    in-type values it counts in bulk instead)."""

    name: str
    ordered: list | None  # the in-type values in universe order, None for every value
    members: set | None  # the same as a set
    count: int  # their number
    open: tuple
    decided: tuple

    def inside(self, value) -> bool:
        return self.members is None or value in self.members


def check_equivalence(ctx: EvalContext, typed_f: Formula, untyped_f: Formula,
                      freevars, depth: int | None = None) -> EquivalenceReport:
    """Check the typed/untyped equivalence contract over the bounded universe.

    For every binding of the free variables over the term universe: if some
    variable falls outside its declared type the untyped formula must be
    false; inside the types both formulas must evaluate alike.  ``unknown``
    outcomes are reported as inconclusive, not as violations.  ``freevars``
    lists every free name of either formula once, with its type.

    Each formula has filters on a variable: its type guards and its pins
    (mandatory equations binding the variable to a ground term), false on
    every value they reject.  One descent binds one variable at a time, and
    counts a block of completions as soon as the verdicts on its prefix
    decide it; at each position it binds only the values that pass the
    filters of a formula still open, and counts the others in bulk, never
    evaluating them.  The universe's size and a ``term`` parameter's pool
    are counted; only a variable that no filter narrows enumerates the whole
    universe.  ``first_violation`` is the first violating binding in
    universe order: by the first variable's value, then the second's, and so
    on, each value ordered as ``iter_terms`` yields it.
    """
    if depth is not None:
        ctx = replace(ctx, universe_depth=depth)
    freevars = _checked_freevars(freevars, typed_f, untyped_f)
    names = [n for n, _ in freevars]
    n = len(names)
    scope = frozenset(names)
    run_t = _Evaluator(ctx, side=TYPED).compile(typed_f, scope)
    run_u = _Evaluator(ctx, side=UNTYPED).compile(untyped_f, scope)
    budget = ctx.unfold_depth
    types, depth = ctx.types, ctx.universe_depth
    U = types.count_terms(depth)
    first_term = next(types.iter_terms(depth))
    typed_mandatory = list(_mandatory_conjuncts(typed_f))
    untyped_mandatory = list(_mandatory_conjuncts(untyped_f))

    def in_universe_order(values) -> list:
        return sorted((v for v in values if types.bounded_member(UNIVERSAL_TYPE, v, depth)),
                      key=types.universe_key)

    positions = []
    for name, tname in freevars:
        if tname == UNIVERSAL_TYPE:
            ordered = members = None
            count = U
        else:
            ordered = in_universe_order(types.enumerate_type(tname, depth))
            members, count = set(ordered), len(ordered)
        pass_u = _passing(untyped_mandatory, name, types, depth)
        pass_t = _passing(typed_mandatory, name, types, depth)
        # the inside values passing the typed side's filters, None for all
        inside_t = (members if pass_t is None else set(pass_t) if members is None
                    else members.intersection(pass_t))
        decided = ordered if pass_t is None else in_universe_order(inside_t)
        if pass_u is None or inside_t is None:
            kept, kept_in = None, count  # the whole universe
        else:
            # an outside value must pass the untyped side's filters, an
            # inside one either side's
            kept = in_universe_order(inside_t.union(pass_u))
            kept_in = len(kept) if members is None else sum(v in members for v in kept)
        positions.append(_Position(name, ordered, members, count, (kept, count - kept_in),
                                   (decided, 0 if decided is None else count - len(decided))))
    # the number of completions at positions i and later inside the types
    inside_from = [math.prod(p.count for p in positions[i:]) for i in range(n + 1)]
    report = EquivalenceReport(depth=ctx.universe_depth)
    counts = vars(report)
    outside_kind = {FALSE: "outside_false", TRUE: "violations", UNKNOWN: "inconclusive"}

    def tally(k: int, region: str, kind: str):
        for count in ("total", region, kind):
            counts[count] += k

    def out_completion(i: int, binding: dict, all_in: bool) -> dict:
        """The first completion in universe order with a value outside its
        type: the first term everywhere if that is outside some type, else
        the first term everywhere but at the last position that has an
        outside value, which takes its first one; the universe is built
        only as far as that value."""
        out = {**binding, **dict.fromkeys(names[i:], first_term)}
        if all_in and all(p.inside(first_term) for p in positions[i:]):
            p = next(p for p in reversed(positions[i:]) if p.count < U)
            out[p.name] = next(v for v in types.iter_terms(depth) if not p.inside(v))
        return out

    def in_completion(i: int, binding: dict) -> dict:
        """The first completion in universe order with every value at
        positions i and later inside its type."""
        return {**binding, **{p.name: first_term if p.ordered is None else p.ordered[0]
                              for p in positions[i:]}}

    def earliest(a, b):
        """The first in universe order of two violations (binding, kind),
        either of them None."""
        if a is None or b is None:
            return a or b
        return min(a, b, key=lambda v: [types.universe_key(v[0][m]) for m in names])

    def descend(i: int, binding: dict, all_in: bool, ru):
        """Count the completions of ``binding`` at positions i and later,
        and return their first violation in universe order as (binding,
        kind), or None.  ``all_in`` tells whether the bound values lie in
        their types.  ``ru`` is the untyped verdict on ``binding``, or None
        while it is open; once it is decided, the outside completions are
        counted and only the inside ones are left."""
        # a verdict on a prefix holds on every completion
        first = None
        if ru is None:
            ru = run_u(binding, budget)
            if ru is UNKNOWN and i < n:
                ru = None
            else:
                rem_in = inside_from[i] if all_in else 0
                tally(U ** (n - i) - rem_in, "outside", outside_kind[ru])
                if ru is TRUE and U ** (n - i) > rem_in:
                    first = (out_completion(i, binding, all_in), "outside-true")
                if not rem_in:
                    return first
        rt = UNKNOWN if ru is None else run_t(binding, budget)
        if rt is not UNKNOWN or i == n:  # the untyped side is decided on a full binding
            kind = ("inconclusive" if UNKNOWN in (ru, rt)
                    else "inside_agree" if ru is rt else "violations")
            tally(inside_from[i], "inside", kind)
            if kind == "violations":
                first = earliest(first, (in_completion(i, binding), "inside-disagree"))
            return first
        # a value failing a side's filters makes that side false on every
        # completion (Kleene absorption): an inside value skipped while the
        # untyped side is open fails both sides' filters, one skipped once it
        # is decided fails the typed side's
        p = positions[i]
        values, skip_in = p.open if ru is None else p.decided
        rest_in = inside_from[i + 1] if all_in else 0
        tally(skip_in * rest_in, "inside", "violations" if ru is TRUE else "inside_agree")
        if ru is None and values is not None:
            # every other completion of a skipped value is outside the types
            tally((U - len(values)) * U ** (n - i - 1) - skip_in * rest_in,
                  "outside", "outside_false")
        elif skip_in and ru is TRUE:
            kept = set(values)
            pool = types.iter_terms(depth) if p.ordered is None else p.ordered
            value = next(v for v in pool if v not in kept)
            first = earliest(first, (in_completion(i + 1, {**binding, p.name: value}),
                                     "inside-disagree"))
        found = None
        # the universe is built only where a block enumerates it; it is
        # already in universe order
        for value in types.enumerate_type(UNIVERSAL_TYPE, depth) if values is None else values:
            binding[p.name] = value
            below = descend(i + 1, binding, all_in and p.inside(value), ru)
            found = found or below
        binding.pop(p.name, None)
        return earliest(first, found)

    found = descend(0, {}, True, None)
    if found is not None:
        report.first_violation, report.first_violation_kind = found
    return report


@dataclass
class AgreementReport:
    """The counts of one agreement check, filled in as the sweep runs."""

    depth: int
    total: int = 0
    agree: int = 0
    disagree: int = 0
    inconclusive: int = 0
    first_disagreement: dict | None = None

    @property
    def ok(self) -> bool:
        return self.disagree == 0


def check_agreement(ctx: EvalContext, f: Formula, g: Formula, freevars,
                    depth: int | None = None, side: str = TYPED) -> AgreementReport:
    """Compare two formulas on all bindings drawn from the declared types.
    ``freevars`` lists each free name of either formula once, with its type."""
    if depth is not None:
        ctx = replace(ctx, universe_depth=depth)
    freevars = _checked_freevars(freevars, f, g)
    names = [n for n, _ in freevars]
    ev = _Evaluator(ctx, side=side)
    run_f, run_g = ev.compile(f, frozenset(names)), ev.compile(g, frozenset(names))
    pools = [ctx.types.enumerate_type(t, ctx.universe_depth) for _, t in freevars]
    report = AgreementReport(depth=ctx.universe_depth)
    for combo in product(*pools):
        binding = dict(zip(names, combo))
        va = run_f(binding, ctx.unfold_depth)
        vb = run_g(binding, ctx.unfold_depth)
        report.total += 1
        if va is UNKNOWN or vb is UNKNOWN:
            report.inconclusive += 1
        elif va is vb:
            report.agree += 1
        else:
            report.disagree += 1
            if report.first_disagreement is None:
                report.first_disagreement = binding
    return report
