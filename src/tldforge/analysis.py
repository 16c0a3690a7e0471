"""Directionality analysis over derived clauses.

Clause bodies are interpreted abstractly over the seven-mode domain:
unification propagates groundness, calls must match a declared directionality
of their callee, type checks run as tests (ground argument required), and
negation as failure requires fully ground arguments.  On top of the abstract
step sit literal reordering, redundant-check elimination, and determinism
analysis.  An analysis compiles each distinct literal's step once: the
step memoizes its post-modes and answer multiplicity per tuple of input
modes, and the reorder records the multiplicities the determinism analysis
multiplies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import Mapping, NamedTuple

from . import ast
from .ast import Call, Clause, NafNot, Program, Struct, Term, TypeCheck, Unify, Var
from .errors import NotCallableError, ReorderLimitError, UnknownCalleeError
from .modes import (Directionality, GROUND, Mode, Multiplicity, NOVAR,
                    Spec, VAR, bound_key)
from .printer import format_literal
from .typesys import Cases, TypeEnv

SPLIT_SUGGESTION = "generate separate versions of the procedure for each directionality"
RESPEC_SUGGESTION = "change the specification adapting the directionalities"

# the most (state, unscheduled literals) pairs without a completion that the
# search of one clause may meet; past it, the reorder stops with a
# ``reorder-limit`` error instead of searching on
MAX_REORDER_STEPS = 10000
# a literal with more variables is not tested for monotonicity, which runs
# its mode rule 2**n times
MAX_MONOTONE_VARS = 8


class Registry(NamedTuple):
    """Everything a body analysis needs to know about the outside world."""

    env: TypeEnv
    specs: Mapping[str, Spec]

    def spec_of(self, predicate: str) -> Spec:
        s = self.specs.get(predicate)
        if s is None:
            raise UnknownCalleeError(f"no specification for callee {predicate}")
        return s


class AbstractState(NamedTuple):
    """The mode of each clause variable at one point of a literal order."""

    # (name, Mode) pairs sorted by name in initial_state, an order abstract_step
    # keeps, so two states of one clause, whatever its body order, compare
    # equal exactly when their modes do
    modes: tuple

    @classmethod
    def make(cls, modes: dict):
        return cls(tuple(modes.items()))

    def mode_map(self) -> dict:
        return dict(self.modes)


D11 = Multiplicity(1, 1)
D01 = Multiplicity(0, 1)


def term_mode(modes: dict, t: Term) -> Mode:
    """The instantiation class a term is known to be in; every variable of
    ``t`` is in ``modes``."""
    if isinstance(t, Var):
        return modes[t.name]
    if t.is_ground or all(modes[n] == GROUND for n in ast.term_vars(t)):
        return GROUND
    return NOVAR  # a compound is never a free variable


def _instantiate(modes: dict, t: Struct, m: Mode):
    """Mode effects on the variables of a compound ``t`` that a literal
    leaves at mode ``m``: ground when ``m`` is, and, when ``m`` may be
    non-variable, whatever execution can instantiate them to."""
    if m == GROUND:
        for n in ast.term_vars(t):
            modes[n] = GROUND
    elif m.atoms & {"g", "n"}:
        for n in ast.term_vars(t):
            modes[n] = modes[n].instantiation_closure()


def _unify_update(modes: dict, left: Term, right: Term):
    """Mode effects of a unification that can run: not one of two free
    variables (see ``_mode_rule``)."""
    if isinstance(left, Var) and isinstance(right, Var):
        x, y = left.name, right.name
        if modes[x] == GROUND or modes[y] == GROUND:
            modes[x] = modes[y] = GROUND
        else:
            joined = modes[x].join(modes[y])
            modes[x] = modes[y] = joined
        return
    if isinstance(right, Var):
        left, right = right, left
    if isinstance(left, Var):
        _instantiate(modes, right, modes[left.name])
        modes[left.name] = term_mode(modes, right)
        return
    # compound against compound: decompose when the shape agrees, otherwise
    # the literal can only fail and the state is unreachable on success
    if (isinstance(left, Struct) and isinstance(right, Struct)
            and left.functor == right.functor and left.arity == right.arity):
        for a, b in zip(left.args, right.args):
            _unify_update(modes, a, b)


def _aliases_free(modes: dict, left: Term, right: Term) -> bool:
    """Whether a unification would unify two free variables, as its sides or
    where two compounds of one shape decompose: the modes cannot record the
    alias, so binding one of them later would leave the other at ``var``."""
    if isinstance(left, Var) and isinstance(right, Var):
        return modes[left.name] == VAR == modes[right.name]
    return (isinstance(left, Struct) and isinstance(right, Struct)
            and left.functor == right.functor and left.arity == right.arity
            and any(_aliases_free(modes, a, b) for a, b in zip(left.args, right.args)))


def _pick_callee_dir(spec: Spec, arg_modes: list) -> Directionality | None:
    # a loop, not all() over a generator: the monotonicity test runs this
    # up to 2**n times per call literal
    for d in spec.directionalities:
        if d.arity != len(arg_modes):
            continue
        for m, (m_in, _) in zip(arg_modes, d.modes):
            if not m.atoms <= m_in.atoms:
                break
        else:
            return d
    return None


def _mode_rule(lit, modes: dict, spec: Spec | None):
    """Run one literal's mode rule on ``modes``, which holds every variable
    of the literal and is updated in place; ``spec`` is a call's callee.

    Returns the literal's own answer multiplicity, for a call the callee
    directionality it picks, or, when the literal cannot run, a function
    giving the reason."""
    if isinstance(lit, Unify):
        if _aliases_free(modes, lit.left, lit.right):  # Mercury's rule
            return lambda: "a unification of two free variables would alias them"
        # a free variable on either side makes the unification succeed once
        free = any(isinstance(t, Var) and modes[t.name] == VAR
                   for t in (lit.left, lit.right))
        _unify_update(modes, lit.left, lit.right)
        return D11 if free else D01
    if isinstance(lit, Call):
        arg_modes = [term_mode(modes, a) for a in lit.args]
        d = _pick_callee_dir(spec, arg_modes)
        if d is None:
            wanted = ", ".join(m.name for m in arg_modes)
            return lambda: (f"no directionality of {spec.name}/{spec.arity} "
                            f"accepts argument modes ({wanted})")
        for arg, (_, m_out) in zip(lit.args, d.modes):
            if isinstance(arg, Var):
                modes[arg.name] = m_out
            else:
                _instantiate(modes, arg, m_out)
        return d
    if isinstance(lit, TypeCheck):
        if term_mode(modes, lit.arg) != GROUND:
            return lambda: (f"type checks run as tests: {format_literal(lit)} "
                            "needs a ground argument")
        return D01
    if isinstance(lit, NafNot):
        for n in ast.literal_vars(lit):
            if modes[n] != GROUND:
                return lambda: f"negation as failure needs ground arguments; {n} is not ground"
        return D01
    raise TypeError(f"not a literal: {lit!r}")


class _LiteralStep:
    """One literal's mode rule, compiled: its variables, its callee, the
    result for each tuple of their modes met so far, a call's pick there,
    and whether it is monotone, once asked."""

    __slots__ = ("lit", "names", "spec", "results", "picks", "monotone")

    def __init__(self, lit, registry: Registry):
        self.lit = lit
        self.names = ast.literal_vars(lit)
        self.spec = registry.spec_of(lit.predicate) if isinstance(lit, Call) else None
        # modes of ``names`` -> (post-modes, or None when unchanged,
        # multiplicity), or, when the literal cannot run, a function giving
        # the reason
        self.results: dict = {}
        self.picks: dict = {}  # modes of ``names`` -> the callee directionality's index
        self.monotone: bool | None = None

    def _run(self, local: tuple):
        """Run the mode rule at modes ``local`` of ``names`` and record the
        result, and the pick of a call that runs."""
        modes = dict(zip(self.names, local))
        out = _mode_rule(self.lit, modes, self.spec)
        if isinstance(out, Directionality):
            self.picks[local] = self.spec.directionalities.index(out)
            out = out.mult
        if isinstance(out, Multiplicity):
            post = tuple([modes[n] for n in self.names])
            out = (None if post == local else post, out)
        self.results[local] = out
        return out

    def apply(self, state: tuple, where: tuple):
        """(post-state, multiplicity) of the literal on a state, a mode per
        variable with the literal's variables at positions ``where``; None
        when the literal cannot run there."""
        local = tuple([state[i] for i in where])
        r = self.results.get(local) or self._run(local)
        if r.__class__ is not tuple:  # the literal cannot run
            return None
        post, mult = r
        if post is None:
            return state, mult
        new = list(state)
        for i, m in zip(where, post):
            new[i] = m
        return tuple(new), mult

    def why(self, state: tuple, where: tuple) -> str | None:
        """Why the literal cannot run on a state, as for ``apply``; None
        when it can."""
        if self.apply(state, where) is not None:
            return None
        return self.results[tuple([state[i] for i in where])]()

    def is_monotone(self) -> bool:
        """Whether, with every variable ground or var, (a) the literal runs
        at every raise of modes it runs at, and (b) its post-modes there are
        those at the lower modes, raised alike, all ground or var: its effect
        does not depend on when it runs.  Decided from the mode rule at the
        2**n mode tuples of its n variables, up to the first counterexample;
        more than MAX_MONOTONE_VARS variables count as not monotone."""
        if self.monotone is None:
            n = len(self.names)
            self.monotone = n <= MAX_MONOTONE_VARS and all(
                self._raised_alike(low) for low in itertools.product((GROUND, VAR), repeat=n))
        return self.monotone

    def _post(self, local: tuple):
        """The post-modes at modes ``local``, or None where the literal cannot run."""
        r = self.results.get(local) or self._run(local)
        return (r[0] or local) if r.__class__ is tuple else None

    def _raised_alike(self, low: tuple) -> bool:
        """(a) and (b) of ``is_monotone`` between modes ``low`` and each
        modes one variable above them.  The rest follows: both compose."""
        post = self._post(low)
        if post is None:
            return True
        if not all(p is GROUND or (p is VAR and m is VAR) for p, m in zip(post, low)):
            return False  # outside the fragment, or lower than before
        for i, m in enumerate(low):
            if m is VAR and self._post(low[:i] + (GROUND,) + low[i + 1:]) != \
                    post[:i] + (GROUND,) + post[i + 1:]:
                return False
        return True


def abstract_step(state: AbstractState, lit, registry: Registry) -> AbstractState:
    """The post-state of one body literal, or NotCallableError."""
    step = _LiteralStep(lit, registry)
    index = {n: i for i, (n, _) in enumerate(state.modes)}
    for n in step.names:
        if n not in index:
            raise NotCallableError(f"variable {n} is not in scope")
    modes = tuple(m for _, m in state.modes)
    where = tuple(index[n] for n in step.names)
    r = step.apply(modes, where)
    if r is None:
        raise NotCallableError(step.why(modes, where))
    return AbstractState(tuple(zip(index, r[0])))


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------

class ReorderFailure(NamedTuple):
    """Why a clause has no executable literal order for a directionality."""

    predicate: str
    directionality: Directionality
    reason: str
    # what stopped the longest prefix the search reached: each unscheduled
    # literal with its position and why it was not callable, or else each
    # head parameter whose out-mode was not reached
    blocked: tuple = ()
    suggestions: tuple = (SPLIT_SUGGESTION, RESPEC_SUGGESTION)


def _start_modes(clause: Clause, dir: Directionality, literal_names) -> dict:
    """Head parameters at their in-modes, other variables free; the body
    literals' variables are given as ``literal_names``."""
    modes: dict = {}
    for arg, (m_in, _) in zip(clause.head_args, dir.modes):
        if isinstance(arg, Var):
            modes[arg.name] = m_in
    for names in literal_names:
        for n in names:
            modes.setdefault(n, VAR)
    return modes


def initial_state(clause: Clause, dir: Directionality) -> AbstractState:
    modes = _start_modes(clause, dir, map(ast.literal_vars, clause.body))
    return AbstractState(tuple(sorted(modes.items())))


def _missed_outs(modes: dict, clause: Clause, dir: Directionality) -> list:
    """(name, out-mode) of each head parameter whose mode in ``modes``
    misses its out-mode."""
    return [(arg.name, m_out) for arg, (_, m_out) in zip(clause.head_args, dir.modes)
            if isinstance(arg, Var) and not modes[arg.name].leq(m_out)]


def _outs_satisfied(state: AbstractState, clause: Clause, dir: Directionality) -> bool:
    return not _missed_outs(state.mode_map(), clause, dir)


def _bind(clause: Clause, dir: Directionality, registry: Registry, steps: dict) -> tuple:
    """The clause's variable names in initial_state's order, their modes
    there, and each body literal's compiled step from ``steps`` with the
    positions of the literal's variables among those names."""
    compiled = []
    for lit in clause.body:
        step = steps.get(lit)
        if step is None:
            step = steps[lit] = _LiteralStep(lit, registry)
        compiled.append(step)
    modes = _start_modes(clause, dir, (c.names for c in compiled))
    names = sorted(modes)
    index = {n: i for i, n in enumerate(names)}
    bound = [(c, tuple([index[n] for n in c.names])) for c in compiled]
    return names, tuple(modes[n] for n in names), bound


def run_as_written(clause: Clause, dir: Directionality, registry: Registry,
                   steps: dict | None = None) -> list | None:
    """Per body literal, in the written order, the index of the callee
    directionality a call picks there, None for any other literal; None
    instead of the list unless the body runs in that order under the
    directionality and ends with every head parameter within its out-mode.
    ``steps`` is as for ``reorder``."""
    names, state, bound = _bind(clause, dir, registry, {} if steps is None else steps)
    picks = []
    for step, where in bound:
        r = step.apply(state, where)
        if r is None:
            return None
        picks.append(step.picks.get(tuple([state[i] for i in where])))
        state = r[0]
    return picks if _outs_satisfied(AbstractState(tuple(zip(names, state))),
                                    clause, dir) else None


def reorder(clause: Clause, dir: Directionality, registry: Registry,
            mults: list | None = None, steps: dict | None = None):
    """The lexicographically first body permutation executable under the
    directionality, found by one depth-first search that tries the
    unscheduled literals leftmost first.

    Its first descent is the greedy pass: it runs the leftmost callable
    literal until none is left or none can run, in at most n**2 literal
    applications, and an order that needs no backtracking ends there.  At
    the first dead end, a monotone clause has no order, and the pass's
    stuck state is the deepest prefix of any order: every head in-mode is
    ground or var and every literal is monotone
    (``_LiteralStep.is_monotone``), so no order reaches a state the pass
    did not, and every order that runs every literal ends where the pass
    did.  Any other clause backtracks from there, remembering the (state,
    unscheduled literals) pairs proven to have no completion; past
    MAX_REORDER_STEPS of them it raises ReorderLimitError, naming the
    literals that are not monotone.  The search keeps its path on an
    explicit stack, so its depth does not depend on Python's recursion
    limit.

    Returns the reordered clause, or a ReorderFailure naming the clause and
    carrying the two standard suggestions (split per directionality, or
    respecify).  When ``mults`` is given, it receives the answer
    multiplicity of each literal of the returned order at its place there.
    ``steps`` maps each literal to its compiled mode step; the reorders of
    one analysis share it.
    """
    body = clause.body
    names, start, bound = _bind(clause, dir, registry, {} if steps is None else steps)
    state, remaining, k = start, list(range(len(body))), 0
    # (literal index, multiplicity, state before it, its place in remaining)
    # of the literals scheduled so far
    path: list = []
    failed: set = set()  # (state, remaining) pairs with no completion
    deepest = None  # the longest prefix's length, state and remaining, once a dead end is met
    while remaining or not _outs_satisfied(AbstractState(tuple(zip(names, state))), clause, dir):
        for k in range(k, len(remaining)):
            step, where = bound[remaining[k]]
            r = step.apply(state, where)
            if r is not None and not (
                    failed and (r[0], tuple(remaining[:k] + remaining[k + 1:])) in failed):
                break
        else:  # a dead end
            which = f" ({clause.provenance})" if clause.provenance else ""
            if deepest is None:  # the first, where the greedy pass stops
                deepest = len(path), state, tuple(remaining)
                # with no literal to undo, or in a monotone clause, there
                # is no order: the saturation verdict
                backtracks = bool(path) and any(_non_monotone(clause, start, bound))
            if not (backtracks and path):
                return ReorderFailure(clause.predicate, dir,
                                      "no literal permutation satisfies the directionality"
                                      + which, _blocked(clause, dir, names, bound, *deepest[1:]))
            failed.add((state, tuple(remaining)))
            if len(failed) > MAX_REORDER_STEPS:
                raise ReorderLimitError(
                    f"reorder-limit: the clause of {clause.predicate}{which} has no "
                    f"literal order for {dir} within {MAX_REORDER_STEPS} dead ends of "
                    "the search; it is searched because these are not monotone: "
                    + ", ".join(_non_monotone(clause, start, bound)))
            i, _, state, k = path.pop()
            remaining.insert(k, i)
            k += 1
            continue
        path.append((remaining.pop(k), r[1], state, k))
        state, k = r[0], 0
        if deepest is not None and len(path) > deepest[0]:
            deepest = len(path), state, tuple(remaining)
    if mults is not None:
        mults.extend(m for _, m, _, _ in path)
    return replace(clause, body=tuple(body[i] for i, _, _, _ in path))


def _non_monotone(clause: Clause, start: tuple, bound: list):
    """What keeps a clause from being monotone, lazily: its head in-modes
    unless each is ground or var, then each literal that is not monotone,
    with its position.  ``start`` and ``bound`` are as ``_bind`` gives them."""
    if not all(m is GROUND or m is VAR for m in start):
        yield "the head in-modes"
    for lit, (step, _) in zip(clause.body, bound):
        if not step.is_monotone():
            yield f"{format_literal(lit)}{f' at {lit.pos}' if lit.pos else ''}"


def _blocked(clause: Clause, dir: Directionality, names: list, bound: list,
             state: tuple, remaining: tuple) -> tuple:
    """Why the search stopped at ``state``, a mode per name of ``names``,
    with the literals ``remaining`` unscheduled: none of them is callable
    there, or, when every literal ran, some head parameter misses its
    out-mode.  ``bound`` is as ``_bind`` gives it."""
    if not remaining:
        modes = dict(zip(names, state))
        return tuple(f"every literal ran, but head parameter {n} ends "
                     f"{modes[n].name} where its out-mode is {m_out.name}"
                     for n, m_out in _missed_outs(modes, clause, dir))
    out = []
    for i in remaining:
        why = bound[i][0].why(state, bound[i][1])
        if why is not None:
            lit = clause.body[i]
            where = f" at {lit.pos}" if lit.pos else ""
            out.append(f"{format_literal(lit)}{where} never became callable: {why}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Check elimination
# ---------------------------------------------------------------------------

class RemovedCheck(NamedTuple):
    """A type check that check elimination took out of a clause body."""

    clause_index: int
    position: int  # index in the clause body before removal
    literal: TypeCheck


class EliminationResult(NamedTuple):
    """A program with its redundant checks removed, and what was removed."""

    program: Program
    removed: tuple  # of RemovedCheck


def trusted_params(spec: Spec) -> dict:
    """Parameters whose In mode is ground in every declared directionality
    assume their declared type on entry."""
    return {p: t for i, (p, t) in enumerate(zip(spec.params, spec.param_types))
            if spec.directionalities
            and all(d.modes[i][0] == GROUND for d in spec.directionalities)}


def _bound_struct(lit):
    """(variable, constructor term) of a unification of the two, else None."""
    if isinstance(lit, Unify):
        for var, term in ((lit.left, lit.right), (lit.right, lit.left)):
            if isinstance(var, Var) and isinstance(term, Struct):
                return var, term
    return None


def _built_of(env: TypeEnv, tname: str, t: Term, types) -> bool:
    """Whether every ground instance of ``t`` is in type ``tname`` given
    ``types``, the types a variable is known to have: a ground member, or
    built by a case of the type whose arguments are built of the case's
    component types."""
    if isinstance(t, Var):
        return any(env.same_type(f, tname) for f in types(t.name))
    if t.is_ground:
        return tname in env and env.ground_member(tname, t)
    return any(all(_built_of(env, c, a, types) for c, a in zip(case.components, t.args))
               for case in env.cases_of(tname, t))


def proved_checks(clause: Clause, registry: Registry, given: Mapping[str, str],
                  links: bool) -> set:
    """The positions of the checks ``t(V)`` in the body that the facts
    before them prove, ``V`` or a constructor term ``V`` was unified with
    being built of ``t`` (``_built_of``).  One forward pass learns each
    variable's types from ``given`` (head parameter -> type), callee success,
    constructor decomposition through nested cases where the term's functor
    picks one case of its type, checks that ran and,
    with ``links``, variable-variable unifications, which merge the two
    variables' classes of shared facts and terms."""
    env, specs = registry
    facts = {n: {t: None} for n, t in given.items()}  # variable -> its types, as keys
    terms: dict = {}  # variable -> the constructor terms it was unified with
    classes: dict = {}  # variable -> its class, a list its members share

    def known(table: dict, name: str):  # a list when name has class-mates
        return [x for n in classes[name] for x in table.get(n, ())] \
            if name in classes else table.get(name, ())

    types = functools.partial(known, facts)

    def learn(t: Term, tname: str):
        if t.__class__ is not Var:
            cases = env.cases_of(tname, t)
            for sub, comp in zip(t.args, cases[0].components if len(cases) == 1 else ()):
                learn(sub, comp)
        elif tname not in (own := facts.setdefault(t.name, {})):
            own[tname] = None
            if terms:  # the class's constructor terms are built of its new type
                for term in known(terms, t.name):
                    learn(term, tname)

    proved = set()
    for pos, lit in enumerate(clause.body):
        if lit.__class__ is Call:
            callee = specs.get(lit.predicate)
            for arg, ptype in zip(lit.args, callee.param_types if callee else ()):
                if not arg.is_ground:
                    learn(arg, ptype)
        elif lit.__class__ is TypeCheck and lit.arg.__class__ is Var:
            if _built_of(env, lit.type_name, lit.arg, types) or any(
                    _built_of(env, lit.type_name, t, types) for t in known(terms, lit.arg.name)):
                proved.add(pos)
            learn(lit.arg, lit.type_name)
        elif (bound := _bound_struct(lit)) is not None:
            var, term = bound
            terms.setdefault(var.name, []).append(term)
            for tname in list(types(var.name)):
                learn(term, tname)
        elif links and lit.__class__ is Unify and lit.right.__class__ is Var:
            # two variables, since _bound_struct found no constructor term
            a, b = (classes.get(n, [n]) for n in (lit.left.name, lit.right.name))
            if a is not b:
                a += b
                classes.update(dict.fromkeys(a, a))
                for tname in list(types(a[0])):  # the merged types, on the merged terms
                    for term in known(terms, a[0]):
                        learn(term, tname)
    return proved


def eliminate_checks(prog: Program, spec: Spec, registry: Registry,
                     level: str = "paper-compat") -> EliminationResult:
    """Drop type checks already established at their body position.

    ``paper-compat`` removes what ``proved_checks`` proves from trusted
    parameters without variable-variable links; no directionality's own
    in-types count, since one program serves all of them unless
    ``--split`` is given.  ``none`` keeps every check."""
    if level == "none":
        return EliminationResult(prog, ())
    if level != "paper-compat":
        raise ValueError(f"unknown elimination level: {level}")
    trusted = trusted_params(spec)
    clauses, removed = [], []
    for ci, clause in enumerate(prog.clauses):
        gone = proved_checks(clause, registry, trusted, links=False)
        removed.extend(RemovedCheck(ci, pos, clause.body[pos]) for pos in sorted(gone))
        clauses.append(replace(clause, body=tuple(
            lit for pos, lit in enumerate(clause.body) if pos not in gone)))
    return EliminationResult(Program(prog.predicate, prog.arity, tuple(clauses)),
                             tuple(removed))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class SwitchInfo(NamedTuple):
    """A ground-In parameter on whose constructor cases the clauses switch."""

    param_index: int
    param_name: str
    positions: tuple  # discriminating literal index per clause


def detect_switch(prog: Program, dir: Directionality, spec: Spec,
                  env: TypeEnv) -> SwitchInfo | None:
    """Clauses discriminating on distinct constructor cases of one ground-In
    parameter whose cases cover its type."""
    if not prog.clauses:
        return None
    for i, (m_in, _) in enumerate(dir.modes):
        if m_in != GROUND:
            continue
        if spec.param_types[i] not in env:
            continue
        d = env.resolve(spec.param_types[i])
        if not isinstance(d.body, Cases):
            continue
        head_var = prog.clauses[0].head_args[i]
        if not isinstance(head_var, Var):
            continue
        name = head_var.name
        positions = []
        functors = set()
        for clause in prog.clauses:
            for k, lit in enumerate(clause.body):
                bound = _bound_struct(lit)
                if bound is not None and bound[0].name == name:
                    positions.append(k)
                    functors.add((bound[1].functor, bound[1].arity))
                    break
            else:
                break
        else:
            if len(functors) == len(positions) and functors == {
                    (c.functor, c.arity) for c in d.body.cases}:
                return SwitchInfo(i, name, tuple(positions))
    return None


class DeterminismResult(NamedTuple):
    """A directionality's computed multiplicity against its declared one."""

    computed: Multiplicity
    declared: Multiplicity
    switch: SwitchInfo | None

    @property
    def ok(self) -> bool:
        return self.computed.within(self.declared)


def analyze_determinism(prog: Program, dir: Directionality, registry: Registry,
                        mults: list) -> DeterminismResult:
    """Computed answer-count bounds for a reordered, eliminated program.

    ``mults`` holds, per clause, each body literal's answer multiplicity,
    as ``reorder`` recorded it.  A complete switch's discriminating literal
    counts <1-1> instead, and so does a check that ``proved_checks`` proves
    from this directionality's ground in-parameters, reading every fact
    source: the count is over the inputs that meet the in-types."""
    spec = registry.spec_of(prog.predicate)
    switch = detect_switch(prog, dir, spec, registry.env)
    in_types = {p: t for p, t, (m_in, _) in zip(spec.params, spec.param_types, dir.modes)
                if m_in == GROUND}
    clause_mults = []
    for ci, clause in enumerate(prog.clauses):
        mult, checks = D11, set()
        for pos, (lit, lm) in enumerate(zip(clause.body, mults[ci], strict=True)):
            if switch is not None and pos == switch.positions[ci]:
                lm = D11  # a complete exclusive switch selects one branch
            elif lit.__class__ is TypeCheck and lit.arg.__class__ is Var:
                checks.add(pos)  # a test, <0-1>: multiplied in below
                continue
            mult = mult.times(lm)
        # the checks count <1-1> when all are proved, which can only raise a
        # lower bound that the other literals leave above 0
        if checks and (mult.min == 0 or not checks <= proved_checks(
                clause, registry, in_types, links=True)):
            mult = mult.times(D01)
        clause_mults.append(mult)
    if switch is not None:
        computed = Multiplicity(
            min((m.min for m in clause_mults), key=bound_key),
            max((m.max for m in clause_mults), key=bound_key))
    else:
        computed = functools.reduce(Multiplicity.plus, clause_mults, Multiplicity(0, 0))
    return DeterminismResult(computed, dir.mult, switch)


# ---------------------------------------------------------------------------
# Whole-procedure orchestration
# ---------------------------------------------------------------------------

class DirectionResult(NamedTuple):
    """What reorder, check elimination and determinism gave for one directionality."""

    directionality: Directionality
    ordered: Program | None
    eliminated: Program | None
    removed: tuple
    determinism: DeterminismResult | None
    failure: ReorderFailure | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def analyze_procedure(prog: Program, spec: Spec, registry: Registry,
                      level: str = "paper-compat") -> list[DirectionResult]:
    """Reorder, eliminate and measure determinism per directionality."""
    results = []
    steps: dict = {}  # each distinct literal's compiled mode step, for this call only
    for d in spec.directionalities:
        ordered_clauses = []
        mults = []
        failure = None
        for clause in prog.clauses:
            clause_mults: list = []
            out = reorder(clause, d, registry, clause_mults, steps)
            if isinstance(out, ReorderFailure):
                failure = out
                break
            ordered_clauses.append(out)
            mults.append(clause_mults)
        if failure is not None:
            results.append(DirectionResult(d, None, None, (), None, failure))
            continue
        ordered = Program(prog.predicate, prog.arity, tuple(ordered_clauses))
        elim = eliminate_checks(ordered, spec, registry, level)
        gone = {(rc.clause_index, rc.position) for rc in elim.removed}
        kept = [[m for pos, m in enumerate(clause_mults) if (ci, pos) not in gone]
                for ci, clause_mults in enumerate(mults)]
        det = analyze_determinism(elim.program, d, registry, kept)
        results.append(DirectionResult(d, ordered, elim.program, elim.removed,
                                       det, None))
    return results
