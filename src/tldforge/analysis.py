"""Directionality analysis over derived clauses.

Clause bodies are interpreted abstractly over the seven-mode domain:
unification propagates groundness, calls must match a declared directionality
of their callee, type checks run as tests (ground argument required), and
negation as failure requires fully ground arguments.  On top of the abstract
step sit literal reordering, redundant-check elimination, and determinism
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from . import ast
from .ast import Call, Clause, NafNot, Program, Struct, Term, TypeCheck, Unify, Var
from .errors import NotCallableError, UnknownCalleeError
from .modes import (Directionality, GROUND, Mode, Multiplicity, NOVAR,
                    Spec, VAR, bound_key)
from .printer import format_literal
from .typesys import Cases, TypeEnv

SPLIT_SUGGESTION = "generate separate versions of the procedure for each directionality"
RESPEC_SUGGESTION = "change the specification adapting the directionalities"


@dataclass(frozen=True)
class Registry:
    """Everything a body analysis needs to know about the outside world."""

    env: TypeEnv
    specs: Mapping[str, Spec]

    def spec_of(self, predicate: str) -> Spec:
        s = self.specs.get(predicate)
        if s is None:
            raise UnknownCalleeError(f"no specification for callee {predicate}")
        return s


@dataclass(frozen=True)
class AbstractState:
    # (name, Mode) pairs sorted by name in initial_state, an order abstract_step
    # keeps, so two states of one clause, whatever its body order, compare
    # equal exactly when their modes do
    modes: tuple

    @classmethod
    def make(cls, modes: dict):
        return cls(tuple(modes.items()))

    def mode_map(self) -> dict:
        return dict(self.modes)


def term_mode(modes: dict, t: Term) -> Mode:
    """The instantiation class a term is known to be in."""
    if isinstance(t, Var):
        m = modes.get(t.name)
        if m is None:
            raise NotCallableError(f"variable {t.name} is not in scope")
        return m
    names = ast.term_vars(t)
    if not names:
        return GROUND
    if all(modes[n] == GROUND for n in names if n in modes):
        if any(n not in modes for n in names):
            raise NotCallableError("variable out of scope in compound term")
        return GROUND
    return NOVAR  # a compound is never a free variable


def _unify_update(modes: dict, left: Term, right: Term):
    """Mode effects of a unification (always callable)."""
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
        x = left.name
        rnames = ast.term_vars(right)
        if modes[x] == GROUND:
            for n in rnames:
                modes[n] = GROUND
        else:
            possibly_nonvar = bool(modes[x].atoms & {"g", "n"})
            if possibly_nonvar:
                for n in rnames:
                    modes[n] = modes[n].instantiation_closure()
            all_ground = all(modes[n] == GROUND for n in rnames)
            modes[x] = GROUND if all_ground else NOVAR
        return
    # compound against compound: decompose when the shape agrees, otherwise
    # the literal can only fail and the state is unreachable on success
    if (isinstance(left, Struct) and isinstance(right, Struct)
            and left.functor == right.functor and left.arity == right.arity):
        for a, b in zip(left.args, right.args):
            _unify_update(modes, a, b)


def _pick_callee_dir(spec: Spec, arg_modes: list) -> Directionality:
    for d in spec.directionalities:
        if d.arity != len(arg_modes):
            continue
        if all(m.leq(m_in) for m, (m_in, _) in zip(arg_modes, d.modes)):
            return d
    wanted = ", ".join(m.name for m in arg_modes)
    raise NotCallableError(
        f"no directionality of {spec.name}/{spec.arity} accepts argument modes ({wanted})")


def abstract_step(state: AbstractState, lit, registry: Registry) -> AbstractState:
    """The post-state of one body literal, or NotCallableError."""
    modes = state.mode_map()
    if isinstance(lit, Unify):
        for n in ast.literal_vars(lit):
            if n not in modes:
                raise NotCallableError(f"variable {n} is not in scope")
        _unify_update(modes, lit.left, lit.right)
    elif isinstance(lit, Call):
        spec = registry.spec_of(lit.predicate)
        arg_modes = [term_mode(modes, a) for a in lit.args]
        d = _pick_callee_dir(spec, arg_modes)
        for arg, (_, m_out) in zip(lit.args, d.modes):
            if isinstance(arg, Var):
                modes[arg.name] = m_out
            elif m_out == GROUND:
                for n in ast.term_vars(arg):
                    modes[n] = GROUND
    elif isinstance(lit, TypeCheck):
        if term_mode(modes, lit.arg) != GROUND:
            raise NotCallableError(
                f"type checks run as tests: {lit.type_name}({lit.arg!r}) "
                "needs a ground argument")
    elif isinstance(lit, NafNot):
        for n in ast.literal_vars(lit):
            if modes.get(n) != GROUND:
                raise NotCallableError(
                    f"negation as failure needs ground arguments; {n} is not ground")
    else:
        raise TypeError(f"not a literal: {lit!r}")
    return AbstractState.make(modes)


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReorderFailure:
    predicate: str
    directionality: Directionality
    reason: str
    # what stopped the longest prefix the search reached: each unscheduled
    # literal with its position and why it was not callable, or else each
    # head parameter whose out-mode was not reached
    blocked: tuple = ()
    suggestions: tuple = (SPLIT_SUGGESTION, RESPEC_SUGGESTION)


def initial_state(clause: Clause, dir: Directionality) -> AbstractState:
    modes: dict = {}
    for arg, (m_in, _) in zip(clause.head_args, dir.modes):
        if isinstance(arg, Var):
            modes[arg.name] = m_in
    for lit in clause.body:
        for n in ast.literal_vars(lit):
            modes.setdefault(n, VAR)
    return AbstractState(tuple(sorted(modes.items())))


def _outs_satisfied(state: AbstractState, clause: Clause, dir: Directionality) -> bool:
    modes = state.mode_map()
    for arg, (_, m_out) in zip(clause.head_args, dir.modes):
        if isinstance(arg, Var) and not modes[arg.name].leq(m_out):
            return False
    return True


def reorder(clause: Clause, dir: Directionality, registry: Registry,
            pre_modes: list | None = None):
    """A body permutation executable under the directionality.

    Deterministic: greedily take the leftmost callable unscheduled literal,
    with full backtracking when the greedy run sticks, so the result is the
    lexicographically first executable permutation.  Subtrees already proven
    to fail are remembered by (state, unscheduled literals) and not searched
    again, which bounds the search by n * 2**n abstract steps when the state
    depends only on which literals ran.  Returns the reordered clause, or a
    ReorderFailure naming the clause and carrying the two standard
    suggestions (split per directionality, or respecify).  When
    ``pre_modes`` is given, it receives ``AbstractState.modes`` before each
    literal of the returned order.
    """
    body = clause.body
    failed: set = set()  # (state, remaining) pairs with no completion
    path: list = []  # (literal index, pre-state) of the literals scheduled so far
    deepest: list = [-1, None, ()]  # the longest prefix: length, state, remaining

    def search(state: AbstractState, remaining: tuple) -> bool:
        if len(path) > deepest[0]:
            deepest[:] = len(path), state, remaining
        if not remaining:
            return _outs_satisfied(state, clause, dir)
        for i in remaining:
            try:
                nxt = abstract_step(state, body[i], registry)
            except NotCallableError:
                continue
            rest = tuple(j for j in remaining if j != i)
            if failed and (nxt, rest) in failed:
                continue
            path.append((i, state))
            if search(nxt, rest):
                return True
            path.pop()
            failed.add((nxt, rest))
        return False

    if not search(initial_state(clause, dir), tuple(range(len(body)))):
        where = f" ({clause.provenance})" if clause.provenance else ""
        return ReorderFailure(clause.predicate, dir,
                              "no literal permutation satisfies the directionality"
                              + where, _blocked(clause, dir, registry, *deepest[1:]))
    if pre_modes is not None:
        pre_modes.extend(state.modes for _, state in path)
    return replace(clause, body=tuple(body[i] for i, _ in path))


def _blocked(clause: Clause, dir: Directionality, registry: Registry,
             state: AbstractState, remaining: tuple) -> tuple:
    """Why the search stopped at ``state`` with the literals ``remaining``
    unscheduled: none of them is callable there, or, when every literal
    ran, some head parameter misses its out-mode."""
    if not remaining:
        modes = state.mode_map()
        return tuple(f"every literal ran, but head parameter {arg.name} ends "
                     f"{modes[arg.name].name} where its out-mode is {m_out.name}"
                     for arg, (_, m_out) in zip(clause.head_args, dir.modes)
                     if isinstance(arg, Var) and not modes[arg.name].leq(m_out))
    out = []
    for i in remaining:
        lit = clause.body[i]
        try:
            abstract_step(state, lit, registry)
        except NotCallableError as e:
            where = f" at {lit.pos}" if lit.pos else ""
            out.append(f"{format_literal(lit)}{where} never became callable: {e}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Check elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovedCheck:
    clause_index: int
    position: int  # index in the clause body before removal
    literal: TypeCheck


@dataclass(frozen=True)
class EliminationResult:
    program: Program
    removed: tuple  # of RemovedCheck


def trusted_params(spec: Spec) -> dict:
    """Parameters whose In mode is ground in every declared directionality
    assume their declared type on entry."""
    out = {}
    if not spec.directionalities:
        return out
    for i, (p, t) in enumerate(zip(spec.params, spec.param_types)):
        if all(d.modes[i][0] == GROUND for d in spec.directionalities):
            out[p] = t
    return out


def eliminate_checks(prog: Program, spec: Spec, registry: Registry,
                     level: str = "paper-compat") -> EliminationResult:
    """Drop type checks already established at their body position.

    Facts arise from exactly three sources: trusted head parameters,
    constructor decomposition through a unification with a known-typed
    variable, and callee success.  Facts never flow across variable-variable
    unifications, and a kept check establishes nothing.
    """
    if level == "none":
        return EliminationResult(prog, ())
    if level != "paper-compat":
        raise ValueError(f"unknown elimination level: {level}")
    env = registry.env
    trusted = trusted_params(spec)
    clauses = []
    removed = []
    for ci, clause in enumerate(prog.clauses):
        facts: dict = {}

        def add_fact(name, tname):
            bucket = facts.setdefault(name, [])
            if tname not in bucket:
                bucket.append(tname)

        for arg in clause.head_args:
            if isinstance(arg, Var) and arg.name in trusted:
                add_fact(arg.name, trusted[arg.name])
        kept = []
        for pos, lit in enumerate(clause.body):
            if isinstance(lit, TypeCheck) and isinstance(lit.arg, Var):
                have = facts.get(lit.arg.name, [])
                if any(env.same_type(t, lit.type_name) for t in have):
                    removed.append(RemovedCheck(ci, pos, lit))
                    continue
                kept.append(lit)
                continue
            if isinstance(lit, Unify):
                var, other = None, None
                if isinstance(lit.left, Var) and isinstance(lit.right, Struct):
                    var, other = lit.left, lit.right
                elif isinstance(lit.right, Var) and isinstance(lit.left, Struct):
                    var, other = lit.right, lit.left
                if var is not None:
                    for tname in facts.get(var.name, []):
                        d = env.resolve(tname) if tname in env else None
                        if d is None or not isinstance(d.body, Cases):
                            continue
                        case = next((c for c in d.body.cases
                                     if c.functor == other.functor
                                     and c.arity == other.arity), None)
                        if case is None:
                            continue
                        for sub, comp in zip(other.args, case.components):
                            if isinstance(sub, Var):
                                add_fact(sub.name, comp)
            elif isinstance(lit, Call):
                callee = registry.specs.get(lit.predicate)
                if callee is not None:
                    for arg, ptype in zip(lit.args, callee.param_types):
                        if isinstance(arg, Var):
                            add_fact(arg.name, ptype)
            kept.append(lit)
        clauses.append(replace(clause, body=tuple(kept)))
    return EliminationResult(Program(prog.predicate, prog.arity, tuple(clauses)),
                             tuple(removed))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchInfo:
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
        functors = []
        for clause in prog.clauses:
            pos = None
            for k, lit in enumerate(clause.body):
                if isinstance(lit, Unify):
                    if (isinstance(lit.left, Var) and lit.left.name == name
                            and isinstance(lit.right, Struct)):
                        pos, f = k, (lit.right.functor, lit.right.arity)
                        break
                    if (isinstance(lit.right, Var) and lit.right.name == name
                            and isinstance(lit.left, Struct)):
                        pos, f = k, (lit.left.functor, lit.left.arity)
                        break
            if pos is None:
                break
            positions.append(pos)
            functors.append(f)
        else:
            cases = {(c.functor, c.arity) for c in d.body.cases}
            if len(set(functors)) == len(functors) and set(functors) == cases:
                return SwitchInfo(i, name, tuple(positions))
    return None


@dataclass(frozen=True)
class DeterminismResult:
    computed: Multiplicity
    declared: Multiplicity
    clause_mults: tuple
    switch: SwitchInfo | None

    @property
    def ok(self) -> bool:
        return self.computed.within(self.declared)


def _equal_to_trusted(clause: Clause, trusted: dict, env: TypeEnv,
                      var: str, tname: str) -> bool:
    """Is var linked by body equalities to a trusted input of that type?"""
    pairs = [(lit.left.name, lit.right.name) for lit in clause.body
             if isinstance(lit, Unify) and isinstance(lit.left, Var)
             and isinstance(lit.right, Var)]
    linked = {var}
    grown = True
    while grown:  # the names that variable-variable equalities link to var
        grown = False
        for a, b in pairs:
            if (a in linked) != (b in linked):
                linked |= {a, b}
                grown = True
    return any(p in linked and env.same_type(t, tname) for p, t in trusted.items())


def analyze_determinism(prog: Program, dir: Directionality, registry: Registry,
                        pre_modes: list) -> DeterminismResult:
    """Computed answer-count bounds for a reordered, eliminated program.

    ``pre_modes`` holds, per clause, the modes before each body literal, as
    recorded by ``reorder``.
    """
    spec = registry.spec_of(prog.predicate)
    env = registry.env
    switch = detect_switch(prog, dir, spec, env)
    trusted = trusted_params(spec)
    clause_mults = []
    for ci, clause in enumerate(prog.clauses):
        mult = Multiplicity(1, 1)
        for pos, lit in enumerate(clause.body):
            modes = dict(pre_modes[ci][pos])
            if switch is not None and pos == switch.positions[ci]:
                lm = Multiplicity(1, 1)  # a complete exclusive switch selects one branch
            elif isinstance(lit, Unify):
                lm = (Multiplicity(1, 1)
                      if term_mode(modes, lit.left) == VAR
                      or term_mode(modes, lit.right) == VAR
                      else Multiplicity(0, 1))
            elif isinstance(lit, Call):
                callee = registry.spec_of(lit.predicate)
                d = _pick_callee_dir(callee, [term_mode(modes, a) for a in lit.args])
                lm = d.mult
            elif isinstance(lit, TypeCheck):
                if (isinstance(lit.arg, Var)
                        and _equal_to_trusted(clause, trusted, env,
                                              lit.arg.name, lit.type_name)):
                    lm = Multiplicity(1, 1)
                else:
                    lm = Multiplicity(0, 1)
            else:  # NafNot
                lm = Multiplicity(0, 1)
            mult = mult.times(lm)
        clause_mults.append(mult)
    if not clause_mults:
        computed = Multiplicity(0, 0)
    elif switch is not None:
        computed = Multiplicity(
            min((m.min for m in clause_mults), key=bound_key),
            max((m.max for m in clause_mults), key=bound_key))
    else:
        computed = clause_mults[0]
        for m in clause_mults[1:]:
            computed = computed.plus(m)
    return DeterminismResult(computed, dir.mult, tuple(clause_mults), switch)


# ---------------------------------------------------------------------------
# Whole-procedure orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionResult:
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
    for d in spec.directionalities:
        ordered_clauses = []
        pre_modes = []
        failure = None
        for clause in prog.clauses:
            clause_modes: list = []
            out = reorder(clause, d, registry, clause_modes)
            if isinstance(out, ReorderFailure):
                failure = out
                break
            ordered_clauses.append(out)
            pre_modes.append(clause_modes)
        if failure is not None:
            results.append(DirectionResult(d, None, None, (), None, failure))
            continue
        ordered = Program(prog.predicate, prog.arity, tuple(ordered_clauses))
        elim = eliminate_checks(ordered, spec, registry, level)
        # a type check never changes modes, so dropping the removed checks'
        # entries leaves the eliminated clauses' pre-modes
        gone = {(rc.clause_index, rc.position) for rc in elim.removed}
        kept = [[m for pos, m in enumerate(clause_modes) if (ci, pos) not in gone]
                for ci, clause_modes in enumerate(pre_modes)]
        det = analyze_determinism(elim.program, d, registry, kept)
        results.append(DirectionResult(d, ordered, elim.program, elim.removed,
                                       det, None))
    return results
