"""Prolog and Mercury emission from analyzed programs.

Prolog gets flattened arithmetic (nested arithmetic functors become fresh
variables defined by builtin calls) and optional cut introduction when a
complete exclusive switch was verified.  Mercury is printed straight from
the typed description: pred/mode declarations follow the fixed
mode/determinism correspondence tables, bodies keep functional arithmetic
inline, and no type-check literals appear.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ast
from .ast import (And, Atom, Call, Clause, Eq, Exists, Forall, Iff, Implies,
                  Not, Or, Program, Struct, Term, TypedLogicDescription, Var)
from .analysis import Registry, SPLIT_SUGGESTION, run_as_written
from .analysis import abstract_step  # noqa: F401  perfbench's tracer counts calls here
from .errors import MultipleOrdersError, NotDerivableError
from .modes import Directionality, GROUND, INF, Mode, Multiplicity, Spec, STAR, VAR
from .printer import format_clause, format_term

ARITHMETIC_BUILTINS = {"+": "plus", "-": "minus", "*": "times"}

# constants the Mercury backend rewrites into goals producing a fresh variable
MERCURY_CONSTANT_GOALS = {"-infinite": "min_int"}


# ---------------------------------------------------------------------------
# Arithmetic flattening
# ---------------------------------------------------------------------------

def _fresh_arith_names(used: set):
    k = 1
    while True:
        name = f"A{k}"
        k += 1
        if name not in used:
            used.add(name)
            yield name


def _has_arithmetic(t: Term) -> bool:
    return isinstance(t, Struct) and (
        (t.functor in ARITHMETIC_BUILTINS and t.arity == 2)
        or any(_has_arithmetic(a) for a in t.args))


def flatten_arithmetic(clause: Clause) -> Clause:
    """Replace nested arithmetic functors by fresh variables defined by
    builtin calls inserted before their first use; syntactically identical
    subterms share one variable.  A clause without any comes back as is."""
    if not any(_has_arithmetic(t) for lit in clause.body for t in ast.literal_terms(lit)):
        return clause
    used = set()
    for t in clause.head_args:
        used.update(ast.term_vars(t))
    for lit in clause.body:
        used.update(ast.literal_vars(lit))
    names = _fresh_arith_names(used)
    memo: dict = {}
    out: list = []

    def flat(t: Term, prelude: list, pos) -> Term:
        if isinstance(t, Var) or not t.args:
            return t
        args = tuple(flat(a, prelude, pos) for a in t.args)
        rebuilt = Struct(t.functor, args)
        if t.functor in ARITHMETIC_BUILTINS and t.arity == 2:
            hit = memo.get(rebuilt)
            if hit is None:
                hit = next(names)
                memo[rebuilt] = hit
                prelude.append(Call(ARITHMETIC_BUILTINS[t.functor],
                                    (args[0], args[1], Var(hit)), pos))
            return Var(hit)
        return rebuilt

    for lit in clause.body:
        prelude: list = []
        lit2 = ast.map_literal_terms(lit, lambda t: flat(t, prelude, lit.pos))
        out.extend(prelude)
        out.append(lit2)
    return clause._replace(body=tuple(out))


def flatten_program(prog: Program) -> Program:
    return Program(prog.predicate, prog.arity,
                   tuple(flatten_arithmetic(c) for c in prog.clauses))


# ---------------------------------------------------------------------------
# Multiplicity <-> Mercury determinism
# ---------------------------------------------------------------------------

_DET_ROWS = (
    ("det", ((1, 1),)),
    ("semidet", ((0, 1),)),
    ("nondet", ((0, STAR), (0, INF))),
    ("multi", ((1, STAR), (1, INF), (STAR, STAR))),
    ("failure", ((0, 0),)),
    ("erroneous", ((1, 0),)),
)

_EXACT = {pair: name for name, pairs in _DET_ROWS for pair in pairs}
_CANONICAL = {name: pairs[0] for name, pairs in _DET_ROWS}


class DeterminismMapping(NamedTuple):
    """A multiplicity's Mercury determinism name, and the interval it was widened to."""

    name: str
    widened: Multiplicity | None = None  # set when the input had no exact row


def mult_to_mercury_determinism(m: Multiplicity) -> DeterminismMapping:
    """The fixed table, with conservative widening for other intervals:
    try (Min,Max), then (0,Max), then (Min,inf), then (0,inf)."""
    exact = _EXACT.get((m.min, m.max))
    if exact is not None:
        return DeterminismMapping(exact)
    for lo, hi in ((0, m.max), (m.min, INF), (0, INF)):
        name = _EXACT.get((lo, hi))
        if name is not None:
            return DeterminismMapping(name, Multiplicity(lo, hi))
    raise ValueError(f"unmappable multiplicity {m}")


def mercury_determinism_to_multiplicity(name: str) -> Multiplicity:
    pair = _CANONICAL.get(name)
    if pair is None:
        raise ValueError(f"unknown determinism name {name!r}")
    return Multiplicity(*pair)


def determinism_class(name: str) -> tuple:
    for n, pairs in _DET_ROWS:
        if n == name:
            return tuple(Multiplicity(*p) for p in pairs)
    raise ValueError(f"unknown determinism name {name!r}")


# mode correspondence, both directions
def mode_to_mercury(m_in: Mode, m_out: Mode) -> str:
    if (m_in, m_out) == (GROUND, GROUND):
        return "in"
    if (m_in, m_out) == (VAR, GROUND):
        return "out"
    return f"m_{m_in.name}_{m_out.name}"  # user-defined mode stub


MERCURY_MODE_TO_DIRECTION = {
    "in": (GROUND, GROUND),
    "out": (VAR, GROUND),
    "di": (GROUND, GROUND),
    "uo": (VAR, GROUND),
}


# ---------------------------------------------------------------------------
# Prolog emission
# ---------------------------------------------------------------------------

def check_order_compatibility(spec: Spec, registry: Registry, dir_programs: list,
                              emitted_dir_index: int) -> list[int]:
    """Indices of declared directionalities that cannot execute the emitted
    literal order.

    ``dir_programs`` holds each directionality's own analysed program; one
    identical to the emitted program is executable under its directionality
    and is not walked again.
    """
    prog = dir_programs[emitted_dir_index]
    steps: dict = {}
    return [k for k, d in enumerate(spec.directionalities)
            if dir_programs[k] != prog
            and any(run_as_written(c, d, registry, steps) is None for c in prog.clauses)]


def _version_name(name: str, k: int, dir_index: int) -> str:
    """The name of directionality ``k``'s version of a procedure with more
    than one: unsuffixed for ``dir_index``, ``name__dK`` for directionality
    K otherwise."""
    return name if k == dir_index else f"{name}__d{k + 1}"


def _versioned_calls(clause: Clause, dir: Directionality, registry: Registry,
                     versioned: set, dir_index: int) -> Clause:
    """The clause, which runs as written under ``dir``, with each call to a
    procedure in ``versioned`` naming the version of the callee
    directionality its compiled mode step picks."""
    body = list(clause.body)
    for i, k in enumerate(run_as_written(clause, dir, registry)):
        if k is not None and body[i].predicate in versioned:
            body[i] = body[i]._replace(predicate=_version_name(body[i].predicate, k, dir_index))
    return clause._replace(body=tuple(body))


def emit_prolog(spec: Spec, analysis: list, registry: Registry,
                dir_index: int = 0, cuts: bool = False,
                split: bool = False, described=()) -> str:
    """Clause text for one directionality's analysed program (the first by
    default), read from ``analysis``, the per-directionality results of
    ``analyze_procedure``, none of them failed.

    With ``cuts``, a cut follows the discriminating literal of the switch
    the determinism analysis verified.  With multiple inconsistent
    directionalities and no ``split``, this raises MultipleOrdersError; with
    ``split``, the other directionalities become suffixed procedures, each
    with its own cuts, and a call to the procedure itself or to one of
    ``described`` (the procedures emitted from descriptions) with more
    than one directionality names the version of the directionality it
    picks.  A procedure with ``dir_index`` past its directionalities is
    emitted, under ``split``, as every version its callers name: its only
    one unsuffixed, or each suffixed.
    """
    dir_programs = [r.eliminated for r in analysis]
    n = len(dir_programs)
    if n > 1 and not split:
        bad = check_order_compatibility(spec, registry, dir_programs, dir_index)
        if bad:
            which = ", ".join(
                f"{d} at {d.pos}" if d.pos else str(d)
                for d in (spec.directionalities[k] for k in bad))
            raise MultipleOrdersError(
                f"{spec.name}: the emitted literal order does not satisfy "
                f"directionality {which}; {SPLIT_SUGGESTION}")
    chunks: list[str] = []
    versioned = {n for n in (spec.name, *described) if split and n in registry.specs
                 and len(registry.specs[n].directionalities) > 1}

    def emit_one(k: int, name: str):
        p = dir_programs[k]
        if not p.clauses:
            # a clause that fails, so that a call fails instead of raising
            # an existence error
            head = f"{name}({', '.join(['_'] * p.arity)})" if p.arity else name
            chunks.extend([f"% {name}/{p.arity} has no clauses: "
                           "the definition is unsatisfiable.", f"{head} :- fail.", ""])
            return
        sw = analysis[k].determinism.switch if cuts else None
        for i, clause in enumerate(p.clauses):
            if versioned:
                clause = _versioned_calls(clause, analysis[k].directionality, registry,
                                          versioned, dir_index)
            cut_at = None
            if sw is not None and i < len(p.clauses) - 1:
                cut_at = sw.positions[i]
            chunks.append(format_clause(clause, name, cut_at))
            chunks.append("")

    for k in sorted(range(n), key=lambda k: k != dir_index) if split else [dir_index]:
        emit_one(k, spec.name if n == 1 else _version_name(spec.name, k, dir_index))
    while chunks and chunks[-1] == "":
        chunks.pop()
    return "\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# Mercury emission
# ---------------------------------------------------------------------------

def _strip_exists(f):
    while isinstance(f, Exists):
        f = f.body
    return f


def _mercury_goal(f, pred: str) -> str:
    if isinstance(f, ast.TrueF):
        return "true"
    if isinstance(f, ast.FalseF):
        return "fail"
    if isinstance(f, Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Atom):
        if not f.args:
            return f.predicate
        return f"{f.predicate}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"not ({_mercury_goal(_strip_exists(f.body), pred)})"
    if isinstance(f, And):
        return ", ".join(_mercury_goal(g, pred) for g in f.items)
    if isinstance(f, Or):
        goals = (_mercury_goal(_strip_exists(g), pred) for g in f.items)
        return "( " + " ; ".join(goals) + " )"
    if isinstance(f, Implies):
        return f"( {_mercury_goal(f.left, pred)} => {_mercury_goal(f.right, pred)} )"
    if isinstance(f, Iff):
        return f"( {_mercury_goal(f.left, pred)} <=> {_mercury_goal(f.right, pred)} )"
    if isinstance(f, Forall):
        return f"all [{f.var}] ({_mercury_goal(f.body, pred)})"
    if isinstance(f, Exists):
        raise NotDerivableError(f"{pred}: the Mercury backend cannot print the "
                                f"existential over {f.var} at {f.pos}")
    raise TypeError(f"cannot print goal: {f!r}")


def _contains_constant(t: Term, name: str) -> bool:
    if isinstance(t, Var):
        return False
    if t.functor == name and not t.args:
        return True
    return any(_contains_constant(a, name) for a in t.args)


def _replace_constant(t: Term, name: str, var: Var) -> Term:
    if isinstance(t, Var):
        return t
    if t.functor == name and not t.args:
        return var
    if not t.args:
        return t
    return Struct(t.functor, tuple(_replace_constant(a, name, var) for a in t.args))


def _rewrite_constants(goals: list, used: set) -> list:
    """Apply the special-constant table: each occurrence becomes a fresh
    variable produced by the table's goal, inserted before first use."""
    out = []
    fresh_for: dict = {}
    for g in goals:
        for const, goal_pred in MERCURY_CONSTANT_GOALS.items():
            terms = []
            if isinstance(g, Eq):
                terms = [g.left, g.right]
            elif isinstance(g, Atom):
                terms = list(g.args)
            if not any(_contains_constant(t, const) for t in terms):
                continue
            if const not in fresh_for:
                fresh_for[const] = Var(ast.fresh_name("X", used))
                out.append(Atom(goal_pred, (fresh_for[const],)))
            v = fresh_for[const]
            if isinstance(g, Eq):
                g = Eq(_replace_constant(g.left, const, v),
                       _replace_constant(g.right, const, v))
            else:
                g = Atom(g.predicate,
                         tuple(_replace_constant(t, const, v) for t in g.args))
        out.append(g)
    return out


def _disjunct_goals(f) -> list:
    f = _strip_exists(f)
    if isinstance(f, And):
        items = []
        for g in f.items:
            items.extend(_disjunct_goals(g)) if isinstance(g, And) else items.append(g)
        return items
    return [f]


def emit_mercury(tld: TypedLogicDescription, spec: Spec,
                 analysis: list) -> tuple[str, list]:
    """Mercury text for one procedure, plus emission warnings.

    ``analysis`` supplies one determinism verdict per directionality
    (objects with .directionality and .determinism.computed).
    """
    warnings: list[str] = []
    lines: list[str] = []
    types = ", ".join(t for _, t in tld.params)
    lines.append(f":- pred {tld.predicate}({types}).")
    stubs: dict = {}
    mode_lines = []
    for res in analysis:
        d = res.directionality
        mercury_modes = []
        for m_in, m_out in d.modes:
            name = mode_to_mercury(m_in, m_out)
            if name.startswith("m_") and name not in stubs:
                stubs[name] = f":- mode {name} == {m_in.name} >> {m_out.name}."
            mercury_modes.append(name)
        mapping = mult_to_mercury_determinism(res.determinism.computed)
        if mapping.widened is not None:
            warnings.append(
                f"{tld.predicate}: multiplicity {res.determinism.computed} has no "
                f"exact determinism; widened to {mapping.widened} ({mapping.name})")
        mode_lines.append(
            f":- mode {tld.predicate}({', '.join(mercury_modes)}) is {mapping.name}.")
    for stub in stubs.values():
        lines.append(stub)
    lines.extend(mode_lines)
    lines.append("")

    used = set(ast.all_names(tld.definition)) | {n for n, _ in tld.params}
    head = f"{tld.predicate}({', '.join(n for n, _ in tld.params)})"
    body = _strip_exists(tld.definition)
    if isinstance(body, Or):
        lines.append(f"{head} :-")
        lines.append("(   " + _format_goal_block(body.items[0], used, tld.predicate))
        for disjunct in body.items[1:]:
            lines.append(";")
            lines.append("    " + _format_goal_block(disjunct, used, tld.predicate))
        lines.append(").")
    else:
        goals = _rewrite_constants(_disjunct_goals(body), used)
        text = ",\n    ".join(_mercury_goal(g, tld.predicate) for g in goals)
        lines.append(f"{head} :-\n    {text}.")
    return "\n".join(lines) + "\n", warnings


def _format_goal_block(disjunct, used: set, pred: str) -> str:
    goals = _rewrite_constants(_disjunct_goals(disjunct), used)
    return ",\n    ".join(_mercury_goal(g, pred) for g in goals)
