"""Instantiation modes, multiplicities, directionalities, and specifications.

A mode abstracts a term's instantiation state as a nonempty subset of three
atoms: ground, free variable, and non-ground non-variable.  The seven legal
subsets carry the usual names; the lattice order is subset inclusion, join is
union and meet is intersection (an empty meet signals a contradiction).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .diagnostics import SourceDiagnostic, SourcePos, error
from .records import record

G = "g"  # ground
V = "v"  # free variable
N = "n"  # non-ground non-variable


class Mode(enum.Enum):
    """One of the seven legal modes, named by its keyword; its value is its
    atom set.  ``Mode(atoms)`` returns the member or raises ValueError."""

    ground = frozenset({G})
    var = frozenset({V})
    ngv = frozenset({N})
    novar = frozenset({G, N})
    gv = frozenset({G, V})
    noground = frozenset({V, N})
    any = frozenset({G, V, N})

    # members are singletons compared by identity: hash them so too, in C,
    # not through the Python-level Enum.__hash__
    __hash__ = object.__hash__

    def __init__(self, atoms: frozenset):
        self.atoms = atoms

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown mode keyword: {name}") from None

    def leq(self, other: "Mode") -> bool:
        return self.atoms <= other.atoms

    def join(self, other: "Mode") -> "Mode":
        return Mode(self.atoms | other.atoms)

    def meet(self, other: "Mode") -> Optional["Mode"]:
        inter = self.atoms & other.atoms
        return Mode(inter) if inter else None

    def instantiation_closure(self) -> "Mode":
        """Everything execution can turn this mode into (it only instantiates)."""
        out = set()
        for a in self.atoms:
            out |= {V: {V, N, G}, N: {N, G}, G: {G}}[a]
        return Mode(frozenset(out))

    def __str__(self) -> str:
        return self.name


GROUND, VAR, NGV, NOVAR, GV, NOGROUND, ANY = Mode
ALL_MODES = tuple(Mode)


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

STAR = "*"
INF = "inf"


def bound_key(b) -> tuple:
    if b == STAR:
        return (1, 0)
    if b == INF:
        return (2, 0)
    return (0, b)


def bound_leq(a, b) -> bool:
    return bound_key(a) <= bound_key(b)


def bound_mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a == INF or b == INF:
        return INF
    if a == STAR or b == STAR:
        return STAR
    return a * b


def bound_add(a, b):
    if a == INF or b == INF:
        return INF
    if a == STAR or b == STAR:
        return STAR
    return a + b


class Multiplicity(NamedTuple):
    """Declared or computed bounds <Min-Max> on answer substitutions."""

    min: object  # each bound is an int, STAR or INF
    max: object

    @property
    def is_erroneous(self) -> bool:
        return self.min == 1 and self.max == 0

    def well_formed(self) -> bool:
        return self.is_erroneous or bound_leq(self.min, self.max)

    def times(self, other: "Multiplicity") -> "Multiplicity":
        return Multiplicity(bound_mul(self.min, other.min), bound_mul(self.max, other.max))

    def plus(self, other: "Multiplicity") -> "Multiplicity":
        return Multiplicity(bound_add(self.min, other.min), bound_add(self.max, other.max))

    def within(self, declared: "Multiplicity") -> bool:
        """Computed interval inside the declared one."""
        return bound_leq(declared.min, self.min) and bound_leq(self.max, declared.max)

    def __str__(self) -> str:
        return f"<{self.min}-{self.max}>"


# ---------------------------------------------------------------------------
# Directionalities and specifications
# ---------------------------------------------------------------------------

@record
class Directionality:
    """One declared mode per parameter, an answer multiplicity and no-share pairs."""

    modes: tuple  # of (Mode, Mode) pairs, one per parameter
    mult: Multiplicity
    nosh: frozenset = frozenset()  # of (i, j) 1-based index pairs, i < j
    pos: SourcePos | None = None

    @property
    def arity(self) -> int:
        return len(self.modes)

    def __str__(self) -> str:
        parts = []
        for m_in, m_out in self.modes:
            parts.append(m_in.name if m_in == m_out else f"{m_in.name} -> {m_out.name}")
        text = f"({', '.join(parts)}) : {self.mult}"
        if self.nosh:
            pairs = ", ".join(f"({i},{j})" for i, j in sorted(self.nosh))
            text += f" : {{{pairs}}}"
        return text


@record
class Spec:
    """A procedure specification: parameter types, relation prose, directionalities."""

    name: str
    params: tuple  # of parameter variable names
    param_types: tuple  # of type names, same length
    relation: str = ""
    external: str = ""
    directionalities: tuple = ()
    pos: SourcePos | None = None

    @property
    def arity(self) -> int:
        return len(self.params)

    def param_env(self) -> dict:
        return dict(zip(self.params, self.param_types))


def check_directionality(spec: Spec) -> list[SourceDiagnostic]:
    """Consistency of the declared directionalities.

    Execution can only instantiate, so every Out must lie inside the
    instantiation closure of its In; multiplicities must be well formed
    (the special erroneous value <1-0> is legal); no-share indices must be
    valid parameter positions.
    """
    diags: list[SourceDiagnostic] = []
    for k, d in enumerate(spec.directionalities, start=1):
        where = d.pos or spec.pos
        if d.arity != spec.arity:
            diags.append(error(
                "dir-arity",
                f"{spec.name}: directionality {k} has {d.arity} modes for arity {spec.arity}",
                where))
            continue
        for i, (m_in, m_out) in enumerate(d.modes, start=1):
            if not m_out.leq(m_in.instantiation_closure()):
                diags.append(error(
                    "dir-inconsistent",
                    f"{spec.name}: directionality {k}, parameter {i}: "
                    f"{m_in.name} cannot become {m_out.name}",
                    where))
        if not d.mult.well_formed():
            diags.append(error(
                "dir-mult",
                f"{spec.name}: directionality {k}: ill-formed multiplicity {d.mult}",
                where))
        for i, j in d.nosh:
            if i == j or not (1 <= i <= spec.arity and 1 <= j <= spec.arity):
                diags.append(error(
                    "dir-nosh",
                    f"{spec.name}: directionality {k}: bad no-share pair ({i},{j})",
                    where))
    return diags
