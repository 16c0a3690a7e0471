"""The type system: named sets of ground terms.

A type definition is either a union of constructor cases (possibly recursive
in itself), an alias for another type, or one of the built-in primitives.
Types may not be mutually recursive.  Membership is decided by definition
unfolding; bounded enumeration provides the brute-force oracle used by the
semantics tests.

The bounded universe of ``term`` grows exponentially with the depth bound,
so the oracle mostly works without building it: ``count_terms`` counts it
by recurrence over the signature, ``bounded_member`` decides membership in
any type's enumeration, ``universe_key`` sorts values into universe order
and ``inhabited`` tells an empty enumeration from a non-empty one.  Only
``enumerate_type("term", d)`` builds the universe, and ``iter_terms``
yields it lazily, one layer at a time.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from . import ast
from .ast import Struct, Term, Var
from .diagnostics import SourceDiagnostic, SourcePos, error, warning
from .errors import NonGroundTermError, NotStructuralError, UnknownTypeError
from .records import record

# the deepest universe an evaluation context accepts: with the built-in binary
# list constructor in every signature the universe's size squares per layer,
# already about 10^116 terms at depth 8
MAX_DEPTH = 8
# the integers of every bounded universe: no other integer is in any type
INTEGER_RANGE = range(-2, 3)
INTEGER_SAMPLE = tuple(Struct(str(i)) for i in INTEGER_RANGE)
FLOAT_SAMPLE = (Struct("-1.0"), Struct("0.0"), Struct("1.0"))

BUILTIN_KINDS = ("integer", "float", "atom", "term")


class Case(NamedTuple):
    """One constructor of a type: a functor over component type names."""

    functor: str
    components: tuple = ()  # of type names

    @property
    def arity(self) -> int:
        return len(self.components)


class Cases(NamedTuple):
    """The body of a type defined by its constructors."""

    cases: tuple  # of Case


@record
class Alias:
    """The body of a type that names another type."""

    target: str


@record
class Builtin:
    """The body of a built-in type."""

    kind: str  # integer | float | atom | term


@record
class TypeDef:
    """A named type, as one definition in a ``.types`` file."""

    name: str
    body: Cases | Alias | Builtin
    pos: SourcePos | None = None


def builtin_defs() -> dict:
    defs = {kind: TypeDef(kind, Builtin(kind)) for kind in BUILTIN_KINDS}
    defs["list"] = TypeDef("list", Cases((Case("[]"), Case("[|]", ("term", "list")))))
    return defs


class TypeEnv:
    """Immutable map of type names to definitions, built-ins always present."""

    def __init__(self, user_defs: Iterable[TypeDef] = ()):
        defs = builtin_defs()
        for d in user_defs:
            defs[d.name] = d
        self._defs = defs
        self._member_cache: dict = {}
        self._enum_cache: dict = {}
        self._bounded_cache: dict = {}
        self._resolved: dict = {}  # type name -> its definition, aliases followed

    @property
    def defs(self) -> Mapping[str, TypeDef]:
        return self._defs

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def lookup(self, name: str) -> TypeDef:
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type: {name}") from None

    def resolve(self, name: str) -> TypeDef:
        """Follow aliases to the underlying definition."""
        d = self._resolved.get(name)
        if d is not None:
            return d
        seen = set()
        d = self.lookup(name)
        while isinstance(d.body, Alias):
            if d.name in seen:
                raise UnknownTypeError(f"alias cycle at type {d.name}")
            seen.add(d.name)
            d = self.lookup(d.body.target)
        self._resolved[name] = d
        return d

    def same_type(self, a: str, b: str) -> bool:
        """Equality modulo alias resolution."""
        if a == b:
            return True
        try:
            return self.resolve(a).name == self.resolve(b).name
        except UnknownTypeError:
            return False

    # -- membership --------------------------------------------------------

    def is_member(self, type_name: str, t: Term) -> bool:
        if not ast.ground(t):
            raise NonGroundTermError(f"term is not ground: {t!r}")
        return self.ground_member(type_name, t)

    def cases_of(self, type_name: str, t: Term) -> tuple:
        """The constructor cases of the type, after alias resolution, with
        ``t``'s functor and arity: more than one where the type repeats a
        constructor, none for a variable or a type without cases."""
        body = self.resolve(type_name).body
        if not isinstance(body, Cases) or not isinstance(t, Struct):
            return ()
        f, n = t.functor, len(t.args)
        return tuple([c for c in body.cases if c.functor == f and len(c.components) == n])

    def ground_member(self, type_name: str, t: Term) -> bool:
        """``is_member`` for a term the caller knows is ground, unchecked."""
        # resolve's memo read inline here and in bounded_member: the oracle
        # calls both once per value it tests
        d = self._resolved.get(type_name) or self.resolve(type_name)
        key = (d.name, t)
        hit = self._member_cache.get(key)
        if hit is not None:
            return hit
        if isinstance(d.body, Builtin):
            kind = d.body.kind
            if kind == "term":
                out = True
            elif kind == "integer":
                out = ast.is_int_literal(t)
            elif kind == "float":
                out = ast.is_float_literal(t)
            else:  # atom
                out = (isinstance(t, Struct) and not t.args
                       and not ast.is_int_literal(t) and not ast.is_float_literal(t))
        else:
            out = any(all(self.ground_member(ct, arg) for ct, arg in zip(case.components, t.args))
                      for case in self.cases_of(d.name, t))
        self._member_cache[key] = out
        return out

    # -- bounded enumeration ------------------------------------------------

    def signature(self) -> tuple[tuple[str, int], ...]:
        """All declared constructors (functor, arity), deterministically ordered."""
        return self._signature

    # computed on first use: most environments never enumerate or count terms

    @cached_property
    def _signature(self) -> tuple:
        sig = {(case.functor, case.arity) for d in self._defs.values()
               if isinstance(d.body, Cases) for case in d.body.cases}
        return tuple(sorted(sig, key=lambda fa: (fa[1], fa[0])))

    @cached_property
    def _sig_index(self) -> dict:
        return {fa: i for i, fa in enumerate(self._signature)}

    @cached_property
    def _constants(self) -> tuple:
        """The universe's leaves in universe order."""
        return tuple(dict.fromkeys(
            [Struct(f) for f, n in self._signature if n == 0] + list(INTEGER_SAMPLE)))

    @cached_property
    def _const_index(self) -> dict:
        return {c: i for i, c in enumerate(self._constants)}

    def enumerate_type(self, type_name: str, depth: int) -> tuple:
        """Exactly the members of the type with term depth <= depth.

        Builtin integer/float enumerate a fixed sample; ``atom`` the declared
        zero-arity constructors; ``term`` all terms over the declared
        signature plus the integer sample.
        """
        if depth < 0:
            return ()
        d = self.resolve(type_name)  # UnknownTypeError early
        key = (d.name, depth)
        hit = self._enum_cache.get(key)
        if hit is not None:
            return hit
        out = tuple(self._enumerate(d, depth))
        self._enum_cache[key] = out
        return out

    def _enumerate(self, d: TypeDef, depth: int):
        if depth <= 0:
            return []
        if isinstance(d.body, Builtin):
            kind = d.body.kind
            if kind == "integer":
                return list(INTEGER_SAMPLE)
            if kind == "float":
                return list(FLOAT_SAMPLE)
            if kind == "atom":
                return [Struct(f) for f, n in self._signature if n == 0]
            return list(self.iter_terms(depth))
        out = []
        seen = set()
        for case in d.body.cases:
            pools = [self.enumerate_type(ct, depth - 1) for ct in case.components]
            for args in itertools.product(*pools):
                t = Struct(case.functor, args)
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return out

    def iter_terms(self, depth: int):
        """The members of ``term`` up to ``depth`` in universe order: the
        constants, then one layer per depth, each built only when reached.
        A layer holds the constructor applications with an argument in the
        layer below; every other application is in an earlier layer."""
        if depth <= 0:
            return
        universe = list(self._constants)
        yield from universe
        below = 0  # the index in ``universe`` where the layer below starts
        for _ in range(depth - 1):
            size = len(universe)
            for f, n in self._signature:
                if n == 0:
                    continue
                # each tuple of arguments with the indices they have in ``universe``
                for args, picks in zip(itertools.product(universe[:size], repeat=n),
                                       itertools.product(range(size), repeat=n)):
                    if max(picks) >= below:
                        t = Struct(f, args)
                        universe.append(t)
                        yield t
            below = size

    # -- the bounded universe without building it -----------------------------

    def count_terms(self, depth: int) -> int:
        """``len(enumerate_type("term", depth))``: the constants, plus per
        layer every constructor applied to the layer below."""
        arities = [n for _, n in self._signature if n]
        size = 0
        for _ in range(depth):
            size = len(self._constants) + sum(size ** n for n in arities)
        return size

    def bounded_member(self, type_name: str, t: Term, depth: int) -> bool:
        """``t in enumerate_type(type_name, depth)``, without enumerating."""
        d = self._resolved.get(type_name) or self.resolve(type_name)
        key = (d.name, t, depth)
        hit = self._bounded_cache.get(key)
        if hit is None:
            hit = self._bounded_cache[key] = self._bounded(d, t, depth)
        return hit

    def _bounded(self, d: TypeDef, t: Term, depth: int) -> bool:
        body = d.body
        if depth <= 0 or not isinstance(t, Struct):
            return False
        if isinstance(body, Builtin):
            if body.kind == "integer":
                return t in INTEGER_SAMPLE
            if body.kind == "float":
                return t in FLOAT_SAMPLE
            if body.kind == "atom":
                return not t.args and (t.functor, 0) in self._sig_index
            if not t.args:  # term: a constant or a constructor over smaller terms
                return t in self._const_index
            return ((t.functor, t.arity) in self._sig_index
                    and all(self.bounded_member(d.name, a, depth - 1) for a in t.args))
        return any(all(self.bounded_member(ct, arg, depth - 1)
                       for ct, arg in zip(case.components, t.args))
                   for case in self.cases_of(d.name, t))

    def universe_key(self, t: Struct) -> tuple:
        """Sort key of a member of the term universe that reproduces the
        universe's order: (height, signature index, argument keys)."""
        if not t.args:
            return (1, self._const_index[t], ())
        args = tuple(self.universe_key(a) for a in t.args)
        return (1 + max(a[0] for a in args), self._sig_index[(t.functor, t.arity)], args)

    def inhabited(self, type_name: str, depth: int) -> bool:
        """Whether ``enumerate_type(type_name, depth)`` is non-empty."""
        body = self.resolve(type_name).body
        if depth <= 0:
            return False
        if isinstance(body, Builtin):
            return body.kind != "atom" or any(n == 0 for _, n in self._signature)
        return any(all(self.inhabited(ct, depth - 1) for ct in case.components)
                   for case in body.cases)

    # -- structural forms ---------------------------------------------------

    def structural_forms(self, type_name: str, var: str) -> tuple:
        """One equality formula per constructor case, fresh components bound."""
        d = self.resolve(type_name)
        if not isinstance(d.body, Cases):
            raise NotStructuralError(f"type {type_name} has no structural cases")
        forms = []
        for case in d.body.cases:
            names = _component_names(self, case, avoid={var})
            eq = ast.Eq(Var(var), Struct(case.functor, tuple(Var(n) for n in names)))
            forms.append(ast.exists_all(zip(names, case.components), eq))
        return tuple(forms)


def _component_names(env: TypeEnv, case: Case, avoid: set) -> list[str]:
    if case.functor == "[|]" and case.arity == 2:
        base = ["H", "T"]
    else:
        base = []
        for ct in case.components:
            try:
                resolved = env.resolve(ct).name
            except UnknownTypeError:
                resolved = ct
            base.append(resolved[0].upper() if resolved else "X")
    used = set(avoid)
    return [ast.fresh_name(b, used) for b in base]


# ---------------------------------------------------------------------------
# Environment checking
# ---------------------------------------------------------------------------

def check_env(env: TypeEnv) -> list[SourceDiagnostic]:
    """Report mutual recursion, unknown references, and empty types."""
    diags: list[SourceDiagnostic] = []
    defs = env.defs

    def refs(d: TypeDef) -> list[str]:
        if isinstance(d.body, Alias):
            return [d.body.target]
        if isinstance(d.body, Cases):
            return [ct for case in d.body.cases for ct in case.components]
        return []

    for d in defs.values():
        for ref in refs(d):
            if ref not in defs:
                diags.append(error("unknown-type",
                                   f"type {d.name} refers to unknown type {ref}", d.pos))

    # alias self-loops are never legal
    for d in defs.values():
        if isinstance(d.body, Alias) and d.body.target == d.name:
            diags.append(error("mutual-recursion",
                               f"type {d.name} is an alias of itself", d.pos))

    # any dependency cycle of length >= 2 is mutual recursion
    for scc in _sccs({d.name: [r for r in refs(d) if r in defs and r != d.name]
                      for d in defs.values()}):
        if len(scc) >= 2:
            names = ", ".join(sorted(scc))
            pos = next((defs[n].pos for n in sorted(scc) if defs[n].pos), None)
            diags.append(error("mutual-recursion",
                               f"mutually recursive types: {names}", pos))

    # inhabitedness fixpoint: a Cases type with no reachable base case is empty
    inhabited = {name for name, d in defs.items() if isinstance(d.body, Builtin)}
    changed = True
    while changed:
        changed = False
        for name, d in defs.items():
            if name in inhabited:
                continue
            if isinstance(d.body, Alias):
                ok = d.body.target in inhabited
            elif isinstance(d.body, Cases):
                ok = any(all(ct in inhabited for ct in case.components)
                         for case in d.body.cases)
            else:
                ok = True
            if ok:
                inhabited.add(name)
                changed = True
    for name, d in defs.items():
        if isinstance(d.body, Cases) and name not in inhabited:
            diags.append(warning("empty-type",
                                 f"type {name} has no ground members", d.pos))
    return diags


def _sccs(graph: dict) -> list[set]:
    """Tarjan's strongly connected components, iterative."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[set] = []
    counter = itertools.count()

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return out
