"""Shared test helpers: a tiny concrete unifier, a generic clause reader,
and the slow references that faster code is compared with."""

from __future__ import annotations

import math

from tldforge import ast
from tldforge.analysis import AbstractState, detect_switch, initial_state
from tldforge.ast import (And, Atom, Call, Eq, Exists, FalseF, Forall, Formula, Iff,
                          Implies, LogicDescription, NafNot, Not, Or, Struct, TrueF,
                          TypeCheck, Unify, Var)
from tldforge.derive import MAX_CLAUSES, Disjunct, NormalizedBody
from tldforge.errors import NotCallableError, NotDerivableError
from tldforge.modes import GROUND, NOVAR, VAR, Multiplicity, bound_key
from tldforge.parser import _SINGLE, _TWO_CHAR_PLUS, ParseError, Token, _Parser, tokenize


def walk(t, subst):
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def unify(a, b, subst):
    """Structural unification without occurs check; returns the extended
    substitution or None."""
    a, b = walk(a, subst), walk(b, subst)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return subst
        return {**subst, a.name: b}
    if isinstance(b, Var):
        return {**subst, b.name: a}
    if a.functor != b.functor or a.arity != b.arity:
        return None
    for x, y in zip(a.args, b.args):
        subst = unify(x, y, subst)
        if subst is None:
            return None
    return subst


def resolve(t, subst):
    t = walk(t, subst)
    if isinstance(t, Var):
        return t
    if not t.args:
        return t
    return Struct(t.functor, tuple(resolve(a, subst) for a in t.args))


def instantiation_class(t) -> str:
    """g for ground, v for a free variable, n otherwise."""
    if isinstance(t, Var):
        return "v"
    return "g" if ast.ground(t) else "n"


def read_prolog(text: str):
    """Generic reader for emitted Prolog: a list of (head, body literals).

    Grammar: term (':-' goal (',' goal)*)? '.' where a goal is '!',
    '\\+' goal, or a term optionally equated with another term.
    """
    p = _Parser(tokenize(text, "<emitted>"), "<emitted>")
    clauses = []
    while p.tags[p.i] != "eof":
        head = p.term()
        body = p.sequence(lambda: _read_goal(p)) if p.accept(":-") else []
        p.expect(".")
        clauses.append((head, body))
    return clauses


def _read_goal(p):
    if p.accept("!"):
        return ("cut",)
    if p.accept("\\+"):
        if p.accept("("):
            inner = _read_goal(p)
            p.expect(")")
        else:
            inner = _read_goal(p)
        return ("naf", inner)
    left = p.term()
    if p.accept("="):
        return ("=", left, p.term())
    return ("call", left)


def tokens_of(text: str):
    """Whitespace-insensitive token stream for golden comparisons."""
    return [t.text for t in tokenize(text, "<golden>") if t.kind != "eof"]


# a description body of p(X: nat) nested k levels deep by one construct,
# with the text of the token that opens each level
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "X = zero" + ")" * k, "("),
    "arguments": (lambda k: "X = " + "s(" * k + "zero" + ")" * k, "("),
    "lists": (lambda k: "X = zero /\\ Y = " + "[" * k + "1" + "]" * k, "["),
    "list items": (lambda k: "X = zero /\\ Y = [" + ", ".join(["1"] * k) + "]", "1"),
    "sums": (lambda k: "X = zero /\\ Y = 1" + " + 1" * k, "+"),
    "negations": (lambda k: "~" * k + "X = zero", "~"),
    "implications": (lambda k: "X = zero" + " => X = zero" * k, "=>"),
    "quantifiers": (lambda k: "".join(f"exists Y{i}: term . " for i in range(k))
                    + "X = zero", "exists"),
}


def reference_tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The character-by-character tokenizer that ``parser.tokenize``
    replaced, kept as the reference its token streams and errors are
    compared with."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def prev_ends_term() -> bool:
        if not tokens:
            return False
        t = tokens[-1]
        return t.kind in ("ident", "var", "int", "float") or t.text in (")", "]", "}")

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string",
                                 Token("eof", "", start_line, start_col))
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                tokens.append(Token("float", text[i:j], start_line, start_col))
            else:
                tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "-" and not prev_ends_term() and i + 1 < n and text[i + 1].isdigit() \
                and text[i:i + 2] != "->":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("float", text[i:j], start_line, start_col))
            else:
                tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "-" and not prev_ends_term() and i + 1 < n and text[i + 1].islower() \
                and text[i:i + 2] != "->":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (word[0].isupper() or word[0] == "_") else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        matched = None
        for op in _TWO_CHAR_PLUS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None and c in _SINGLE:
            matched = c
        if matched is None:
            raise ParseError(f"unexpected character {c!r}",
                             Token("op", c, start_line, start_col))
        tokens.append(Token("op", matched, start_line, start_col))
        col += len(matched)
        i += len(matched)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- the abstract step and determinism walk that compiled mode steps replaced --

def _reference_term_mode(modes: dict, t):
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
    return NOVAR


def _reference_unify(modes: dict, left, right):
    if isinstance(left, Var) and isinstance(right, Var):
        x, y = left.name, right.name
        if modes[x] == GROUND or modes[y] == GROUND:
            modes[x] = modes[y] = GROUND
        else:
            modes[x] = modes[y] = modes[x].join(modes[y])
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
            if modes[x].atoms & {"g", "n"}:
                for n in rnames:
                    modes[n] = modes[n].instantiation_closure()
            modes[x] = GROUND if all(modes[n] == GROUND for n in rnames) else NOVAR
        return
    if (isinstance(left, Struct) and isinstance(right, Struct)
            and left.functor == right.functor and left.arity == right.arity):
        for a, b in zip(left.args, right.args):
            _reference_unify(modes, a, b)


def _reference_aliases(modes: dict, left, right) -> bool:
    """Whether unifying left with right unifies two free variables, directly
    or inside two compounds of one shape (Mercury refuses it)."""
    if isinstance(left, Var) and isinstance(right, Var):
        return modes[left.name] == VAR and modes[right.name] == VAR
    if isinstance(left, Struct) and isinstance(right, Struct) and \
            (left.functor, left.arity) == (right.functor, right.arity):
        return any(_reference_aliases(modes, a, b) for a, b in zip(left.args, right.args))
    return False


def _reference_callee_dir(spec, arg_modes):
    for d in spec.directionalities:
        if d.arity == len(arg_modes) and all(
                m.leq(m_in) for m, (m_in, _) in zip(arg_modes, d.modes)):
            return d
    wanted = ", ".join(m.name for m in arg_modes)
    raise NotCallableError(
        f"no directionality of {spec.name}/{spec.arity} accepts argument modes ({wanted})")


def reference_step(state: AbstractState, lit, registry) -> AbstractState:
    """``analysis.abstract_step`` as it was before steps were compiled: the
    post-state of one literal, or NotCallableError."""
    modes = state.mode_map()
    if isinstance(lit, Unify):
        for n in ast.literal_vars(lit):
            if n not in modes:
                raise NotCallableError(f"variable {n} is not in scope")
        if _reference_aliases(modes, lit.left, lit.right):
            raise NotCallableError("a unification of two free variables would alias them")
        _reference_unify(modes, lit.left, lit.right)
    elif isinstance(lit, Call):
        spec = registry.spec_of(lit.predicate)
        d = _reference_callee_dir(spec, [_reference_term_mode(modes, a) for a in lit.args])
        for arg, (_, m_out) in zip(lit.args, d.modes):
            if isinstance(arg, Var):
                modes[arg.name] = m_out
            elif m_out == GROUND:
                for n in ast.term_vars(arg):
                    modes[n] = GROUND
            elif m_out.atoms & {"g", "n"}:  # the argument may be instantiated further
                for n in ast.term_vars(arg):
                    modes[n] = modes[n].instantiation_closure()
    elif isinstance(lit, TypeCheck):
        if _reference_term_mode(modes, lit.arg) != GROUND:
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


def reference_pick(state: AbstractState, lit, registry) -> int | None:
    """The index of the callee directionality a call picks on a state, as
    ``reference_step`` picks it, or NotCallableError; None for any other
    literal."""
    if not isinstance(lit, Call):
        return None
    spec, modes = registry.spec_of(lit.predicate), state.mode_map()
    return spec.directionalities.index(
        _reference_callee_dir(spec, [_reference_term_mode(modes, a) for a in lit.args]))


def reference_literal_mults(clause, d, registry) -> list:
    """Each literal's own answer multiplicity along an executable clause,
    from the modes before it, as the determinism analysis computed it when
    it walked the clause again instead of reading what ``reorder`` recorded."""
    state = initial_state(clause, d)
    out = []
    for lit in clause.body:
        modes = state.mode_map()
        if isinstance(lit, Unify):
            free = VAR in (_reference_term_mode(modes, lit.left),
                           _reference_term_mode(modes, lit.right))
            out.append(Multiplicity(1, 1) if free else Multiplicity(0, 1))
        elif isinstance(lit, Call):
            spec = registry.spec_of(lit.predicate)
            out.append(_reference_callee_dir(
                spec, [_reference_term_mode(modes, a) for a in lit.args]).mult)
        else:
            out.append(Multiplicity(0, 1))
        state = reference_step(state, lit, registry)
    return out


def _reference_proved(prefix, check, given: set, registry) -> bool:
    """Whether the literals ``prefix`` prove ``check``, a type check on a
    variable, from the (variable, type) pairs ``given``: a fact of its type
    on a variable linked to the checked one by variable-variable
    unifications, the facts coming from ``given``, callee success and
    checks, or a unification of a linked variable with a ground member of
    the type.  Constructor decomposition is left out: the comparison runs
    on integer workspaces."""
    env, tname = registry.env, check.type_name
    pairs = [(lit.left.name, lit.right.name) for lit in prefix
             if isinstance(lit, Unify) and isinstance(lit.left, Var)
             and isinstance(lit.right, Var)]
    linked = {check.arg.name}
    while True:
        grown = linked | {b for a, b in pairs if a in linked} | {a for a, b in pairs if b in linked}
        if grown == linked:
            break
        linked = grown
    facts = set(given)
    for lit in prefix:
        if isinstance(lit, Call):
            facts |= {(a.name, t) for a, t in zip(
                lit.args, registry.spec_of(lit.predicate).param_types) if isinstance(a, Var)}
        elif isinstance(lit, TypeCheck) and isinstance(lit.arg, Var):
            facts.add((lit.arg.name, lit.type_name))
        elif isinstance(lit, Unify):
            for v, t in ((lit.left, lit.right), (lit.right, lit.left)):
                if (isinstance(v, Var) and v.name in linked and ast.ground(t)
                        and tname in env and env.ground_member(tname, t)):
                    return True
    return any(n in linked and env.same_type(t, tname) for n, t in facts)


def reference_determinism(prog, d, registry) -> Multiplicity:
    """The computed multiplicity of an executable program: the walk above,
    with the switch rule and a check proved by the literals before it
    counted <1-1>, summed over the clauses; the directionality's ground
    in-parameters have their declared types."""
    spec = registry.spec_of(prog.predicate)
    switch = detect_switch(prog, d, spec, registry.env)
    given = {(p, t) for p, t, (m_in, _) in zip(spec.params, spec.param_types, d.modes)
             if m_in == GROUND}
    clause_mults = []
    for ci, clause in enumerate(prog.clauses):
        mult = Multiplicity(1, 1)
        for pos, (lit, lm) in enumerate(zip(clause.body,
                                            reference_literal_mults(clause, d, registry))):
            if switch is not None and pos == switch.positions[ci]:
                lm = Multiplicity(1, 1)
            elif (isinstance(lit, TypeCheck) and isinstance(lit.arg, Var)
                  and _reference_proved(clause.body[:pos], lit, given, registry)):
                lm = Multiplicity(1, 1)
            mult = mult.times(lm)
        clause_mults.append(mult)
    if not clause_mults:
        return Multiplicity(0, 0)
    if switch is not None:
        return Multiplicity(min((m.min for m in clause_mults), key=bound_key),
                            max((m.max for m in clause_mults), key=bound_key))
    total = clause_mults[0]
    for m in clause_mults[1:]:
        total = total.plus(m)
    return total


def reinstated_clause(result, removed):
    """The ordered clause a removed type check came from, with that check
    at its body position and the others removed from the clause gone."""
    ordered = result.ordered.clauses[removed.clause_index]
    others = {rc.position for rc in result.removed
              if rc.clause_index == removed.clause_index and rc != removed}
    return ordered._replace(body=tuple(lit for pos, lit in enumerate(ordered.body)
                                       if pos not in others))


# -- the three-pass normalizer that derive's single walk replaced --

def _reference_where(f) -> str:
    return f" at {f.pos}" if getattr(f, "pos", None) else ""


def _reference_nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, TrueF):
        return ast.TRUE if positive else ast.FALSE
    if isinstance(f, FalseF):
        return ast.FALSE if positive else ast.TRUE
    if isinstance(f, (Eq, Atom)):
        return f if positive else Not(f, pos=f.pos)
    if isinstance(f, Not):
        return _reference_nnf(f.body, not positive)
    if isinstance(f, And):
        parts = tuple(_reference_nnf(g, positive) for g in f.items)
        return And(parts, pos=f.pos) if positive else Or(parts, pos=f.pos)
    if isinstance(f, Or):
        parts = tuple(_reference_nnf(g, positive) for g in f.items)
        return Or(parts, pos=f.pos) if positive else And(parts, pos=f.pos)
    if isinstance(f, Implies):
        if positive:
            return Or((_reference_nnf(f.left, False), _reference_nnf(f.right, True)), pos=f.pos)
        return And((_reference_nnf(f.left, True), _reference_nnf(f.right, False)), pos=f.pos)
    if isinstance(f, Iff):
        # in this order: the first of their errors is the one raised
        if positive:
            return Or((And((_reference_nnf(f.left, True), _reference_nnf(f.right, True))),
                       And((_reference_nnf(f.left, False), _reference_nnf(f.right, False)))),
                      pos=f.pos)
        return Or((And((_reference_nnf(f.left, True), _reference_nnf(f.right, False))),
                   And((_reference_nnf(f.left, False), _reference_nnf(f.right, True)))),
                  pos=f.pos)
    if isinstance(f, Exists):
        if not positive:
            raise NotDerivableError(
                "negation over an existential quantifier leaves a universal "
                f"in a body position{_reference_where(f)}")
        return Exists(f.var, f.type_name, _reference_nnf(f.body, True), pos=f.pos)
    if isinstance(f, Forall):
        if positive:
            raise NotDerivableError(
                f"universal quantifier in a body position{_reference_where(f)}")
        return Exists(f.var, f.type_name, _reference_nnf(f.body, False), pos=f.pos)
    raise TypeError(f"not a formula: {f!r}")


def _reference_standardize(f: Formula, used: set) -> Formula:
    """Rename each binder apart from ``used``, the names that can share a
    clause with it, which it joins; the disjuncts of a disjunction rename
    from the same names and their union joins ``used`` afterwards."""
    if isinstance(f, Exists):
        name = ast.fresh_name(f.var, used)
        body = f.body if name == f.var else ast.rename_free(f.body, f.var, name)
        return Exists(name, f.type_name, _reference_standardize(body, used), pos=f.pos)
    if isinstance(f, And):
        return And(tuple(_reference_standardize(g, used) for g in f.items), pos=f.pos)
    if isinstance(f, Or):
        start = set(used)
        parts = []
        for g in f.items:
            names = set(start)
            parts.append(_reference_standardize(g, names))
            used |= names
        return Or(tuple(parts), pos=f.pos)
    return f


def _reference_first_pos(f: Formula):
    """The source position of the first positioned node of ``f``, in
    preorder; connectives carry none, their leaves do."""
    if getattr(f, "pos", None):
        return f.pos
    for g in ast.subformulas(f):
        pos = _reference_first_pos(g)
        if pos:
            return pos
    return None


def _reference_dnf(f: Formula, leaf) -> list[list]:
    """The disjuncts of ``f`` as lists of ``leaf(g)`` over its leaves ``g``
    and of the Exists nodes whose bodies they lie in, in preorder; ``leaf``
    runs once per leaf, and every disjunct holding that leaf shares its
    result.  A subformula with more than MAX_CLAUSES disjuncts is refused
    before they are built: a conjunction by the product of its conjuncts'
    counts, a disjunction by the running sum of its disjuncts'."""
    if isinstance(f, TrueF):
        return [[]]
    if isinstance(f, FalseF):
        return []
    if isinstance(f, Exists):
        return [[f] + d for d in _reference_dnf(f.body, leaf)]
    if isinstance(f, Or):
        out: list[list] = []
        for g in f.items:
            out.extend(_reference_dnf(g, leaf))
            _reference_check_count(len(out), f)
        return out
    if isinstance(f, And):
        parts = [_reference_dnf(g, leaf) for g in f.items]
        _reference_check_count(math.prod(map(len, parts)), f)
        out = [[]]
        for branches in parts:
            out = [left + right for left in out for right in branches]
        return out
    return [[leaf(f)]]


def _reference_check_count(count: int, f: Formula):
    if count > MAX_CLAUSES:
        pos = _reference_first_pos(f)
        what = "conjunction" if isinstance(f, And) else "disjunction"
        raise NotDerivableError(
            f"derive-blowup: the {what}{f' at {pos}' if pos else ''} distributes "
            f"into {count} clauses, more than the limit of {MAX_CLAUSES}")


def _reference_to_literal(f: Formula, type_names: frozenset):
    if isinstance(f, Eq):
        return Unify(f.left, f.right, f.pos)
    if isinstance(f, Atom):
        if len(f.args) == 1 and f.predicate in type_names:
            return TypeCheck(f.predicate, f.args[0], f.pos)
        return Call(f.predicate, f.args, f.pos)
    if isinstance(f, Not):
        if isinstance(f.body, (Eq, Atom)):
            return NafNot(_reference_to_literal(f.body, type_names), f.pos)
        raise NotDerivableError(
            f"negation landed on a non-atomic residue{_reference_where(f)}")
    raise NotDerivableError(
        f"formula cannot become a body literal: {f!r}{_reference_where(f)}")


def reference_normalize(ld: LogicDescription,
                        type_names: frozenset = frozenset()) -> NormalizedBody:
    """``derive.normalize`` as three passes instead of one walk: negation
    normal form, then binders renamed per clause, then distribution, where
    a binder goes with every disjunct of its body."""
    nnf = _reference_nnf(ld.definition, True)
    used = set(ld.params) | set(ast.free_names(ld.definition))
    matrix = _reference_standardize(nnf, used)

    def leaf(f: Formula) -> tuple:
        lit = _reference_to_literal(f, type_names)
        return lit, ast.literal_vars(lit)

    disjuncts = []
    for leaves in _reference_dnf(matrix, leaf):
        binders = [(g.var, g.type_name) for g in leaves if isinstance(g, Exists)]
        literals = []
        occurring = set()
        for entry in leaves:
            if isinstance(entry, Exists):
                continue
            lit, names = entry
            if isinstance(lit, TypeCheck) and lit in literals:
                continue
            literals.append(lit)
            occurring.update(names)
        negated = [lit.literal for lit in literals if isinstance(lit, NafNot)]
        if any(isinstance(n, TypeCheck) and n in literals for n in negated):
            continue  # a type check and its negation: a clause that never succeeds
        exvars = tuple((n, t) for n, t in binders if n in occurring)
        disjuncts.append(Disjunct(exvars, tuple(literals)))
    return NormalizedBody(tuple(disjuncts))


# -- the match on substituted terms that the evaluator's term closures replaced --

def reference_match(pattern, value, out: dict) -> bool:
    """One-way match of a pattern with variables against a ground term."""
    if isinstance(pattern, Var):
        seen = out.get(pattern.name)
        if seen is None:
            out[pattern.name] = value
            return True
        return reference_term_eq(seen, value)
    if not isinstance(value, Struct):
        return False
    if pattern.functor != value.functor or pattern.arity != value.arity:
        return False
    return all(reference_match(p, v, out) for p, v in zip(pattern.args, value.args))


# -- the structural equality that hash-consing turned into identity --

def reference_term_eq(a, b) -> bool:
    """Structural term equality: the same variable, or the same functor
    over pairwise equal arguments."""
    if isinstance(a, Var) or isinstance(b, Var):
        return isinstance(a, Var) and isinstance(b, Var) and a.name == b.name
    return (a.functor == b.functor and len(a.args) == len(b.args)
            and all(reference_term_eq(x, y) for x, y in zip(a.args, b.args)))
