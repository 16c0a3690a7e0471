"""Seeded input generators for the three benchmark workloads.

Each generator writes workspaces (manifest, ``.types``, ``.spec``, ``.tld``)
under a work directory and returns one pass of jobs.  A job is one
user-level command with the outcome its input was built to have: the exit
code, and a check of the output that uses only what the generator knows
about the input (clause counts, literal orders, binding counts, goldens).
No check asks the compiler what the right answer is.

The same seed gives the same files and the same job list.  Input sizes are
stratified (every pass holds a fixed number of inputs of each shape and
size) so that seeds vary names, constants and layout, not the amount of
work.  Nothing is filtered out for failing: inputs that hit a known defect
(the ``DEFECT_*`` labels below) stay in and count as failed jobs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

AND = " /\\ "
OR = " \\/ "

# the built-in integer type enumerates this sample at every depth
INTEGER_SAMPLE = tuple(str(i) for i in range(-2, 3))
# the built-in list type every environment declares
BUILTIN_LIST = (("[]", ()), ("[|]", ("term", "list")))

ENUMS = (
    ("fruit", ("orange", "apple", "banana", "pineapple", "strawberry")),
    ("color", ("red", "green", "blue", "cyan", "magenta")),
    ("suit", ("clubs", "diamonds", "hearts", "spades", "joker")),
    ("day", ("mon", "tue", "wed", "thu", "fri")),
)

SPLIT = "generate separate versions of the procedure for each directionality"
POSITIONED = re.compile(r"^(\S+?):(\d+):(\d+): error\[", re.M)
FORGE_POSITIONED = re.compile(r"^error: .* at (\S+?):(\d+):(\d+)$", re.M)
# known defects: an expected outcome the program does not reach
DEFECT_MERCURY_EXISTS = "existential inside a conjunction under gen mercury"
DEFECT_ABORT_ALL = "one procedure's error aborts the command for all (no --pred)"
DEFECT_ANALYZE_EMITS = "analyze fails on the Prolog emitter's order check"
DEFECT_TRANSFORM = "non-derivable description under transform --emit-stage"


@dataclass
class Job:
    """One user-level command and the outcome its input was built to have."""

    label: str
    argv: tuple  # for the command line; ("agree", manifest, pred, depth) for the API
    expect: int  # exit code; for API jobs 0 = report, 1 = ForgeError
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> problem or None
    emits: bool = False  # stdout is generated code (code_bytes, checks_kept)
    type_names: frozenset = frozenset()  # type-check literals in emitted Prolog
    defect: str | None = None  # a known defect this input exercises


@dataclass
class Workload:
    name: str
    jobs: list
    scaling: list = field(default_factory=list)  # (metric name, job)


# ---------------------------------------------------------------------------
# Independent output readers
# ---------------------------------------------------------------------------

def prolog_clauses(text: str) -> list:
    """(head name, body literals) per clause of emitted Prolog.

    Emitted clauses start at column 0 and put one body literal per
    indented line."""
    clauses = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        if not line.startswith(" "):
            m = re.match(r"([a-z]\w*)", line)
            clauses.append((m.group(1) if m else line, []))
        elif clauses:
            clauses[-1][1].append(line.strip().rstrip(",."))
    return clauses


def type_checks(text: str, type_names) -> int:
    """Body literals of emitted Prolog that test a type: name(Arg)."""
    count = 0
    for _, body in prolog_clauses(text):
        for lit in body:
            m = re.fullmatch(r"([a-z]\w*)\((\w+)\)", lit)
            if m and m.group(1) in type_names:
                count += 1
    return count


def positioned(stderr: str, path: str, lines) -> str | None:
    for m in POSITIONED.finditer(stderr):
        if m.group(1).endswith(path) and int(m.group(2)) in lines:
            return None
    return f"no diagnostic positioned in {path} lines {sorted(lines)}: {stderr[:200]!r}"


def forge_positioned(stderr: str) -> str | None:
    if FORGE_POSITIONED.search(stderr):
        return None
    return f"no positioned error: {stderr[:200]!r}"


def all_of(*checks):
    def run(out, err):
        for c in checks:
            problem = c(out, err)
            if problem:
                return problem
        return None
    return run


def no_check(out, err):
    return None


def clause_counts(expected: dict):
    """Every named procedure emitted with exactly this many clauses."""
    def run(out, err):
        got: dict = {}
        for head, _ in prolog_clauses(out):
            got[head] = got.get(head, 0) + 1
        for name, n in expected.items():
            if got.get(name, 0) != n:
                return f"{name}: {got.get(name, 0)} clauses, expected {n}"
        return None
    return run


def contains(*needles):
    def run(out, err):
        for n in needles:
            if n not in out:
                return f"output lacks {n!r}"
        return None
    return run


def equals(expected: str):
    def run(out, err):
        return None if out == expected else "output differs from the golden file"
    return run


# ---------------------------------------------------------------------------
# Independent universe counter
# ---------------------------------------------------------------------------

def type_sizes(types: dict, depth: int) -> dict:
    """Members of each declared type with term depth <= depth.

    ``types`` maps a type name to its constructor cases, each a
    (functor, component types) pair.  ``term`` ranges over every term of
    the declared signature plus the integer sample."""
    types = {**types, "list": BUILTIN_LIST}
    sig = {(f, len(comps)) for cases in types.values() for f, comps in cases}
    consts = {f for f, n in sig if n == 0} | set(INTEGER_SAMPLE)
    size = {name: 0 for name in types}
    size.update(term=0, integer=0)
    for _ in range(depth):
        prev = dict(size)
        size["integer"] = len(INTEGER_SAMPLE)
        size["term"] = len(consts) + sum(prev["term"] ** n for f, n in sig if n)
        for name, cases in types.items():
            total = 0
            for _, comps in cases:
                k = 1
                for c in comps:
                    k *= prev[c]
                total += k
            size[name] = total
    return size


# ---------------------------------------------------------------------------
# Workspace writing
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    name: str
    params: tuple  # of (var, type)
    dirs: tuple  # of "dir ..." bodies
    body: str
    disjuncts: int  # clauses derived from the body
    derivable: bool = True
    struct_param: tuple | None = None  # (var, number of constructor cases)
    order_conflict: bool = False  # no single literal order serves every directionality
    defect: str | None = None

    @property
    def arity(self) -> int:
        return len(self.params)

    def spec_text(self) -> str:
        lines = [f"procedure {self.name}({', '.join(v for v, _ in self.params)})."]
        lines += [f"type {v} : {t}." for v, t in self.params]
        lines += [f"dir {d}." for d in self.dirs]
        return "\n".join(lines) + "\n"

    def tld_text(self) -> str:
        params = ", ".join(f"{v}: {t}" for v, t in self.params)
        return f"{self.name}({params}) <=>\n    {self.body}.\n"


def write_workspace(root: Path, name: str, types_text: str, procs: list,
                    extra_specs: str = "") -> tuple:
    """Write a workspace; returns (manifest path, {proc name: tld line})."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    (d / "types.types").write_text(types_text)
    (d / "procs.spec").write_text(extra_specs + "\n".join(p.spec_text() for p in procs))
    lines = {}
    chunks = []
    line = 1
    for p in procs:
        text = p.tld_text()
        lines[p.name] = line
        chunks.append(text)
        line += text.count("\n") + 1
    (d / "procs.tld").write_text("\n".join(chunks))
    (d / "manifest.txt").write_text("types types.types\nspec procs.spec\ntld procs.tld\n")
    return str(d / "manifest.txt"), lines


def _names(rng: random.Random, base: str, taken: set) -> str:
    while True:
        name = f"{base}_{rng.choice('abcdefghjkmnpqrstuvwxyz')}{rng.randrange(10, 100)}"
        if name not in taken:
            taken.add(name)
            return name


# ---------------------------------------------------------------------------
# compile-typical
# ---------------------------------------------------------------------------

DIR_OUT2 = "(ground, var -> ground) : <1-1>"
DIR_TEST2 = "(ground, ground) : <0-1>"


def _typical_procs(kind: str, rng: random.Random, taken: set, enum, variant: int) -> list:
    """One to two procedures of a formats.md-shaped template.

    ``variant`` (how many of this kind came before) picks the shape-changing
    options in rotation, so every pass holds the same mix; the rng only
    picks names and constants."""
    ename, values = enum
    if kind == "nat_to_int":
        p = _names(rng, "nat_int", taken)
        dirs = (DIR_OUT2,) + ((DIR_TEST2,) if variant % 2 else ())
        body = (f"N = zero{AND}I = {rng.randrange(0, 4)}{OR}exists M: nat . "
                f"exists J: integer . N = s(M){AND}{p}(M, J){AND}"
                f"plus(J, {rng.randrange(1, 4)}, I)")
        return [Proc(p, (("N", "nat"), ("I", "integer")), dirs, body, 2,
                     struct_param=("N", 2))]
    if kind == "list_len":
        p = _names(rng, "len", taken)
        lt = ("integer_list", "nat_list", "nat_set")[variant % 3]
        dirs = (DIR_OUT2,) + ((DIR_TEST2,) if variant % 2 else ())
        body = (f"L = []{AND}N = 0{OR}exists T: {lt} . exists N1: integer . "
                f"L = [H | T]{AND}{p}(T, N1){AND}plus(N1, 1, N)")
        return [Proc(p, (("L", lt), ("N", "integer")), dirs, body, 2,
                     struct_param=("L", 2))]
    if kind == "list_fold":
        p = _names(rng, "fold", taken)
        op, unit = (("+", 0), ("*", 1))[variant % 2]
        body = (f"L = []{AND}S = {unit}{OR}exists S1: integer . "
                f"L = [H | T]{AND}{p}(T, S1){AND}S = H {op} S1")
        return [Proc(p, (("L", "integer_list"), ("S", "integer")), (DIR_OUT2,),
                     body, 2, struct_param=("L", 2))]
    if kind == "enum_code":
        p = _names(rng, "code", taken)
        codes = rng.sample(range(0, 50), len(values))
        body = OR.join(f"C = {v}{AND}K = {c}" for v, c in zip(values, codes))
        # the first directionality's order starts with the type check on C,
        # which cannot run while C is unbound (the second directionality):
        # without --split, gen prolog reports the conflict
        dirs = [DIR_OUT2, "(var -> ground, ground) : <0-1>", DIR_TEST2]
        dirs = tuple(dirs[:1 + variant % 3])
        return [Proc(p, (("C", ename), ("K", "integer")), dirs, body,
                     len(values), struct_param=("C", len(values)),
                     order_conflict=len(dirs) > 1)]
    if kind == "acc_extreme":
        p = _names(rng, "acc", taken)
        q = _names(rng, "top", taken)
        op = ("max", "min")[variant % 2]
        arith = ("+", "-")[variant // 2 % 2]
        body = (f"L = []{AND}M = A{OR}exists M1: integer . L = [H | T]"
                f"{AND}{p}(T, M1, H {arith} A){AND}{op}(H {arith} A, M1, M)")
        gen = Proc(p, (("L", "integer_list"), ("M", "integer"), ("A", "integer")),
                   ("(ground, var -> ground, ground) : <1-1>",
                    "(ground, ground, ground) : <0-1>"), body, 2,
                   struct_param=("L", 2))
        start = ("-infinite", "0", str(rng.randrange(1, 9)))[variant % 3]
        top = Proc(q, (("L", "integer_list"), ("M", "integer")), (DIR_OUT2, DIR_TEST2),
                   f"{p}(L, M, {start})", 1, struct_param=("L", 2))
        return [gen, top]
    if kind == "nat_less":
        p = _names(rng, "less", taken)
        body = (f"X = zero{AND}Y = s(Z){OR}exists X1: nat . exists Y1: nat . "
                f"X = s(X1){AND}Y = s(Y1){AND}{p}(X1, Y1)")
        return [Proc(p, (("X", "nat"), ("Y", "nat")), (DIR_TEST2,), body, 2,
                     struct_param=("X", 2))]
    if kind == "nat_double":
        p = _names(rng, "dbl", taken)
        dirs = (DIR_OUT2,) + ((DIR_TEST2,) if variant % 2 else ())
        body = (f"X = zero{AND}Y = zero{OR}exists X1: nat . exists Y1: nat . "
                f"X = s(X1){AND}{p}(X1, Y1){AND}Y = s(s(Y1))")
        return [Proc(p, (("X", "nat"), ("Y", "nat")), dirs, body, 2,
                     struct_param=("Y", 2))]
    if kind == "abs_diff":
        p = _names(rng, "dist", taken)
        body = f"ge(X, Y){AND}minus(X, Y, D){OR}lt(X, Y){AND}minus(Y, X, D)"
        return [Proc(p, (("X", "integer"), ("Y", "integer"), ("D", "integer")),
                     ("(ground, ground, var -> ground) : <1-1>",), body, 2)]
    if kind == "classify":
        # a conjunction of two disjunctions: 2 x 3 clauses
        p = _names(rng, "classify", taken)
        v1, v2 = rng.sample(values, 2)
        c = rng.randrange(-3, 4)
        body = (f"(lt(X, {c}){AND}S = {v1}{OR}ge(X, {c}){AND}S = {v2}){AND}"
                f"(X = 0{AND}P = zero{OR}gt(X, 0){AND}P = s(zero)"
                f"{OR}lt(X, 0){AND}P = s(s(zero)))")
        return [Proc(p, (("X", "integer"), ("S", ename), ("P", "nat")),
                     ("(ground, var -> ground, var -> ground) : <0-*>",), body, 6,
                     struct_param=("S", len(values)))]
    if kind == "exists_in_conj":
        p = _names(rng, "two_plus", taken)
        body = f"exists M: nat . N = s(M){AND}(exists K: nat . M = s(K))"
        return [Proc(p, (("N", "nat"),), ("(ground) : <0-1>",), body, 1,
                     struct_param=("N", 2), defect=DEFECT_MERCURY_EXISTS)]
    if kind == "universal":
        p = _names(rng, "no_pred", taken)
        body = "forall Y: nat . ~(X = s(Y))"
        return [Proc(p, (("X", "nat"),), ("(ground) : <0-1>",), body, 0,
                     derivable=False, struct_param=("X", 2))]
    raise ValueError(kind)


TYPICAL_KINDS = ("nat_to_int", "list_len", "list_fold", "enum_code", "acc_extreme",
                 "nat_less", "nat_double", "abs_diff", "classify")
TYPICAL_WORKSPACES = 24  # per pass
# workspace -> the template added to it that exercises a known defect
TYPICAL_DEFECTS = {4: "exists_in_conj", 16: "exists_in_conj", 10: "universal",
                   22: "universal"}
TYPICAL_MALFORMED = {7: "syntax", 13: "unknown-type", 19: "arity"}
TYPICAL_TYPES = frozenset({"nat", "integer_list", "nat_list", "nat_set", "integer",
                           "term", "atom", "float", "list"})


def _typical_types(enum) -> str:
    ename, values = enum
    return ("# shaped like docs/formats.md\n"
            "nat ::= zero | s(nat).\n"
            f"{ename} ::= enum {{{', '.join(values)}}}.\n"
            "integer_list ::= [] | [integer | integer_list].\n"
            "nat_list ::= [] | [nat | nat_list].\n"
            "nat_set == nat_list.\n")


def _corrupt(d: Path, procs: list, tld_lines: dict, how: str) -> tuple:
    """Break one declaration; returns (file name, plausible lines)."""
    victim = procs[0]
    line = tld_lines[victim.name]
    tld = d / "procs.tld"
    text = tld.read_text().splitlines(keepends=True)
    head = text[line - 1]
    if how == "syntax":
        head = head.replace("<=>", "<=", 1)
    elif how == "unknown-type":
        var, t = victim.params[0]
        head = head.replace(f"{var}: {t}", f"{var}: {t}_typo", 1)
    else:  # arity: the description loses its last parameter, or gains one
        var, t = victim.params[-1]
        head = head.replace(f", {var}: {t})", ")", 1) if victim.arity > 1 else \
            head.replace(f"({var}: {t})", f"({var}: {t}, Extra: nat)", 1)
    text[line - 1] = head
    tld.write_text("".join(text))
    return "procs.tld", {line}


def _maxprefix_jobs(maxprefix: Path, golden: Path, commands) -> list:
    manifest = str(maxprefix / "manifest.txt")
    types = frozenset({"integer", "integer_list"})
    jobs = []
    for cmd in commands:
        if cmd == "check":
            jobs.append(Job("maxprefix check", ("check", "--manifest", manifest), 0,
                            contains("ok: 2 descriptions")))
        elif cmd == "analyze":
            jobs.append(Job("maxprefix analyze", ("analyze", "--manifest", manifest), 0,
                            contains("procedure max_prefix_gen/3",
                                     "procedure max_prefix/2")))
        else:
            target = cmd.split()[1]
            ext = ".pl" if target == "prolog" else ".m"
            jobs.append(Job(f"maxprefix {cmd}",
                            ("gen", target, "--manifest", manifest), 0,
                            equals((golden / f"max_prefix{ext}").read_text()),
                            emits=True, type_names=types))
    return jobs


def compile_typical(seed: int, work: Path, maxprefix: Path, golden: Path) -> Workload:
    """Workspace w holds templates 2w and 2w+1 of the rotation; the defect
    and malformed workspaces sit at fixed places.  The seed picks names,
    constants, enums and the job order."""
    rng = random.Random(f"compile-typical/{seed}")
    variants: dict = {}
    jobs = _maxprefix_jobs(maxprefix, golden, ("check", "gen prolog", "gen mercury",
                                               "analyze"))
    for w in range(TYPICAL_WORKSPACES):
        name, values = rng.choice(ENUMS)
        enum = (name, tuple(rng.sample(values, 3 + w % 3)))
        taken: set = set()
        procs = []
        kinds = [TYPICAL_KINDS[(2 * w + i) % len(TYPICAL_KINDS)] for i in range(2)]
        if w in TYPICAL_DEFECTS:
            kinds.insert(1, TYPICAL_DEFECTS[w])
        for kind in kinds:
            procs += _typical_procs(kind, rng, taken, enum, variants.get(kind, 0))
            variants[kind] = variants.get(kind, 0) + 1
        manifest, tld_lines = write_workspace(work, f"typical{w:02d}",
                                              _typical_types(enum), procs)
        types = TYPICAL_TYPES | {enum[0]}
        broken = None
        if w in TYPICAL_MALFORMED:
            fname, lines = _corrupt(Path(manifest).parent, procs, tld_lines,
                                    TYPICAL_MALFORMED[w])
            broken = (f"{Path(manifest).parent.name}/{fname}", lines)
        jobs += _typical_jobs(manifest, procs, w, types, broken)
    rng.shuffle(jobs)
    return Workload("compile-typical", jobs)


def _typical_jobs(manifest: str, procs: list, w: int, types, broken=None) -> list:
    """The command mix of one workspace; --pred targets rotate with w."""
    ws = Path(manifest).parent.name
    derivable = [p for p in procs if p.derivable]
    blocked = [p for p in procs if not p.derivable]
    emittable = [p for p in derivable if not p.order_conflict]
    conflict = len(emittable) < len(derivable)
    structural = [p for p in procs if p.struct_param]
    pick = procs[w % len(procs):] + procs[:w % len(procs)]
    stage_t = ("untyped", "simplified")[w % 2]
    stage_d = ("normalized", "derived")[w // 2 % 2]
    skel = structural[w % len(structural)] if structural else None
    abort_all = DEFECT_ABORT_ALL if blocked else None
    mercury_defect = next((p.defect for p in procs if p.defect == DEFECT_MERCURY_EXISTS),
                          None) or abort_all

    def m(*argv):
        if argv[0] == "gen":
            return ("gen", argv[1], "--manifest", manifest) + argv[2:]
        return (argv[0], "--manifest", manifest) + argv[1:]

    def blocked_diag(out, err):
        return forge_positioned(err) if blocked else None

    def conflict_diag(out, err):
        return None if SPLIT in err else f"no split suggestion: {err[:200]!r}"

    def one(p: Proc, argv, ok_check, emits=False):
        label = f"{ws} {' '.join(argv[:2])} {p.name}"
        if not p.derivable:
            return Job(label, m(*argv), 1, lambda out, err: forge_positioned(err))
        if p.order_conflict and argv[:2] == ("gen", "prolog"):
            return Job(label, m(*argv), 1, conflict_diag)
        return Job(label, m(*argv), 0, ok_check, emits=emits, type_names=types)

    jobs = [
        Job(f"{ws} check", m("check"), 0, contains(f"ok: {len(procs)} descriptions")),
        # the analysis succeeds for every derivable procedure, whatever the
        # Prolog emitter would make of conflicting directionalities
        Job(f"{ws} analyze", m("analyze"), 1 if blocked else 0,
            all_of(contains(*(f"procedure {p.name}/{p.arity}" for p in derivable)),
                   blocked_diag),
            defect=abort_all or (DEFECT_ANALYZE_EMITS if conflict else None)),
        Job(f"{ws} gen prolog", m("gen", "prolog"), 1 if blocked or conflict else 0,
            all_of(clause_counts({p.name: p.disjuncts for p in emittable}), blocked_diag,
                   conflict_diag if conflict else no_check),
            emits=True, type_names=types,
            defect=DEFECT_ABORT_ALL if blocked or conflict else None),
        Job(f"{ws} gen mercury", m("gen", "mercury"), 1 if blocked else 0,
            all_of(contains(*(f":- pred {p.name}({', '.join(t for _, t in p.params)})."
                              for p in derivable)), blocked_diag),
            emits=True, type_names=types, defect=mercury_defect),
    ]
    p = pick[0]
    jobs.append(one(p, ("gen", "prolog", "--cuts", "--pred", p.name),
                    clause_counts({p.name: p.disjuncts}), emits=True))
    # the typed-to-untyped conversion is total: transform targets the
    # non-derivable description where there is one
    p = blocked[0] if blocked else pick[1 % len(pick)]
    jobs.append(Job(f"{ws} transform {p.name}",
                    m("transform", "--pred", p.name, "--emit-stage", stage_t), 0,
                    contains(f"{p.name}(" + ", ".join(f"{v}: term" for v, _ in p.params)
                             + ") <=>"),
                    defect=None if p.derivable else DEFECT_TRANSFORM))
    p = pick[2 % len(pick)]
    derived_check = (clause_counts({p.name: p.disjuncts}) if stage_d == "derived"
                     else lambda out, err: None if out.strip() else "empty output")
    jobs.append(one(p, ("derive", "--pred", p.name, "--emit-stage", stage_d),
                    derived_check))
    if skel is not None:
        var, cases = skel.struct_param
        jobs.append(Job(f"{ws} skeleton {skel.name}", m("skeleton", "--pred", skel.name, var),
                        0, lambda out, err, n=cases: None if out.count("#hole") == n + 1
                        else f"{out.count('#hole') - 1} holes, expected {n}"))
    if broken is not None:
        path, lines = broken
        for j in jobs:
            j.expect, j.defect, j.emits = 1, None, False
            j.check = lambda out, err, path=path, lines=lines: positioned(err, path, lines)
    return jobs


# ---------------------------------------------------------------------------
# compile-superlinear
# ---------------------------------------------------------------------------

# clause literals -> inputs per pass; the four n = 7 inputs cost alike and
# straddle the 90th percentile of job latency, which keeps job_p90_ms steady
SUPER_FAILING = {5: 6, 6: 4, 7: 4, 8: 1}
SUPER_CHAINS = (5, 6, 7, 8)  # clause literals, two inputs of each kind per pass
SUPER_DNF = range(4, 11)  # conjoined two-way disjunctions, one input each
SUPER_TYPES = frozenset({"integer", "term"})
NO_ORDER = "no literal permutation satisfies the directionality"


def failing_proc(rng: random.Random, name: str, n: int) -> Proc:
    """n literals, all callable in any order, none defining the output Y:
    every permutation is tried before the reorder gives up."""
    lits = []
    for i in range(n - 1):  # plus the inserted integer(X) check
        c = rng.randrange(-9, 10)
        lits.append((f"gt(X, {c})", f"plus(X, {c}, V{i})", f"lt(X, {c})",
                     f"times(X, {c}, V{i})", f"ge(X, {c})", f"le(X, {c})")[i % 6])
    rng.shuffle(lits)
    return Proc(name, (("X", "integer"), ("Y", "term")),
                ("(ground, var -> ground) : <0-*>",), AND.join(lits), 1)


def chain_proc(rng: random.Random, name: str, n: int, trap: tuple | None) -> tuple:
    """A reverse data-flow chain from X to Y: each times/3 needs the value
    the previous one computes, so the valid order is unique.  With a trap,
    the mid-chain value M feeds src(M, Z), which needs Z unbound, and
    split(M, Z, W), which binds W and also Z when Z is unbound.  split is
    written first; taking it first leaves src unrunnable, so the search
    has to backtrack to run src before split.

    Returns the procedure and its unique literal order."""
    ks = [rng.randrange(2, 6) for _ in range(n)]
    if trap is None:
        steps = n - 2  # plus the inserted integer(X) and integer(Y) checks
        order = [f"times({'X' if i == 0 else f'V{i}'}, {ks[i]}, "
                 f"{'Y' if i == steps - 1 else f'V{i + 1}'})" for i in range(steps)]
        body = AND.join(reversed(order))
        return Proc(name, (("X", "integer"), ("Y", "integer")), (DIR_OUT2,), body, 1), order
    src, t3 = trap
    steps = n - 4  # plus src, t3, integer(X) and integer(Y)
    j = steps // 2
    names = ["X"] + [f"V{i}" for i in range(1, steps)] + ["Y"]
    order = []
    for i in range(steps):
        left = names[i] if i != j else "W"
        order.append(f"times({left}, {ks[i]}, {names[i + 1]})")
    mid = names[j]
    order[j:j] = [f"{src}({mid}, Z)", f"{t3}({mid}, Z, W)"]
    written = [order[j + 1], order[j]] + list(reversed(order[:j] + order[j + 2:]))
    return Proc(name, (("X", "integer"), ("Y", "integer")), (DIR_OUT2,),
                AND.join(written), 1), order


def trap_specs(src: str, t3: str) -> str:
    return (f"procedure {src}(A, B).\ntype A : integer.\ntype B : integer.\n"
            "dir (ground, var -> ground) : <1-1>.\n\n"
            f"procedure {t3}(A, B, C).\ntype A : integer.\ntype B : integer.\n"
            "type C : integer.\n"
            "dir (ground, var -> ground, var -> ground) : <1-1>.\n"
            "dir (ground, ground, var -> ground) : <0-1>.\n\n")


def dnf_proc(rng: random.Random, name: str, k: int) -> Proc:
    parts = []
    for _ in range(k):
        c = rng.randrange(-20, 21)
        # builtin tests only: a negated equality would gain a third
        # disjunct from its inserted type check
        parts.append(rng.choice((f"(lt(X, {c}){OR}ge(X, {c}))",
                                 f"(le(X, {c}){OR}gt(X, {c}))")))
    # Y comes from a variable-variable unification, which establishes no
    # type, so every clause keeps its integer(Y) check
    body = AND.join(parts) + f"{AND}plus(X, {rng.randrange(1, 9)}, V){AND}Y = V"
    return Proc(name, (("X", "integer"), ("Y", "integer")),
                ("(ground, var -> ground) : <0-*>",), body, 2 ** k)


SUPER_HEADER = "# only the built-in integer and term types\n"


def _order_check(name: str, order: list, report: bool):
    def run(out, err):
        if report:
            m = re.search(r"order \(clause 1\): (.*)", out)
            body = m.group(1).split(", ") if m else []
            # split on ", " breaks calls apart; rejoin by counting parentheses
            lits, cur = [], ""
            for part in body:
                cur = f"{cur}, {part}" if cur else part
                if cur.count("(") == cur.count(")"):
                    lits.append(cur)
                    cur = ""
        else:
            clauses = [b for h, b in prolog_clauses(out) if h == name]
            lits = clauses[0] if len(clauses) == 1 else []
        lits = [lit for lit in lits if not re.fullmatch(r"integer\(\w+\)", lit)]
        return None if lits == order else f"literal order {lits}, expected {order}"
    return run


def compile_superlinear(seed: int, work: Path) -> Workload:
    rng = random.Random(f"compile-superlinear/{seed}")
    jobs = []
    w = 0
    kinds = ("gen prolog", "gen mercury", "analyze")

    def argv(kind, manifest, pred):
        if kind == "analyze":
            return ("analyze", "--manifest", manifest, "--pred", pred)
        return ("gen", kind.split()[1], "--manifest", manifest, "--pred", pred)

    def emit_job(label, kind, manifest, expect, check, emits):
        return Job(label, argv(kind, manifest, label.split()[-1]), expect, check,
                   emits=emits and kind != "analyze", type_names=SUPER_TYPES)

    for n, count in SUPER_FAILING.items():
        for _ in range(count):
            taken: set = set()
            p = failing_proc(rng, _names(rng, f"nofix{n}", taken), n)
            manifest, _ = write_workspace(work, f"super{w:02d}", SUPER_HEADER, [p])
            w += 1
            kind = kinds[w % len(kinds)]
            jobs.append(emit_job(f"{kind} {p.name}", kind, manifest, 1,
                                 lambda out, err: None if NO_ORDER in err
                                 else f"no reorder failure reported: {err[:200]!r}",
                                 False))
    for n in SUPER_CHAINS:
        for j, trapped in enumerate((False, True, False, True)):
            taken = set()
            trap = (_names(rng, "src", taken), _names(rng, "split", taken)) \
                if trapped else None
            p, order = chain_proc(rng, _names(rng, f"chain{n}", taken), n, trap)
            extra = trap_specs(*trap) if trap else ""
            manifest, _ = write_workspace(work, f"super{w:02d}", SUPER_HEADER, [p], extra)
            w += 1
            kind = ("gen prolog", "analyze")[j // 2]
            jobs.append(emit_job(f"{kind} {p.name}", kind, manifest, 0,
                                 _order_check(p.name, order, kind == "analyze"), True))
    for k in SUPER_DNF:
        taken = set()
        p = dnf_proc(rng, _names(rng, f"dnf{k}", taken), k)
        manifest, _ = write_workspace(work, f"super{w:02d}", SUPER_HEADER, [p])
        w += 1
        kind = "gen prolog" if k % 2 == 0 else "gen mercury"
        check = (clause_counts({p.name: 2 ** k}) if kind == "gen prolog"
                 else contains(f":- pred {p.name}(integer, integer)."))
        jobs.append(emit_job(f"{kind} {p.name}", kind, manifest, 0, check, True))
    rng.shuffle(jobs)
    return Workload("compile-superlinear", jobs, scaling_series(seed, work))


def scaling_series(seed: int, work: Path) -> list:
    """Failing reorder at n = 4..8 and DNF at k = 4..10, one input each."""
    rng = random.Random(f"scaling/{seed}")
    series = []
    for n in range(4, 9):
        p = failing_proc(rng, f"nofix{n}", n)
        manifest, _ = write_workspace(work, f"scale_n{n}", SUPER_HEADER, [p])
        series.append((f"scaling.reorder_fail_n{n}_ms",
                       Job(p.name, ("analyze", "--manifest", manifest, "--pred", p.name),
                           1, lambda out, err: None if NO_ORDER in err else "no failure")))
    for k in SUPER_DNF:
        p = dnf_proc(rng, f"dnf{k}", k)
        manifest, _ = write_workspace(work, f"scale_k{k}", SUPER_HEADER, [p])
        series.append((f"scaling.dnf_gen_prolog_k{k}_ms",
                       Job(p.name, ("gen", "prolog", "--manifest", manifest,
                                    "--pred", p.name), 0,
                           clause_counts({p.name: 2 ** k}))))
    return series


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

# the transformation rows of the oracle fixtures: (label, formula over the
# placeholders {X} {Y} {q} {o} {o2} {F}, parameter types with F for the enum)
ROWS = (
    ("eq-var-var", "{X} = {Y}", ("nat", "nat")),
    ("eq-var-var-mixed", "{X} = {Y}", ("nat", "F")),
    ("eq-same-var", "{X} = {X}", ("nat",)),
    ("eq-compound", "{X} = s({Y})", ("nat", "nat")),
    ("eq-constant", "{X} = s(zero)", ("nat",)),
    ("eq-undeclared-functor", "{Y} = mk({X}, {X})", ("nat", "nat")),
    ("exists-witness", "exists {Y}: nat . {X} = s({Y})", ("nat",)),
    ("exists-equal", "exists {Y}: {F} . {Y} = {X}", ("F",)),
    ("exists-call", "exists {Y}: term . {q}({Y}){AND}{X} = {Y}", ("nat",)),
    ("forall-guarded", "forall {Y}: {F} . {Y} = {o} => {X} = zero", ("nat",)),
    ("forall-and", "(forall {Y}: nat . {q}({Y}) => {Y} = {Y}){AND}{X} = zero", ("nat",)),
    ("and-chain", "{X} = zero{AND}{Y} = s({X})", ("nat", "nat")),
    ("or-same-var", "{X} = zero{OR}{X} = s(zero)", ("nat",)),
    ("or-split-vars", "{X} = zero{OR}{Y} = {o}", ("nat", "F")),
    ("not-eq", "~({X} = zero)", ("nat",)),
    ("not-eq-two", "~({X} = {Y})", ("nat", "nat")),
    ("not-call", "~{q}({X})", ("nat",)),
    ("implies", "{X} = zero => {Y} = {o}", ("nat", "F")),
    ("implies-call", "{q}({X}) => {X} = zero", ("nat",)),
    ("iff", "{X} = zero <=> {Y} = {o2}", ("nat", "F")),
    ("iff-call", "{q}({X}) <=> {X} = zero", ("nat",)),
    ("atom-passthrough", "{q}({X})", ("nat",)),
    ("true-conjunct", "true{AND}{X} = zero", ("nat",)),
    ("false-disjunct", "false{OR}{X} = zero", ("nat",)),
    ("nested-exists-not", "exists {Y}: nat . {X} = s({Y}){AND}~({Y} = zero)", ("nat",)),
)
ORACLE_DEPTHS = (2, 3)
ORACLE_ROWS_PER_WORKSPACE = 5
VAR_PAIRS = (("X", "Y"), ("A", "B"), ("M", "N"), ("P", "Q"), ("U", "W"), ("K", "L"))


def oracle_sweep(seed: int, work: Path, maxprefix: Path, golden: Path) -> Workload:
    rng = random.Random(f"oracle-sweep/{seed}")
    ename, values = rng.choice(ENUMS)
    values = tuple(rng.sample(values, 3))  # the fixtures' enum has three values
    types_text = f"nat ::= zero | s(nat).\n{ename} ::= enum {{{', '.join(values)}}}.\n"
    decl = {"nat": (("zero", ()), ("s", ("nat",))), ename: tuple((v, ()) for v in values)}
    sizes = {d: type_sizes(decl, d) for d in (1, 2, 3)}
    rows = list(ROWS)
    jobs, agree = [], []
    for w in range(0, len(rows), ORACLE_ROWS_PER_WORKSPACE):
        taken: set = set()
        q = _names(rng, "small", taken)
        procs = [Proc(q, (("X", "nat"),), ("(ground) : <0-1>",),
                      f"X = zero{OR}X = s(zero)", 2)]
        for label, shape, ptypes in rows[w:w + ORACLE_ROWS_PER_WORKSPACE]:
            x, y = rng.choice(VAR_PAIRS)
            o, o2 = rng.sample(values, 2)
            body = shape.format(X=x, Y=y, q=q, o=o, o2=o2, F=ename, AND=AND, OR=OR)
            types = tuple(ename if t == "F" else t for t in ptypes)
            params = tuple(zip((x, y), types))
            name = _names(rng, "row_" + label.replace("-", "_"), taken)
            modes = ", ".join("ground" for _ in params)
            procs.append(Proc(name, params, (f"({modes}) : <0-1>",), body, 0,
                              derivable=not label.startswith("forall")))
        manifest, _ = write_workspace(work, f"oracle{w // ORACLE_ROWS_PER_WORKSPACE}",
                                      types_text, procs)
        for p in procs[1:]:
            for depth in ORACLE_DEPTHS:
                total = sizes[depth]["term"] ** p.arity
                jobs.append(Job(f"oracle d{depth} {p.name}",
                                ("oracle", "equiv", "--manifest", manifest,
                                 "--pred", p.name, "--depth", str(depth)), 0,
                                _oracle_check(total)))
            pools = 1
            for _, t in p.params:
                pools *= sizes[2][t]
            agree.append(Job(f"agree d2 {p.name}", ("agree", manifest, p.name, 2),
                             0 if p.derivable else 1,
                             _agree_check(pools) if p.derivable else
                             (lambda out, err: None if "NotDerivableError" in err
                              else "expected NotDerivableError")))
    mp_manifest = str(maxprefix / "manifest.txt")
    mp_types = {"integer_list": (("[]", ()), ("[|]", ("integer", "integer_list")))}
    for depth in ORACLE_DEPTHS:
        total = type_sizes(mp_types, depth)["term"] ** 3
        jobs.append(Job(f"oracle d{depth} max_prefix_gen",
                        ("oracle", "equiv", "--manifest", mp_manifest,
                         "--pred", "max_prefix_gen", "--depth", str(depth)), 0,
                        _oracle_check(total)))
    jobs += agree
    jobs += _maxprefix_jobs(maxprefix, golden, ("gen prolog", "gen mercury"))
    series = [(f"scaling.oracle_maxprefix_d{d}_ms",
               Job("max_prefix_gen", ("oracle", "equiv", "--manifest", mp_manifest,
                                      "--pred", "max_prefix_gen", "--depth", str(d)), 0,
                   _oracle_check(type_sizes(mp_types, d)["term"] ** 3)))
              for d in ORACLE_DEPTHS]
    return Workload("oracle-sweep", jobs, series)


def _oracle_check(total: int):
    def run(out, err):
        m = re.search(r"checked (\d+) bindings", out)
        if not m or int(m.group(1)) != total:
            return f"bindings {m and m.group(1)}, expected {total}"
        if "violations: 0," not in out:
            return "violations reported"
        return None
    return run


def _agree_check(total: int):
    def run(out, err):
        m = re.search(r"total=(\d+) disagree=(\d+)", out)
        if not m:
            return f"no agreement report: {out[:100]!r}"
        if int(m.group(1)) != total or int(m.group(2)) != 0:
            return f"{m.group(0)}, expected total={total} disagree=0"
        return None
    return run


# workload -> generator(seed, work dir, maxprefix dir, golden dir)
GENERATORS = {
    "compile-typical": compile_typical,
    "compile-superlinear": lambda seed, work, mp, golden: compile_superlinear(seed, work),
    "oracle-sweep": oracle_sweep,
}
