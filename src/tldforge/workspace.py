"""On-disk workspaces and the staged pipeline.

A workspace is described by a manifest: one declaration per line naming the
type, specification and description files, plus an optional output
directory.  Loading parses everything, registers the built-in callee
preamble, and validates the environment, the directionalities and all
cross-references; any error makes the load fail as a whole.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

from . import typesys
from .ast import UNIVERSAL_TYPE, Atom, Exists, Forall, Var, subformulas
from .diagnostics import SourceDiagnostic, SourcePos, error, has_errors, warning
from .errors import WorkspaceError
from .modes import Spec, check_directionality
from .parser import parse_specs, parse_tlds, parse_type_defs
from .printer import (format_clause, format_formula, format_ld, format_literal,
                      format_tld)
from .records import record
from .typesys import TypeEnv

STAGE_NAMES = ("tld", "untyped", "simplified", "normalized", "derived",
               "ordered", "eliminated")

# The stage modules and the names bound here from each.  A command that only
# loads a workspace (check, skeleton) never runs a stage, so they are imported
# together by the first call that needs one of them, not at start-up.
_STAGES = {
    "analysis": ("Registry", "analyze_procedure"),
    "codegen": ("emit_mercury", "emit_prolog", "flatten_program"),
    "derive": ("derive_clauses", "normalize", "normalized_formula"),
    "semantics": ("EvalContext", "check_equivalence"),
    "transform": ("simplify_description", "transform_tld"),
}
_stages_loaded = False


def _load_stages() -> None:
    """Import the stage modules on the first call.  A name already bound
    here, such as a replacement a caller installed, is kept."""
    global _stages_loaded
    if _stages_loaded:
        return
    bound = globals()
    for module, names in _STAGES.items():
        stage = importlib.import_module(f".{module}", __package__)
        for name in names:
            bound.setdefault(name, getattr(stage, name))
    _stages_loaded = True


def __getattr__(name: str):
    # a stage name looked up before any stage ran
    if not _stages_loaded and any(name in names for names in _STAGES.values()):
        _load_stages()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# a module global rather than functools.cache: perfbench/tracing.py reads the
# __wrapped__ attribute of a cached function as a wrapper left installed
_builtin_specs: tuple | None = None


def builtin_specs() -> tuple[Spec, ...]:
    """The built-in callee preamble, parsed once per process."""
    global _builtin_specs
    if _builtin_specs is None:
        text = pkgutil.get_data(__package__, "data/builtins.spec").decode("utf-8")
        specs, diags = parse_specs(text, "<builtins>")
        if has_errors(diags):
            raise WorkspaceError("builtin callee registry failed to parse")
        _builtin_specs = tuple(specs)
    return _builtin_specs


class Workspace(NamedTuple):
    """A loaded and validated workspace: types, specifications and descriptions."""

    manifest: Path
    env: TypeEnv
    specs: dict  # name -> Spec, builtins included
    tlds: dict  # name -> TypedLogicDescription
    out_dir: Path | None = None

    @property
    def registry(self) -> Registry:
        _load_stages()
        return Registry(self.env, self.specs)

    def eval_context(self, universe_depth: int = 2, unfold_depth: int = 4) -> EvalContext:
        _load_stages()
        return EvalContext(self.env, _DescriptionPairs(self.tlds),
                           universe_depth, unfold_depth)


class _DescriptionPairs(Mapping):
    """name -> (typed, untyped description) for every description; the
    untyped one is built on its first lookup, so an oracle run transforms
    only the descriptions it unfolds."""

    def __init__(self, tlds: dict):
        self._tlds = tlds
        self._pairs: dict = {}

    def __getitem__(self, name: str) -> tuple:
        pair = self._pairs.get(name)
        if pair is None:
            tld = self._tlds[name]
            pair = self._pairs[name] = (tld, simplify_description(transform_tld(tld)))
        return pair

    def __contains__(self, name) -> bool:
        return name in self._tlds

    def __iter__(self):
        return iter(self._tlds)

    def __len__(self) -> int:
        return len(self._tlds)


class LoadResult(NamedTuple):
    """A loaded workspace, or None when an error was reported, with every diagnostic."""

    workspace: Workspace | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.workspace is not None


def _read_text(path: Path, diags: list) -> str | None:
    """The file's text, decoded as UTF-8 with universal newlines, or None
    with an ``encoding`` error at the first byte that does not decode."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        pos = SourcePos(str(path), head.count("\n") + 1, len(head) - head.rfind("\n"))
        diags.append(error("encoding", f"byte 0x{data[e.start]:02x} is not UTF-8", pos))
        return None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_workspace(manifest: str | Path) -> LoadResult:
    manifest = Path(manifest)
    diags: list[SourceDiagnostic] = []
    if not manifest.is_file():
        return LoadResult(None, [error("missing-file", f"manifest not found: {manifest}")])
    manifest_text = _read_text(manifest, diags)
    if manifest_text is None:
        return LoadResult(None, diags)
    root = manifest.parent
    # kind -> (path, position of the manifest line naming it) per listed file
    files: dict = {"types": [], "spec": [], "tld": []}
    out_dir: Path | None = None
    for lineno, raw in enumerate(manifest_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pos = SourcePos(str(manifest), lineno, 1)
        parts = line.split(None, 1)
        if len(parts) != 2:
            diags.append(error("manifest", f"malformed manifest line: {raw!r}", pos))
            continue
        kind, arg = parts
        path = root / arg.strip()
        if kind in files:
            files[kind].append((path, pos))
        elif kind == "out":
            # gen creates the directory: its nearest existing ancestor must be one
            existing = next(q for q in (path, *path.parents) if q.exists())
            if not existing.is_dir():
                diags.append(error("out-dir", f"not a directory: {existing}", pos))
            out_dir = path
        else:
            diags.append(error("manifest", f"unknown declaration {kind!r}", pos))
    texts = {}
    for p, pos in files["types"] + files["spec"] + files["tld"]:
        if p.is_file():
            texts[p] = _read_text(p, diags)
        else:
            diags.append(error("missing-file", f"file not found: {p}", pos))
    if has_errors(diags):
        return LoadResult(None, diags)

    defs = []
    seen_types: dict = {}
    for p, _ in files["types"]:
        file_defs, file_diags = parse_type_defs(texts[p], str(p))
        diags.extend(file_diags)
        for d in file_defs:
            if d.name in seen_types:
                diags.append(error("dup-type",
                                   f"type {d.name} already defined in {seen_types[d.name]}",
                                   d.pos))
            else:
                seen_types[d.name] = str(p)
                defs.append(d)
    env = TypeEnv(defs)
    diags.extend(typesys.check_env(env))

    specs: dict = {s.name: s for s in builtin_specs()}
    for p, _ in files["spec"]:
        file_specs, file_diags = parse_specs(texts[p], str(p))
        diags.extend(file_diags)
        for s in file_specs:
            if s.name in specs:
                diags.append(error("dup-spec",
                                   f"procedure {s.name} is specified twice", s.pos))
                continue
            specs[s.name] = s
            diags.extend(check_directionality(s))
            for t in s.param_types:
                if t not in env:
                    diags.append(error("unknown-type",
                                       f"{s.name}: unknown parameter type {t}", s.pos))

    tlds: dict = {}
    for p, _ in files["tld"]:
        file_tlds, file_diags = parse_tlds(texts[p], str(p))
        diags.extend(file_diags)
        for t in file_tlds:
            if t.predicate in tlds:
                diags.append(error("dup-tld",
                                   f"{t.predicate} is described twice", t.pos))
                continue
            tlds[t.predicate] = t
            for _, tname in t.params:
                if tname not in env:
                    diags.append(error("unknown-type",
                                       f"{t.predicate}: unknown parameter type {tname}",
                                       t.pos))

    # cross references: descriptions must match their specs, callees must
    # resolve, and call-site annotations must agree with the callee's types
    # (the typed-to-untyped conversion leaves atoms alone, so a mismatched
    # call site would escape the equivalence contract)
    for name, tld in tlds.items():
        spec = specs.get(name)
        if spec is None:
            diags.append(error("unresolved-ref",
                               f"{name} has a description but no specification", tld.pos))
        elif spec.arity != tld.arity:
            diags.append(error("unresolved-ref",
                               f"{name}: specification arity {spec.arity} but "
                               f"description arity {tld.arity}", tld.pos))
        else:
            diags.extend(_param_mismatches(spec, tld, env))
        for callee, arity, arg_types in _called_predicates(tld, env, diags):
            callee_spec = specs.get(callee)
            if callee_spec is None:
                diags.append(error("unresolved-ref",
                                   f"{name} calls {callee}/{arity}, which has no "
                                   "specification", tld.pos))
                continue
            if callee_spec.arity != arity:
                diags.append(error("unresolved-ref",
                                   f"{name} calls {callee}/{arity}, but its "
                                   f"specification has arity {callee_spec.arity}",
                                   tld.pos))
                continue
            for i, (got, declared) in enumerate(zip(arg_types,
                                                    callee_spec.param_types), start=1):
                if got is None or got == "term" or declared == "term":
                    continue
                if not env.same_type(got, declared):
                    diags.append(warning(
                        "call-site-type",
                        f"{name}: argument {i} of {callee} is annotated {got} "
                        f"but the callee declares {declared}", tld.pos))
    if has_errors(diags):
        return LoadResult(None, diags)
    return LoadResult(Workspace(manifest, env, specs, tlds, out_dir), diags)


def _param_mismatches(spec: Spec, tld, env: TypeEnv) -> list:
    """A description's parameters against its specification's, position by
    position: the names must be the same, and two known types other than
    ``term`` should be."""
    names = tuple(n for n, _ in tld.params)
    if names != spec.params:
        return [error("spec-mismatch",
                      f"{tld.predicate}: description parameters ({', '.join(names)}) "
                      f"differ from the specification's ({', '.join(spec.params)})",
                      tld.pos)]
    return [warning("spec-mismatch",
                    f"{tld.predicate}: parameter {n} is {got} in the description "
                    f"but {declared} in the specification", tld.pos)
            for (n, got), declared in zip(tld.params, spec.param_types)
            if got != declared and got in env and declared in env
            and UNIVERSAL_TYPE not in (got, declared) and not env.same_type(got, declared)]


def _called_predicates(tld, env: TypeEnv, diags: list):
    """Predicate atoms with the annotated type of each variable argument;
    a quantifier over an unknown type is reported into ``diags``."""
    out = []

    def walk(g, scope: dict):
        if isinstance(g, Atom):
            if len(g.args) == 1 and g.predicate in env:
                return  # a membership check, not a call
            arg_types = []
            for a in g.args:
                arg_types.append(scope.get(a.name) if isinstance(a, Var) else None)
            out.append((g.predicate, len(g.args), tuple(arg_types)))
            return
        if isinstance(g, (Exists, Forall)):
            if g.type_name not in env:
                diags.append(error("unknown-type", f"{tld.predicate}: unknown "
                                   f"quantifier type {g.type_name} for {g.var}", g.pos))
            walk(g.body, {**scope, g.var: g.type_name})
            return
        for child in subformulas(g):
            walk(child, scope)

    walk(tld.definition, tld.param_env())
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@record
class PipelineResult:
    """One procedure's run of the pipeline, filled in stage by stage."""

    __hash__ = None  # a mutable record

    predicate: str
    code: str = ""
    report: str = ""
    warnings: list = []  # a new list per instance
    failure: str | None = None
    analysis: list = []  # a new list per instance

    @property
    def ok(self) -> bool:
        return self.failure is None


def _format_clauses(prog) -> str:
    return "\n".join(format_clause(c) for c in prog.clauses) + "\n"


def _format_report(predicate: str, spec: Spec, analysis: list) -> str:
    lines = [f"procedure {predicate}/{spec.arity}"]
    for k, res in enumerate(analysis, start=1):
        lines.append(f"  directionality {k}: {res.directionality}")
        if not res.ok:
            lines.append("    no executable literal order: "
                         + "; ".join((res.failure.reason, *res.failure.blocked)))
            continue
        for i, clause in enumerate(res.eliminated.clauses, start=1):
            body = ", ".join(format_literal(lit) for lit in clause.body) or "true"
            lines.append(f"    order (clause {i}): {body}")
        removed = ", ".join(
            f"clause {rc.clause_index + 1}: {format_literal(rc.literal)}"
            for rc in res.removed) or "none"
        lines.append(f"    removed checks: {removed}")
        verdict = "ok" if res.determinism.ok else "outside the declared bounds"
        lines.append(f"    computed multiplicity: {res.determinism.computed} "
                     f"(declared {res.determinism.declared}) [{verdict}]")
    return "\n".join(lines) + "\n"


def run_pipeline(ws: Workspace, predicate: str, target: str | None = "prolog",
                 level: str = "paper-compat", dir_index: int = 0,
                 cuts: bool = False, split: bool = False,
                 stage: str | None = None) -> PipelineResult:
    """transform -> simplify -> derive -> reorder -> eliminate -> analyze -> emit.

    With a ``stage``, the pipeline stops there and ``code`` holds that
    stage's dump; no other stage is formatted.  With ``target=None`` it
    stops after the analysis and ``report`` holds the analysis report,
    which is formatted only then.
    """
    tld = ws.tlds.get(predicate)
    spec = ws.specs.get(predicate)
    if tld is None or spec is None:
        raise WorkspaceError(f"{predicate} needs both a specification and a description")
    if not spec.directionalities:
        raise WorkspaceError(f"{predicate} declares no directionalities")
    # under --split, a procedure with fewer directionalities is emitted as
    # the versions its callers name
    if dir_index < 0 or (dir_index >= len(spec.directionalities) and not (
            split and target == "prolog" and stage is None)):
        raise WorkspaceError(f"{predicate} has no directionality {dir_index + 1}")
    if stage is not None and stage not in STAGE_NAMES:
        raise WorkspaceError(f"unknown stage {stage!r}; "
                             f"choose from {', '.join(STAGE_NAMES)}")
    _load_stages()
    result = PipelineResult(predicate)
    type_names = frozenset(ws.env.defs)
    registry = ws.registry

    def dump(text: str) -> PipelineResult:
        result.code = text
        return result

    if stage == "tld":
        return dump(format_tld(tld))
    ld_raw = transform_tld(tld)
    if stage == "untyped":
        return dump(format_ld(ld_raw))
    ld = simplify_description(ld_raw)
    if stage == "simplified":
        return dump(format_ld(ld))
    nb = normalize(ld, type_names)
    if stage == "normalized":
        return dump(format_formula(normalized_formula(nb)) + "\n")
    prog = flatten_program(derive_clauses(ld, type_names, nb))
    del nb  # free before analysis what of the normal form the program does not share
    if stage == "derived":
        return dump(_format_clauses(prog))

    analysis = analyze_procedure(prog, spec, registry, level)
    result.analysis = analysis
    for k, res in enumerate(analysis, start=1):
        if res.ok and not res.determinism.ok:
            result.warnings.append(
                f"{predicate}: directionality {k} computed {res.determinism.computed}, "
                f"declared {res.determinism.declared}")
    if target is None:
        result.report = _format_report(predicate, spec, analysis)

    failures = [r for r in analysis if not r.ok]
    if failures:
        f = failures[0].failure
        result.failure = (
            f"{predicate}: {f.reason} for {f.directionality}; "
            + "".join(f"{why}; " for why in f.blocked) + "alternatives: "
            + "; or ".join(f.suggestions))
        return result

    if stage == "ordered":
        return dump(_format_clauses(analysis[dir_index].ordered))
    if stage == "eliminated":
        return dump(_format_clauses(analysis[dir_index].eliminated))
    if target is None:
        return result

    if target == "prolog":
        result.code = emit_prolog(spec, analysis, registry, dir_index, cuts, split,
                                  ws.tlds)
    elif target == "mercury":
        text, warnings = emit_mercury(tld, spec, analysis)
        result.code = text
        result.warnings.extend(warnings)
    else:
        raise WorkspaceError(f"unknown target {target!r}")
    return result


def run_oracle(ws: Workspace, predicate: str, depth: int = 2,
               unfold_depth: int = 4):
    """Typed/untyped equivalence for one description, over its parameters."""
    tld = ws.tlds.get(predicate)
    if tld is None:
        raise WorkspaceError(f"no description for {predicate}")
    _load_stages()
    ctx = ws.eval_context(universe_depth=depth, unfold_depth=unfold_depth)
    ld = ctx.predicates[predicate][1]
    return check_equivalence(ctx, tld.definition, ld.definition, list(tld.params))


def suggest_skeleton(ws: Workspace, spec_name: str, induction_param: str) -> str:
    """A description skeleton built from the induction parameter's
    structural forms, one hole marker per case."""
    spec = ws.specs.get(spec_name)
    if spec is None:
        raise WorkspaceError(f"no specification for {spec_name}")
    if induction_param not in spec.params:
        raise WorkspaceError(f"{spec_name} has no parameter {induction_param}")
    ptype = spec.param_types[spec.params.index(induction_param)]
    forms = ws.env.structural_forms(ptype, induction_param)
    header = ", ".join(f"{p}: {t}" for p, t in zip(spec.params, spec.param_types))
    lines = [f"# skeleton for {spec_name}; replace each #hole with the case's formula",
             f"{spec_name}({header}) <=>"]
    for i, form in enumerate(forms):
        sep = "   " if i == 0 else "\\/ "
        lines.append(f"    {sep}{format_formula(form)} /\\ #hole")
    lines.append("    .")
    return "\n".join(lines) + "\n"
