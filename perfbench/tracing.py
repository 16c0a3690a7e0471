"""Spans and counters recorded around the program's public functions.

The tracer replaces a function where the pipeline looks it up (a module
attribute such as ``tldforge.cli.run_pipeline``, or a class attribute such
as ``TypeEnv.enumerate_type``) with a wrapper that records a span: name,
start, end, parent span and job id.  Hot functions get wrappers that only
count calls, attributed to the enclosing span.  Spans stay in memory until
the run ends; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _type_checks(formula) -> int:
    """One-argument atoms in a formula: the shape of a type-check literal."""
    from tldforge.ast import Atom, subformulas
    count, stack = 0, [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom) and len(f.args) == 1:
            count += 1
        stack.extend(subformulas(f))
    return count


def _on_tokenize(counts, args, result):
    counts["parser.tokens"] += len(result)


def _on_transform(counts, args, result):
    counts["transform.checks_inserted"] += (_type_checks(result.definition)
                                            - _type_checks(args[0].definition))


def _on_simplify(counts, args, result):
    counts["transform.checks_simplified"] += (_type_checks(args[0].definition)
                                              - _type_checks(result.definition))


def _on_normalize(counts, args, result):
    counts["derive.normalize_calls"] += 1


def _on_derive(counts, args, result):
    counts["derive.clauses"] += len(result.clauses)
    counts["derive.literals"] += sum(len(c.body) for c in result.clauses)


def _on_reorder(counts, args, result):
    counts["analysis.reorder_calls"] += 1
    if hasattr(result, "reason"):  # a ReorderFailure
        counts["analysis.reorder_failures"] += 1
    else:
        counts["analysis.literals_scheduled"] += len(result.body)


def _on_eliminate(counts, args, result):
    counts["analysis.checks_removed"] += len(result.removed)


def _on_equiv(counts, args, result):
    counts["semantics.bindings_covered"] += result.total


def _on_agree(counts, args, result):
    counts["semantics.agree_bindings"] += result.total


def _on_enumerate(counts, args, result):
    counts["typesys.universe_terms"] += len(result)


# (module, attribute, span name, result hook); the module is where the
# caller looks the function up, so a function imported into two modules is
# wrapped twice
SPANS = (
    ("tldforge.cli", "load_workspace", "workspace.load", None),
    ("tldforge.cli", "run_pipeline", "workspace.run_pipeline", None),
    ("tldforge.cli", "run_oracle", "workspace.run_oracle", None),
    ("tldforge.cli", "suggest_skeleton", "workspace.skeleton", None),
    ("tldforge.workspace", "load_workspace", "workspace.load", None),
    ("tldforge.workspace", "builtin_specs", "workspace.builtins", None),
    ("tldforge.workspace", "parse_type_defs", "parser.parse", None),
    ("tldforge.workspace", "parse_specs", "parser.parse", None),
    ("tldforge.workspace", "parse_tlds", "parser.parse", None),
    ("tldforge.parser", "tokenize", "parser.tokenize", _on_tokenize),
    ("tldforge.typesys", "check_env", "typesys.check_env", None),
    ("tldforge.workspace", "check_directionality", "modes.check_directionality", None),
    ("tldforge.workspace", "transform_tld", "transform", _on_transform),
    ("tldforge.workspace", "simplify_description", "transform", _on_simplify),
    ("tldforge.workspace", "normalize", "derive.normalize", _on_normalize),
    ("tldforge.derive", "normalize", "derive.normalize", _on_normalize),
    ("tldforge.workspace", "derive_clauses", "derive.derive_clauses", _on_derive),
    ("tldforge.derive", "derive_clauses", "derive.derive_clauses", _on_derive),
    ("tldforge.workspace", "flatten_program", "codegen.flatten", None),
    ("tldforge.workspace", "analyze_procedure", "analysis.analyze_procedure", None),
    ("tldforge.analysis", "reorder", "analysis.reorder", _on_reorder),
    ("tldforge.analysis", "eliminate_checks", "analysis.eliminate", _on_eliminate),
    ("tldforge.analysis", "analyze_determinism", "analysis.determinism", None),
    ("tldforge.codegen", "check_order_compatibility", "codegen.order_compat", None),
    ("tldforge.workspace", "emit_prolog", "codegen.emit_prolog", None),
    ("tldforge.workspace", "emit_mercury", "codegen.emit_mercury", None),
    ("tldforge.workspace", "format_tld", "printer.stage_format", None),
    ("tldforge.workspace", "format_ld", "printer.stage_format", None),
    ("tldforge.workspace", "format_formula", "printer.stage_format", None),
    ("tldforge.workspace", "format_clause", "printer.stage_format", None),
    ("tldforge.workspace", "format_literal", "printer.stage_format", None),
    ("tldforge.workspace", "check_equivalence", "semantics.equiv", _on_equiv),
    ("tldforge.semantics", "check_agreement", "semantics.agree", _on_agree),
    ("tldforge.workspace.Workspace", "eval_context", "workspace.eval_context", None),
    ("tldforge.typesys.TypeEnv", "enumerate_type", "typesys.enumerate", _on_enumerate),
)

# hot functions: calls are counted, attributed to the enclosing span
COUNTED = (
    ("tldforge.analysis", "abstract_step", "analysis.abstract_steps"),
    ("tldforge.codegen", "abstract_step", "analysis.abstract_steps"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # per wrapped "module.attribute"
        self.job = None
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, key, name, fn, hook):
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            # a call nested in a call of the same name is part of its parent's
            # work: count it once
            if hook is not None and not (rec[3] >= 0 and spans[rec[3]][0] == name):
                hook(counts, args, result)
            return result
        return wrapper

    def _count_wrapper(self, key, name, fn):
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            counts[name] += 1
            if stack:
                counts[f"{name}@{spans[stack[-1]][0]}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name, fn):
        """``fn`` wrapped to record a span named ``name``."""
        return self._span_wrapper(name, name, fn, None)

    def install(self):
        for path, attr, name, hook in SPANS:
            owner, fn = self._take(path, attr)
            setattr(owner, attr, self._span_wrapper(f"{path}.{attr}", name, fn, hook))
        for path, attr, name in COUNTED:
            owner, fn = self._take(path, attr)
            setattr(owner, attr, self._count_wrapper(f"{path}.{attr}", name, fn))

    def _take(self, path, attr):
        owner = _resolve(path)
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        return owner, fn

    def restore(self) -> list:
        """Put every original back; returns the names still wrapped."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        left = []
        for owner_path, attr, *_ in SPANS + COUNTED:
            current = getattr(_resolve(owner_path), attr)
            if hasattr(current, "__wrapped__"):
                left.append(f"{owner_path}.{attr}")
        return left

    def unfired(self) -> list:
        return [f"{o}.{a}" for o, a, *_ in SPANS + COUNTED if not self.calls[f"{o}.{a}"]]

    # -- analysis ----------------------------------------------------------

    def times(self, scales: dict) -> tuple:
        """(inclusive seconds, self seconds, count) per span name, each
        span's duration multiplied by its job's entry in ``scales``.

        Inclusive time counts only the outermost span of a name, so a
        recursive function is not counted twice."""
        spans = self.spans
        length = [(end - start) * scales.get(job, 1.0)
                  for _, start, end, _, job in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += length[i]
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        count: Counter = Counter()
        for i, (name, _, _, parent, _) in enumerate(spans):
            own[name] += length[i] - child_time[i]
            count[name] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += length[i]
        return inclusive, own, count

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _resolve(path: str):
    """A module, or a class given as module.Class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)
