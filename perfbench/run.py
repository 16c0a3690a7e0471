"""The tld-forge benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload compile-typical --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
and every job runs in this process, one after another: a job is one
``tldforge.cli.main(argv)`` call with stdout and stderr captured, or one
call to the public oracle API.  The job list of a workload (one *pass*) is
generated from the seed; passes repeat until ``--seconds`` have elapsed and
at least ``MIN_JOBS`` jobs ran.

Times are scaled to a nominal machine speed.  On a shared virtual machine
the CPU speed can switch between levels about a factor of two apart, for
seconds to minutes at a time (measured on a 2-vCPU VM), which no number of
repeats averages out.  So every job, and
every set-up, is bracketed by a fixed piece of reference work that shares
no code with the program, and its time is multiplied by ``REF_NOMINAL_S``
over the mean of the two reference times: times read as on a machine where
the reference work takes ``REF_NOMINAL_S``.  A change to the program moves
the scaled times as it moves the raw ones; the raw figures are printed too.

Outputs are checked after each pass, outside the timed region, against
what the generator built into the input.  A job *fails* when it raises,
exits with another code than expected, or its output fails the check.  A
failed job that exited 0 gave a wrong answer; any wrong answer makes the
run incorrect.  Failures the program reports itself (a crash, a diagnostic
where code was due) only count as failed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run (see
``tracing.py``), the tracing overhead, and the scaling series.  Everything
before the last line is a human-readable report.  Generated inputs live
under ``.perfbench_work/`` in the checkout and are removed at exit; the
spans of a traced run are written there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_JOBS = 100
MIN_PASSES = 3  # per-job medians need repeats
SETUP_REPEATS = 9
WORK_DIR = ".perfbench_work"

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "code_bytes": "bytes",
    "checks_kept": "count",
}


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

REF_ROUNDS = 40
REF_NOMINAL_S = 0.0035  # the reference work's time on a 2-vCPU VM at its faster speed


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple = ()


def reference_seconds() -> float:
    """Time of a fixed piece of interpreter-bound work shaped like the
    program's own (frozen dataclass trees, recursion, isinstance, dicts)."""
    def build(d):
        return _Node("z") if d == 0 else _Node("s", (build(d - 1), _Node(f"V{d % 7}")))

    def walk(t, acc):
        acc[t.tag] = acc.get(t.tag, 0) + 1
        return 1 + sum(walk(k, acc) for k in t.kids if isinstance(k, _Node))

    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        walk(build(30), {})
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to nominal seconds, given the reference
    times measured just before and just after."""
    return 2 * REF_NOMINAL_S / (before + after)


# ---------------------------------------------------------------------------
# Set-up: import the program and warm it up
# ---------------------------------------------------------------------------

def import_program(warmup_manifest: Path) -> float:
    """Import ``tldforge`` afresh and run one warm-up ``check``; returns the
    seconds both took."""
    for name in [m for m in sys.modules if m == "tldforge" or m.startswith("tldforge.")]:
        del sys.modules[name]
    start = time.perf_counter()
    import tldforge  # noqa: F401
    import tldforge.cli
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = tldforge.cli.main(["check", "--manifest", str(warmup_manifest)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SetupError(f"warm-up check failed with exit code {code}")
    return elapsed


def setup(root: Path) -> tuple:
    """(scaled, raw) median seconds of the import and warm-up."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    manifest = root / "tests" / "fixtures" / "maxprefix" / "manifest.txt"
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        secs = import_program(manifest)
        raw.append(secs)
        scaled.append(secs * scale(before, reference_seconds()))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def run_agreement(manifest: str, pred: str, depth: int) -> int:
    """``check_agreement(program_formula(derive_clauses(ld)), ld.definition)``
    for one description, through the public API."""
    derive = sys.modules["tldforge.derive"]
    errors = sys.modules["tldforge.errors"]
    semantics = sys.modules["tldforge.semantics"]
    loaded = sys.modules["tldforge.workspace"].load_workspace(manifest)
    if not loaded.ok:
        print("workspace failed to load", file=sys.stderr)
        return 1
    ws = loaded.workspace
    ctx = ws.eval_context(universe_depth=depth)
    tld = ws.tlds[pred]
    ld = ctx.predicates[pred][1]
    try:
        prog = derive.derive_clauses(ld, frozenset(ws.env.defs))
    except errors.ForgeError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    rep = semantics.check_agreement(ctx, derive.program_formula(prog), ld.definition,
                                    list(tld.params), depth=depth)
    print(f"total={rep.total} disagree={rep.disagree} agree={rep.agree} "
          f"inconclusive={rep.inconclusive}")
    return 0


def execute(job) -> tuple:
    """(exit code or None for a traceback, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if job.argv[0] == "agree":
                code = run_agreement(*job.argv[1:])
            else:
                code = sys.modules["tldforge.cli"].main(list(job.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback reaching the user is a failed job
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def verdict(job, code, out, err) -> tuple:
    """(problem or None, wrong answer?) for one job's outcome."""
    if code is None:
        return "traceback: " + err.strip().splitlines()[-1][:200], False
    if code != job.expect:
        return f"exit {code}, expected {job.expect}: {err.strip()[:200]!r}", code == 0
    problem = job.check(out, err)
    return problem, problem is not None and code == 0


def digest(code, out, err) -> str:
    """An outcome's fingerprint; of a traceback only the exception line
    counts, since a traced run adds its wrappers' frames."""
    if code is None:
        err = err.strip().splitlines()[-1]
    return hashlib.sha1(f"{code}\0{out}\0{err}".encode()).hexdigest()


class Passes:
    """Outcomes of repeated passes over one job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.walls: list = []
        self.latencies: list = []  # per pass, per job, scaled seconds
        self.raw: list = []  # per pass, per job, raw seconds
        self.scales: list = []  # per pass, per job
        self.digests: list = []  # per pass, per job
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict = {}  # job index -> problem
        self.code_bytes = 0
        self.checks_kept = 0

    def run(self, seconds: float, passes: int | None = None, tracer=None):
        """Whole passes until the pass boundary nearest to ``seconds``, at
        least MIN_PASSES and MIN_JOBS jobs; or exactly ``passes``."""
        start = time.perf_counter()
        while True:
            done = len(self.walls)
            if passes is not None:
                if done >= passes:
                    break
            elif done >= MIN_PASSES and self.attempted >= MIN_JOBS:
                if time.perf_counter() - start + self.walls[-1] / 2 >= seconds:
                    break
            self.run_pass(tracer)

    def job_scales(self) -> dict:
        """(pass, job index) -> scale, the job ids of a traced run's spans."""
        return {(p, i): f for p, scales in enumerate(self.scales)
                for i, f in enumerate(scales)}

    def median_scale(self) -> float:
        return statistics.median(f for scales in self.scales for f in scales)

    def wall(self, raw=False) -> float:
        """One pass's time with each job at its median over the passes: a
        burst of load on the machine moves it only when it hits a job in
        most passes."""
        return sum(statistics.median(lat)
                   for lat in zip(*(self.raw if raw else self.latencies)))

    def run_pass(self, tracer=None):
        # what exists now outlives the pass: keep it out of the collections
        gc.freeze()
        outcomes = []
        refs = [reference_seconds()]
        pass_start = time.perf_counter()
        run = execute if tracer is None else tracer.span("job", execute)
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = (len(self.walls), i)
            outcomes.append(run(job))
            # each command starts from a collected heap, as in a fresh
            # process: peak_rss_mb then does not depend on when the cyclic
            # garbage of earlier jobs happened to be collected
            gc.collect()
            refs.append(reference_seconds())
        self.walls.append(time.perf_counter() - pass_start)
        # checks run outside the timed region
        first = not self.digests
        self.digests.append([digest(*o[:3]) for o in outcomes])
        scales = [scale(a, b) for a, b in zip(refs, refs[1:])]
        self.scales.append(scales)
        self.raw.append([o[3] for o in outcomes])
        self.latencies.append([o[3] * f for o, f in zip(outcomes, scales)])
        for i, (job, (code, out, err, secs)) in enumerate(zip(self.jobs, outcomes)):
            self.attempted += 1
            problem, wrong = verdict(job, code, out, err)
            if problem:
                self.failed += 1
                self.wrong += wrong
                self.problems.setdefault(i, problem)
            if first and job.emits and code == 0:
                self.code_bytes += len(out.encode())
                self.checks_kept += workloads.type_checks(out, job.type_names)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """Percentile interpolated between the two nearest samples, which moves
    less than the nearest rank when neighbouring jobs swap places."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: Passes, setup_s: float) -> dict:
    ms = [s * 1000 for lat in passes.latencies for s in lat]
    return {
        "setup_s": setup_s,
        "wall_s": passes.wall(),
        "job_p50_ms": percentile(ms, 50),
        "job_p90_ms": percentile(ms, 90),
        "ok_frac": 1 - passes.failed / passes.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "code_bytes": passes.code_bytes,
        "checks_kept": passes.checks_kept,
    }


TYPICAL, SUPER, ORACLE = "compile-typical", "compile-superlinear", "oracle-sweep"
# name -> (unit, source, key, the end-to-end metrics it should move and where).
# Sources: "span" is inclusive ms of the outermost spans of that name,
# "self" their self time, "count" a counter; all per traced pass.  "rate"
# divides a counter by a span's busy seconds, "ratio" two counters.
PER_LAYER = {
    "workspace.load_ms": ("ms", "span", "workspace.load", f"job_p50_ms, wall_s on {TYPICAL}"),
    "workspace.builtins_ms": ("ms", "span", "workspace.builtins",
                              f"job_p50_ms on {TYPICAL} and {ORACLE} (depth 2)"),
    "workspace.eval_context_ms": ("ms", "span", "workspace.eval_context",
                                  f"job_p50_ms on {ORACLE}"),
    "parser.parse_ms": ("ms", "span", "parser.parse", f"job_p50_ms, wall_s on {TYPICAL}"),
    "parser.tokens": ("count", "count", "parser.tokens", f"job_p50_ms, wall_s on {TYPICAL}"),
    "parser.tokens_per_s": ("1/s", "rate", ("parser.tokens", "parser.parse"),
                            f"job_p50_ms, wall_s on {TYPICAL}"),
    "transform.ms": ("ms", "span", "transform", f"wall_s on {TYPICAL}"),
    "transform.checks_inserted": ("count", "count", "transform.checks_inserted",
                                  f"wall_s on {TYPICAL}"),
    "transform.checks_simplified": ("count", "count", "transform.checks_simplified",
                                    f"wall_s on {TYPICAL}"),
    "derive.normalize_ms": ("ms", "span", "derive.normalize",
                            f"wall_s, job_p90_ms, peak_rss_mb on {SUPER}"),
    "derive.normalize_calls": ("count", "count", "derive.normalize_calls",
                               f"wall_s, job_p90_ms, peak_rss_mb on {SUPER}"),
    "derive.clauses": ("count", "count", "derive.clauses",
                       f"wall_s, job_p90_ms, peak_rss_mb on {SUPER}"),
    "derive.literals": ("count", "count", "derive.literals", f"wall_s on {SUPER}"),
    "analysis.reorder_ms": ("ms", "span", "analysis.reorder",
                            f"job_p90_ms, wall_s on {SUPER}; none on {TYPICAL}"),
    "analysis.reorder_calls": ("count", "count", "analysis.reorder_calls",
                               f"job_p90_ms, wall_s on {SUPER}; none on {TYPICAL}"),
    "analysis.abstract_steps": ("count", "count", "analysis.abstract_steps",
                                f"job_p90_ms, wall_s on {SUPER}; none on {TYPICAL}"),
    "analysis.reorder_failures": ("count", "count", "analysis.reorder_failures",
                                  f"job_p90_ms, wall_s on {SUPER}; none on {TYPICAL}"),
    # literals placed by successful reorders per abstract_step call made by a reorder
    "analysis.useful_step_ratio": ("ratio", "ratio", ("analysis.literals_scheduled",
                                                      "analysis.abstract_steps@analysis.reorder"),
                                   f"job_p90_ms, wall_s on {SUPER}; none on {TYPICAL}"),
    "analysis.eliminate_ms": ("ms", "span", "analysis.eliminate", f"wall_s on {SUPER}"),
    "analysis.checks_removed": ("count", "count", "analysis.checks_removed",
                                f"wall_s on {SUPER}; checks_kept everywhere"),
    "analysis.determinism_ms": ("ms", "span", "analysis.determinism", f"wall_s on {SUPER}"),
    "codegen.flatten_ms": ("ms", "span", "codegen.flatten", f"wall_s, code_bytes on {TYPICAL}"),
    "codegen.order_compat_ms": ("ms", "span", "codegen.order_compat",
                                f"wall_s, code_bytes on {TYPICAL}"),
    "codegen.emit_prolog_ms": ("ms", "span", "codegen.emit_prolog",
                               f"wall_s, code_bytes on {TYPICAL}"),
    "codegen.emit_mercury_ms": ("ms", "span", "codegen.emit_mercury",
                                f"wall_s, code_bytes on {TYPICAL}"),
    "printer.stage_format_ms": ("ms", "span", "printer.stage_format",
                                f"wall_s on {TYPICAL} and {SUPER}"),
    "semantics.equiv_ms": ("ms", "span", "semantics.equiv", f"job_p90_ms, wall_s on {ORACLE}"),
    "semantics.bindings_covered": ("count", "count", "semantics.bindings_covered",
                                   f"job_p90_ms, wall_s on {ORACLE}"),
    "semantics.bindings_per_s": ("1/s", "rate", ("semantics.bindings_covered",
                                                 "semantics.equiv"),
                                 f"job_p90_ms, wall_s on {ORACLE}"),
    "semantics.agree_ms": ("ms", "span", "semantics.agree", f"wall_s on {ORACLE}"),
    "semantics.agree_bindings": ("count", "count", "semantics.agree_bindings",
                                 f"wall_s on {ORACLE}"),
    "typesys.enumerate_ms": ("ms", "span", "typesys.enumerate",
                             f"peak_rss_mb, job_p90_ms on {ORACLE}"),
    "typesys.universe_terms": ("count", "count", "typesys.universe_terms",
                               f"peak_rss_mb, job_p90_ms on {ORACLE}"),
    # job time outside every span below the job's own
    "cli.overhead_ms": ("ms", "self", "job", "job_p50_ms everywhere"),
}
SCALING = ([f"scaling.reorder_fail_n{n}_ms" for n in range(4, 9)]
           + [f"scaling.dnf_gen_prolog_k{k}_ms" for k in workloads.SUPER_DNF]
           + [f"scaling.oracle_maxprefix_d{d}_ms" for d in workloads.ORACLE_DEPTHS])
TRACE_EXTRA = {"trace.overhead_s": "s", "trace.spans": "count",
               "trace.unfired": "count", "src.lines": "count"}


def per_layer(tracer: Tracer, traced: Passes) -> dict:
    inclusive, own, _ = tracer.times(traced.job_scales())
    passes = len(traced.walls)
    counts = tracer.counts
    out = {}
    for name, (unit, how, key, _) in PER_LAYER.items():
        if how == "span":
            value = inclusive.get(key, 0.0) * 1000 / passes
        elif how == "self":
            value = own.get(key, 0.0) * 1000 / passes
        elif how == "count":
            value = counts.get(key, 0) / passes
        elif how == "rate":
            busy = inclusive.get(key[1], 0.0)
            value = counts.get(key[0], 0) / busy if busy else 0.0
        else:  # ratio
            base = counts.get(key[1], 0)
            value = counts.get(key[0], 0) / base if base else 0.0
        out[name] = value
    return out


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report_failures(jobs, passes: Passes):
    by_kind: dict = {}
    for i, problem in passes.problems.items():
        job = jobs[i]
        key = f"known defect: {job.defect}" if job.defect else "unexpected"
        by_kind.setdefault(key, []).append(f"{job.label}: {problem}")
    for key, items in sorted(by_kind.items()):
        print(f"  {key}: {len(items)} job(s) per pass")
        for item in items[:3]:
            print(f"    {item[:220]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    maxprefix = root / "tests" / "fixtures" / "maxprefix"
    golden = root / "tests" / "fixtures" / "golden"
    for need in (root / "src" / "tldforge" / "cli.py", maxprefix / "manifest.txt",
                 golden / "max_prefix.pl", golden / "max_prefix.m"):
        if not need.is_file():
            print(f"error: {need} not found; run from the root of a tld-forge checkout",
                  file=sys.stderr)
            return 2

    work = root / WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return run(args, root, work, maxprefix, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root, work, maxprefix, golden) -> int:
    workload = workloads.GENERATORS[args.workload](args.seed, work, maxprefix, golden)
    jobs = workload.jobs
    try:
        setup_s, setup_raw = setup(root)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"workload {workload.name}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"one closed-loop client; setup {setup_s:.4f} s, raw {setup_raw:.4f} s "
          f"(median of {SETUP_REPEATS} imports + warm-up check)")

    if not args.trace:
        passes = Passes(jobs)
        passes.run(args.seconds)
        metrics = end_to_end(passes, setup_s)
        print(f"passes {len(passes.walls)}, jobs attempted {passes.attempted}, "
              f"failed {passes.failed} (wrong answers {passes.wrong}), "
              f"failed_frac {passes.failed / passes.attempted:.4f}, "
              f"latency samples {passes.attempted}; raw wall {passes.wall(raw=True):.4f} s, "
              f"median scale to nominal speed {passes.median_scale():.3f}")
        report_failures(jobs, passes)
        for name, unit in END_TO_END.items():
            print(f"  {name:<14} {metrics[name]:>14.6g} {unit}")
        result = {"correct": passes.wrong == 0, "attempted": passes.attempted,
                  "failed": passes.failed,
                  "metrics": {n: {"value": metrics[n], "unit": u}
                              for n, u in END_TO_END.items()}}
        print(json.dumps(result))
        return 0

    # traced run: untraced passes, the same number traced, then the series
    plain = Passes(jobs)
    plain.run(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Passes(jobs)
        traced.run(0, passes=len(plain.walls), tracer=tracer)
    finally:
        left = tracer.restore()
    mismatched = sum(a != b for pa, pb in zip(plain.digests, traced.digests)
                     for a, b in zip(pa, pb))
    series = {}
    series_failed = series_wrong = 0
    for name, job in workload.scaling:
        before = reference_seconds()
        code, out, err, secs = execute(job)
        problem, wrong = verdict(job, code, out, err)
        series_failed += problem is not None
        series_wrong += wrong
        series[name] = secs * scale(before, reference_seconds()) * 1000
        if problem:
            print(f"  scaling job {job.label}: {problem}")

    layers = per_layer(tracer, traced)
    layers["trace.overhead_s"] = traced.wall() - plain.wall()
    layers["trace.spans"] = len(tracer.spans) / len(traced.walls)
    unfired = tracer.unfired()
    layers["trace.unfired"] = len(unfired)
    layers["src.lines"] = src_lines(root)
    for name in SCALING:
        layers[name] = series.get(name, 0.0)
    units = {**{n: u for n, (u, *_) in PER_LAYER.items()}, **TRACE_EXTRA,
             **{n: "ms" for n in SCALING}}

    attempted = plain.attempted + traced.attempted + len(workload.scaling)
    failed = plain.failed + traced.failed + series_failed + mismatched
    print(f"untraced passes {len(plain.walls)} (wall {plain.wall():.4f} s),"
          f" traced passes {len(traced.walls)} (wall {traced.wall():.4f} s);"
          f" traced outputs differing from untraced: {mismatched}; "
          f"wrappers left installed: {len(left)}")
    report_failures(jobs, plain)
    inclusive, own, count = tracer.times(traced.job_scales())
    print("  span                          calls/pass  incl ms/pass  self ms/pass")
    for name in sorted(inclusive, key=inclusive.get, reverse=True):
        n = len(traced.walls)
        print(f"  {name:<30}{count[name] / n:>10.1f}{inclusive[name] * 1000 / n:>14.3f}"
              f"{own[name] * 1000 / n:>14.3f}")
    print(f"  wrapped functions that never fired: {', '.join(unfired) or 'none'}")
    not_fired = [n for n, v in layers.items() if not v]
    print(f"  per-layer metrics with no activity on this workload: "
          f"{', '.join(not_fired) or 'none'}")
    for name in units:
        moves = f"  -> {PER_LAYER[name][3]}" if name in PER_LAYER else ""
        print(f"  {name:<34} {layers[name]:>14.6g} {units[name]:<6}{moves}")
    spans_path = root / WORK_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"  spans written to {spans_path.relative_to(root)}")
    correct = (plain.wrong + traced.wrong + series_wrong == 0 and mismatched == 0
               and not left)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": layers[n], "unit": units[n]} for n in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
