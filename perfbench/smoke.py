"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload it runs a cut-down
job list untraced and traced, and checks that the last line reports exactly
the metrics ``BENCHMARK.json`` names.  It then corrupts the output of one
job whose answer is known (the maxprefix Prolog golden) and checks that the
job is counted as failed and the run as incorrect.  Exits 0 when all holds.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

# jobs that take more than a few tens of milliseconds
HEAVY = ("oracle d3", "nofix7", "nofix8", "dnf7", "dnf8", "dnf9", "dnf10")
JOBS_PER_WORKLOAD = 12


def tiny(generate):
    def make(seed, work, maxprefix, golden):
        wl = generate(seed, work, maxprefix, golden)
        light = [j for j in wl.jobs if not any(h in j.label for h in HEAVY)]
        # keep the golden-checked jobs: they are the ones the corruption targets
        keep = [j for j in light if j.label.startswith("maxprefix gen")]
        keep += [j for j in light if j not in keep][:JOBS_PER_WORKLOAD]
        series = [(n, j) for n, j in wl.scaling if not any(h in n for h in ("n8", "k9", "k10", "d3"))]
        return workloads.Workload(wl.name, keep, series)
    return make


def last_line(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise SystemExit(f"smoke: run.main({argv}) exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    run.MIN_JOBS = 1
    run.MIN_PASSES = 1
    for name, gen in list(workloads.GENERATORS.items()):
        workloads.GENERATORS[name] = tiny(gen)
    problems = []
    baseline = {}
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layers)):
            argv = ["--workload", w["name"], "--seed", "7", "--seconds", "0",
                    "--trace", str(trace)]
            res = last_line(argv)
            if set(res["metrics"]) != names:
                problems.append(f"{w['name']} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(res['metrics']) ^ names)}")
            if not res["correct"]:
                problems.append(f"{w['name']} trace {trace}: run reported incorrect")
            if trace == 0:
                baseline[w["name"]] = res

    # a corrupted golden output must count as a failed job and a wrong answer
    real_execute = run.execute

    def corrupting(job):
        code, out, err, secs = real_execute(job)
        if job.label == "maxprefix gen prolog":
            out = out.replace("integer(M)", "true")
        return code, out, err, secs

    run.execute = corrupting
    try:
        res = last_line(["--workload", "compile-typical", "--seed", "7", "--seconds", "0",
                         "--trace", "0"])
    finally:
        run.execute = real_execute
    clean = baseline["compile-typical"]
    if res["correct"]:
        problems.append("a corrupted golden output left the run correct")
    if res["attempted"] != clean["attempted"] or res["failed"] != clean["failed"] + 1:
        problems.append(f"a corrupted golden output was not counted as one failed job "
                        f"({res['failed']} failed of {res['attempted']}; without "
                        f"corruption {clean['failed']} of {clean['attempted']})")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
