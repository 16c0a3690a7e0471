"""Every workload's end-to-end metrics in one table.

    python3 perfbench/report.py --seed 1 [--seconds 25]

Run from the root of a checkout.  Runs ``run.py`` once per workload of
``BENCHMARK.json``, each in its own process so that peak RSS is the
workload's own, and prints each metric by name and unit with the failed and
attempted job counts and the number of latency samples.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        samples = re.search(r"latency samples (\d+)", proc.stdout)
        results[w["name"]] = (json.loads(lines[-1]), samples.group(1) if samples else "?")
    names = list(results)
    print(f"{'metric':<14}{'unit':<7}" + "".join(f"{n:>22}" for n in names))
    for m in spec["end_to_end"]:
        row = "".join(f"{res['metrics'][m['name']]['value']:>22.6g}"
                      for res, _ in results.values())
        print(f"{m['name']:<14}{m['unit']:<7}{row}")
    counts = ["{}/{}".format(r["failed"], r["attempted"]) for r, _ in results.values()]
    print(f"{'failed':<14}{'jobs':<7}" + "".join(f"{c:>22}" for c in counts))
    print(f"{'failed_frac':<14}{'ratio':<7}" + "".join(
        f"{r['failed'] / r['attempted']:>22.4f}" for r, _ in results.values()))
    print(f"{'samples':<14}{'jobs':<7}" + "".join(f"{s:>22}" for _, s in results.values()))
    print(f"{'correct':<14}{'':<7}" + "".join(f"{str(r['correct']):>22}"
                                             for r, _ in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
