"""Command line driver.

Exit codes: 0 success, 1 diagnostics with errors or a failed stage,
2 usage error, 3 internal error (an exception no stage reports itself).
Diagnostics print as ``file:line:col: severity[code]: message`` on stderr;
generated code goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from .errors import ForgeError
from .typesys import MAX_DEPTH
from .workspace import (STAGE_NAMES, load_workspace, run_oracle, run_pipeline,
                        suggest_skeleton)


_NUMERAL = re.compile(r"\s*([+-]?)\d+\s*")


def _shown(text: str) -> str:
    """A rejected argument as a usage error echoes it: its first 20 characters."""
    text = text.strip()
    return text if len(text) <= 20 else f"{text[:20]}..."


def _positive_int(text: str, most: float = math.inf) -> int:
    """``text`` as an integer from 1 to ``most``."""
    try:
        value = int(text)
    except ValueError:
        numeral = _NUMERAL.fullmatch(text)
        if numeral is None:
            raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)!r}") from None
        # int() refuses a numeral of more than a few thousand digits
        value = -math.inf if numeral[1] == "-" else math.inf
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_shown(text)}")
    if value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {_shown(text)}")
    if value == math.inf:
        raise argparse.ArgumentTypeError(f"too large: {_shown(text)}")
    return value


def _depth(text: str) -> int:
    return _positive_int(text, MAX_DEPTH)


@functools.cache  # built on first use, then shared by every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tld-forge",
        description="Turn typed logic descriptions into analyzed Prolog and "
                    "Mercury procedures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pred_required=False):
        p.add_argument("--manifest", required=True, help="workspace manifest file")
        which = "required" if pred_required else "default: every described procedure"
        p.add_argument("--pred", required=pred_required, help=f"procedure name ({which})")

    p = sub.add_parser("check", help="load the workspace and report diagnostics")
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("skeleton", help="suggest a description skeleton")
    common(p, pred_required=True)
    p.add_argument("param", help="induction parameter name")

    p = sub.add_parser("transform", help="print the untyped description")
    common(p)
    p.add_argument("--emit-stage", choices=STAGE_NAMES, default="simplified")

    p = sub.add_parser("derive", help="print the derived clauses")
    common(p)
    p.add_argument("--emit-stage", choices=STAGE_NAMES, default="derived")

    p = sub.add_parser("analyze", help="reorder, eliminate and report determinism")
    common(p)
    p.add_argument("--level", choices=("paper-compat", "none"), default="paper-compat")

    p = sub.add_parser("gen", help="emit code")
    p.add_argument("target", choices=("prolog", "mercury"))
    common(p)
    p.add_argument("--dir-index", type=_positive_int)  # default 1
    p.add_argument("--level", choices=("paper-compat", "none"), default="paper-compat")
    p.add_argument("--cuts", action="store_true", help="introduce cuts on switches")
    p.add_argument("--split", action="store_true",
                   help="emit one suffixed procedure per directionality")
    p.add_argument("--emit-stage", choices=STAGE_NAMES,
                   help="dump an intermediate stage instead of final code")

    p = sub.add_parser("oracle", help="bounded-universe verification")
    p.add_argument("action", choices=("equiv",))
    common(p, pred_required=True)
    p.add_argument("--depth", type=_depth, default=2,
                   help=f"universe depth bound (1 to {MAX_DEPTH})")

    return parser


def _load(path: str):
    result = load_workspace(Path(path))
    for d in result.diagnostics:
        print(d.format(), file=sys.stderr)
    return result


def main(argv=None) -> int:
    try:
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): the rest of the output
        # goes nowhere, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as e:  # a defect: one line instead of a traceback
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3
    return code


def _run(args) -> int:
    if (args.command == "gen" and args.target == "mercury" and args.dir_index
            and args.emit_stage not in ("ordered", "eliminated")):
        print("tld-forge gen: error: argument --dir-index: gen mercury declares every "
              "directionality", file=sys.stderr)
        return 2
    loaded = _load(args.manifest)
    if args.command == "check":
        if loaded.ok:
            ws = loaded.workspace
            print(f"ok: {len(ws.tlds)} descriptions, "
                  f"{len(ws.specs)} specifications, "
                  f"{len(ws.env.defs)} types")
            return 0
        return 1
    if not loaded.ok:
        return 1
    ws = loaded.workspace

    try:
        if args.command == "skeleton":
            print(suggest_skeleton(ws, args.pred, args.param), end="")
            return 0
        if args.command == "oracle":
            report = run_oracle(ws, args.pred, depth=args.depth)
            print(report.describe())
            return 0 if report.ok else 1
    except ForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    preds = [args.pred] if args.pred else list(ws.tlds)
    if not preds:
        print("nothing to do: the workspace has no descriptions", file=sys.stderr)
        return 1
    failed = False
    outputs = []
    for pred in preds:
        # one procedure's error is reported and the others still run
        try:
            if args.command == "analyze":
                r = run_pipeline(ws, pred, target=None, level=args.level)
            elif args.command == "gen":
                r = run_pipeline(ws, pred, target=args.target, level=args.level,
                                 dir_index=(args.dir_index or 1) - 1, cuts=args.cuts,
                                 split=args.split, stage=args.emit_stage)
            else:  # transform, derive
                r = run_pipeline(ws, pred, stage=args.emit_stage)
        except ForgeError as e:
            print(f"error: {e}", file=sys.stderr)
            failed = True
            continue
        if args.command == "analyze":
            outputs.append(r.report)
        elif r.ok:
            outputs.append(r.code)
        if not r.ok:
            print(r.failure, file=sys.stderr)
            failed = True
        elif args.command == "gen":
            for w in r.warnings:
                print(f"warning: {w}", file=sys.stderr)
            if ws.out_dir is not None and args.emit_stage is None:
                path = ws.out_dir / f"{pred}{'.pl' if args.target == 'prolog' else '.m'}"
                try:
                    ws.out_dir.mkdir(parents=True, exist_ok=True)
                    path.write_text(r.code)
                except OSError as e:
                    print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
                    return 1
    print("\n".join(outputs), end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
