"""Command line: ``run`` one workload, ``all`` eight, ``compare`` two results."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.e2e import compare as compare_module
from benchmarks.e2e.harness import HERE, OUT_DIR, load_spec, render, run_workload


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float, default=None,
                         help="length of the timed phase on the seed code; op counts "
                              "scale with it (default: run_seconds of BENCHMARK.json)")
        sub.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                         help="1: traced run, per-layer metrics; 0: end-to-end metrics")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="shrink data AND op counts (smoke tests; not comparable)")
        sub.add_argument("--out", default=None, help="also write the result record here")

    run = commands.add_parser("run", help="one workload, one invocation")
    run.add_argument("--workload", required=True,
                     choices=[w["name"] for w in load_spec()["workloads"]])
    common(run)
    everything = commands.add_parser("all", help="every workload, each in its own process")
    everything.add_argument("--repeat", type=int, default=1, help="runs per workload")
    common(everything)
    comparison = commands.add_parser("compare", help="is B no worse than A?")
    comparison.add_argument("a")
    comparison.add_argument("b")
    return parser


def _write(path: str, record: object) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


def _run(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    suffix = "layers" if args.trace else "e2e"
    _write(os.path.join(OUT_DIR, f"result-{args.workload}-{suffix}.json"), result)
    if args.out:
        _write(args.out, result)
    print(render(result))
    # The last line of stdout is the contract: exactly these four keys.
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


def _all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so ``peak_rss_mb`` is its own."""
    runs = []
    status = 0
    for workload in load_spec()["workloads"]:
        for repeat in range(args.repeat):
            path = os.path.join(OUT_DIR, f"all-{os.getpid()}.json")
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload["name"], "--seed", str(args.seed + repeat),
                "--trace", str(args.trace), "--scale", str(args.scale), "--out", path,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            status = status or done.returncode
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    runs.append(json.load(handle))
                os.remove(path)
    out = args.out or os.path.join(OUT_DIR, "results-layers.json" if args.trace
                                   else "results-e2e.json")
    _write(out, {"runs": runs})
    print(f"wrote {out}")
    return status


def _compare(args: argparse.Namespace) -> int:
    try:
        rows = compare_module.compare(args.a, args.b, load_spec())
    except ValueError as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    print(compare_module.render(rows, args.a))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return {"run": _run, "all": _all, "compare": _compare}[args.command](args)
