"""CLI: ``python -m fbcheck [paths...]``.

Prints ``file:line: RULE-ID message`` per violation (warnings carry a
``[warning]`` marker; CI's problem matcher reads exactly this format)
and exits 0 (clean), 1 (violations), or 2 (a missing path / unparseable
input / unknown pragma rule ids / usage error).  ``--stale-allow`` adds a
warning for every allowlist entry of the selected rules that matched
nothing; use it on full-tree runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from fbcheck.core import all_rules, check_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m fbcheck",
        description="Invariant-enforcing static analysis for the ForkBase substrate.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks", "examples"],
        help="files or directories to analyze (default: src tests benchmarks examples)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--stale-allow",
        action="store_true",
        help="warn about allowlist entries that matched nothing",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:12} {rule.summary}")
        return 0

    select = None
    if args.select:
        select = {item.strip() for item in args.select.split(",") if item.strip()}
        known = {rule.rule_id for rule in all_rules()}
        unknown = select - known
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    report = check_paths(args.paths, select=select, stale_allow=args.stale_allow)
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    for violation in report.violations:
        print(violation.render())
    if not args.quiet:
        errors = sum(1 for v in report.violations if v.severity == "error")
        status = "clean" if not errors and not report.errors else "FAILED"
        print(
            f"fbcheck: {report.files_checked} files, "
            f"{errors} violation(s) — {status}",
            file=sys.stderr,
        )
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
