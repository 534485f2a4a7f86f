"""The ``forkbase`` command-line tool (the demo's scripting surface).

Every command operates on a durable engine under ``--data-dir`` (default
``./forkbase-data``).  Examples::

    forkbase put mykey --json '{"a": "1"}' -m "first version"
    forkbase get mykey --branch master
    forkbase load-csv sales data.csv --pk id
    forkbase branch sales vendorX
    forkbase diff sales master vendorX
    forkbase merge sales vendorX --into master --strategy theirs
    forkbase history sales
    forkbase verify sales
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api.diffview import render_diff_text, render_history_text
from repro.db.engine import ForkBase
from repro.errors import ForkBaseError, MergeConflictError
from repro.postree.merge import resolve_ours, resolve_theirs
from repro.security.verify import Verifier
from repro.store.base import physical_store
from repro.table.dataset import DataTable
from repro.vcs.branches import DEFAULT_BRANCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkbase",
        description="Git-for-data storage engine (ForkBase reproduction)",
    )
    parser.add_argument(
        "--data-dir", default="./forkbase-data", help="engine directory"
    )
    parser.add_argument("--author", default="cli", help="commit author")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("put", help="store a new version of a key")
    p.add_argument("key")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--json", help="value as JSON (dict/list/str/number)")
    group.add_argument("--string", help="value as a plain string")
    group.add_argument("--file", help="value as a blob from a file")
    p.add_argument("--branch", default=DEFAULT_BRANCH)
    p.add_argument("-m", "--message", default="")

    p = sub.add_parser("get", help="read a key")
    p.add_argument("key")
    p.add_argument("--branch", default=None)
    p.add_argument("--version", default=None)

    p = sub.add_parser("list", help="list keys")

    p = sub.add_parser("head", help="show a branch head version")
    p.add_argument("key")
    p.add_argument("--branch", default=DEFAULT_BRANCH)

    p = sub.add_parser("latest", help="show all branch heads of a key")
    p.add_argument("key")

    p = sub.add_parser("meta", help="show metadata for a branch head")
    p.add_argument("key")
    p.add_argument("--branch", default=DEFAULT_BRANCH)

    p = sub.add_parser("history", help="show the version log")
    p.add_argument("key")
    p.add_argument("--branch", default=None)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("branch", help="create a branch")
    p.add_argument("key")
    p.add_argument("name")
    p.add_argument("--from-branch", dest="from_branch", default=DEFAULT_BRANCH)

    p = sub.add_parser("rename-branch", help="rename a branch")
    p.add_argument("key")
    p.add_argument("old")
    p.add_argument("new")

    p = sub.add_parser("rename", help="rename a key")
    p.add_argument("key")
    p.add_argument("new_key")

    p = sub.add_parser("diff", help="differential query between branches")
    p.add_argument("key")
    p.add_argument("branch_a")
    p.add_argument("branch_b")
    p.add_argument("--table", action="store_true", help="render row-level table diff")

    p = sub.add_parser("merge", help="three-way merge")
    p.add_argument("key")
    p.add_argument("from_branch")
    p.add_argument("--into", dest="into_branch", default=DEFAULT_BRANCH)
    p.add_argument("--strategy", choices=["fail", "ours", "theirs"], default="fail")
    p.add_argument("-m", "--message", default="")

    p = sub.add_parser("load-csv", help="load a CSV file as a dataset")
    p.add_argument("key")
    p.add_argument("csv_path")
    p.add_argument("--pk", required=True, help="primary key column")
    p.add_argument("--branch", default=DEFAULT_BRANCH)

    p = sub.add_parser("export", help="export a dataset to CSV")
    p.add_argument("key")
    p.add_argument("--branch", default=None)
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("select", help="select rows from a dataset")
    p.add_argument("key")
    p.add_argument("--branch", default=None)
    p.add_argument("--where", default=None, help="column=value filter")
    p.add_argument("--limit", type=int, default=20)

    p = sub.add_parser("stat", help="column statistics for a dataset")
    p.add_argument("key")
    p.add_argument("column")
    p.add_argument("--branch", default=None)

    p = sub.add_parser("verify", help="validate tamper evidence of a head")
    p.add_argument("key")
    p.add_argument("--branch", default=DEFAULT_BRANCH)
    p.add_argument("--version", default=None)

    p = sub.add_parser("stats", help="storage statistics")

    p = sub.add_parser(
        "diff-datasets", help="differential query across two dataset keys"
    )
    p.add_argument("key_a")
    p.add_argument("key_b")
    p.add_argument("--branch-a", default=None)
    p.add_argument("--branch-b", default=None)

    p = sub.add_parser("gc", help="sweep chunks unreachable from any branch")
    p.add_argument("--dry-run", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    engine = ForkBase.open(args.data_dir, author=args.author)
    try:
        code = _dispatch(args, engine)
    except MergeConflictError as error:
        print(f"merge conflict: {len(error.conflicts)} conflicting key(s)", file=sys.stderr)
        code = 2
    except ForkBaseError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    except Exception:
        engine.close()
        raise
    except BaseException:
        # A crash (or an interrupt) ends the process where it stands: a
        # killed process writes no checkpoint and closes no journal.
        engine.abandon()
        raise
    engine.close()
    return code


def _dispatch(args: argparse.Namespace, engine: ForkBase) -> int:
    command = args.command

    if command == "put":
        if args.json is not None:
            try:
                value = json.loads(args.json)
            except json.JSONDecodeError as error:
                print(f"error: invalid JSON: {error}", file=sys.stderr)
                return 1
        elif args.string is not None:
            value = args.string
        else:
            with open(args.file, "rb") as handle:
                value = handle.read()
        info = engine.put(args.key, value, branch=args.branch, message=args.message)
        print(f"{info.key}@{info.branch} -> {info.version}")
        return 0

    if command == "get":
        value = engine.get_value(args.key, branch=args.branch, version=args.version)
        if isinstance(value, bytes):
            sys.stdout.buffer.write(value)
        else:
            print(json.dumps(_printable(value), indent=2, sort_keys=True))
        return 0

    if command == "list":
        for key in engine.keys():
            print(key)
        return 0

    if command == "head":
        print(engine.head(args.key, args.branch).base32())
        return 0

    if command == "latest":
        for branch, head in sorted(engine.latest(args.key).items()):
            print(f"{branch}\t{head.base32()}")
        return 0

    if command == "meta":
        print(json.dumps(engine.meta(args.key, args.branch), indent=2, sort_keys=True))
        return 0

    if command == "history":
        history = engine.history(args.key, branch=args.branch, limit=args.limit)
        print(render_history_text(history))
        return 0

    if command == "branch":
        head = engine.branch(args.key, args.name, from_branch=args.from_branch)
        print(f"created {args.name} at {head.base32()}")
        return 0

    if command == "rename-branch":
        engine.rename_branch(args.key, args.old, args.new)
        print(f"renamed {args.old} -> {args.new}")
        return 0

    if command == "rename":
        engine.rename(args.key, args.new_key)
        print(f"renamed {args.key} -> {args.new_key}")
        return 0

    if command == "diff":
        if args.table:
            table = DataTable(engine, args.key)
            print(render_diff_text(table.diff(args.branch_a, args.branch_b), args.key))
        else:
            diff = engine.diff(args.key, branch_a=args.branch_a, branch_b=args.branch_b)
            for key in sorted(diff.added):
                print(f"+ {key!r}")
            for key in sorted(diff.removed):
                print(f"- {key!r}")
            for key in sorted(diff.changed):
                print(f"~ {key!r}")
            print(f"({diff.edit_count} difference(s), {diff.subtrees_pruned} sub-tree(s) pruned)")
        return 0

    if command == "merge":
        resolver = {"fail": None, "ours": resolve_ours, "theirs": resolve_theirs}[
            args.strategy
        ]
        info = engine.merge(
            args.key,
            from_branch=args.from_branch,
            into_branch=args.into_branch,
            resolver=resolver,
            message=args.message,
        )
        print(f"{info.key}@{info.branch} -> {info.version} ({info.message})")
        return 0

    if command == "load-csv":
        with open(args.csv_path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        _, report = DataTable.load_csv(
            engine, args.key, text, primary_key=args.pk, branch=args.branch
        )
        print(report.describe())
        print(f"version {report.version.version}")
        return 0

    if command == "export":
        table = DataTable(engine, args.key)
        text = table.export_csv(branch=args.branch)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    if command == "select":
        table = DataTable(engine, args.key)
        predicate = None
        if args.where:
            column, _, expected = args.where.partition("=")
            predicate = lambda row: row.get(column) == expected  # noqa: E731
        for row in table.select(where=predicate, branch=args.branch, limit=args.limit):
            print(json.dumps(row, sort_keys=True))
        return 0

    if command == "stat":
        table = DataTable(engine, args.key)
        stat = table.stat(args.column, branch=args.branch)
        print(json.dumps(stat.__dict__, indent=2, sort_keys=True))
        return 0

    if command == "verify":
        version = args.version or engine.head(args.key, args.branch).base32()
        report = Verifier(engine.store).verify_version(version)
        print(report.describe())
        return 0 if report.ok else 3

    if command == "stats":
        snap = engine.storage_snapshot()
        print(snap.describe())
        print(
            f"materialized={snap.materialized_bytes}B "
            f"backend={type(physical_store(engine.store)).__name__}"
        )
        return 0

    if command == "diff-datasets":
        table = DataTable(engine, args.key_a)
        other = DataTable(engine, args.key_b)
        diff = table.diff_against(other, branch=args.branch_a,
                                  other_branch=args.branch_b)
        print(render_diff_text(diff, f"{args.key_a}..{args.key_b}"))
        return 0

    if command == "gc":
        # Both durable layouts sweep in place and reclaim the dead bytes
        # by rewriting their own segments.
        report_obj = engine.collect_garbage(dry_run=args.dry_run, compact=True)
        print(
            f"live={report_obj.live_chunks} chunks ({report_obj.live_bytes}B), "
            f"reclaimable={report_obj.swept_chunks} chunks "
            f"({report_obj.swept_bytes}B, "
            f"{report_obj.reclaim_fraction * 100:.1f}%)"
            + (" [dry run]" if args.dry_run else " [compacted]")
        )
        return 0

    raise AssertionError(f"unhandled command {command}")


def _printable(value):
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    if isinstance(value, dict):
        return {_printable(k): _printable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_printable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_printable(v) for v in value]
    return value


if __name__ == "__main__":
    sys.exit(main())
