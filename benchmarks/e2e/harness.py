"""Run one workload and turn what happened into the declared metrics.

An untraced invocation sets the workload up :data:`SETUP_REPS` times
(``setup_s`` is the median), replays the pre-generated op stream once,
closes, reopens, runs the end-of-run oracle, and reports the end-to-end
metrics.  A traced invocation first replays a prefix of the stream
untraced (the reference for ``trace.overhead_ratio``), then installs the
:mod:`tracer` wrappers, replays the whole stream, and reports the
per-layer metrics.
Metric names, units and bounds are read from ``BENCHMARK.json``: the
harness refuses to emit a set that differs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.tracer import OP_FINISH, OP_SETUP, TraceSummary, Tracer
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Inputs,
    Op,
    Workload,
    input_digest,
    reference_prefix,
)
from repro.errors import ForkBaseError

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per untraced run; ``setup_s`` is their median, so one slow
#: first set-up (cold imports, cold page cache) does not decide it.
SETUP_REPS = 3
#: The timed phase is cut into this many equal-count slices; rates and
#: latencies are medians over the slices (the issue asked for 5; ten keep
#: a 1–2 s host stall to a minority of them).
SEGMENTS = 10
#: The host-speed probe: a fixed pure-Python + SHA-256 loop, timed before
#: and after every slice and every set-up.  This sandbox's effective CPU
#: speed moves by up to 1.5x for seconds to minutes at a time (the probe
#: shows it as clearly as the engine does), so ten raw wall-clock runs
#: spread by 30-45% — no bound the contract allows can sit above that.
#: The gated timing metrics are therefore normalised: a time measured
#: while the probe took ``p`` ms is scaled by ``PROBE_NOMINAL_MS / p``,
#: i.e. quoted at the speed at which the probe takes its quiet-state 20 ms
#: here.  The raw wall-clock values ride along in every result record.
PROBE_ROUNDS = 20_000
PROBE_NOMINAL_MS = 20.0
#: A timed phase shorter than this is too short to trust; warn, do not fail.
MIN_PHASE_SECONDS = 3.0

_BACKEND_FIELDS = (
    "puts_new", "puts_dup", "physical_bytes", "gets", "misses",
    "io_read_bytes", "io_write_bytes",
)


def load_spec() -> Dict[str, Any]:
    """The benchmark contract: ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_probe_ms() -> float:
    """How long the fixed probe loop takes right now (≈20 ms when quiet)."""
    block = b"x" * 1000
    sha256 = hashlib.sha256
    mixed = 0
    begun = time.perf_counter_ns()
    for _ in range(PROBE_ROUNDS):
        mixed ^= sha256(block).digest()[0]
    return (time.perf_counter_ns() - begun) / 1e6


class Pass:
    """What one replay of an op stream measured."""

    def __init__(self, ops: List[Op]) -> None:
        self.ops = ops
        #: ``(seconds, host slowdown)`` of each set-up.
        self.setups: List[Tuple[float, float]] = []
        self.starts = [0] * len(ops)
        self.ends = [0] * len(ops)
        self.moved = [0] * len(ops)
        pieces = min(SEGMENTS, len(ops))
        #: Slice ``k`` is ``ops[bounds[k]:bounds[k + 1]]``; ``probes[k]`` and
        #: ``probes[k + 1]`` are the host probes taken around it.
        self.bounds = [len(ops) * k // pieces for k in range(pieces + 1)]
        self.probes: List[float] = []
        self.failed_ops = 0
        self.checks: List[Tuple[str, bool]] = []
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}
        self.written_bytes = 0
        self.stored_bytes = 0

    def delta(self, name: str) -> float:
        return self.after.get(name, 0) - self.before.get(name, 0)

    def indices(self, kinds: Tuple[str, ...]) -> List[int]:
        return [index for index, op in enumerate(self.ops) if op.kind in kinds]

    def latencies_ms(self, kinds: Tuple[str, ...]) -> List[float]:
        return [(self.ends[i] - self.starts[i]) / 1e6 for i in self.indices(kinds)]

    def op_seconds(self) -> float:
        """Time inside timed ops (the oracle between ops is not counted)."""
        return sum(end - start for start, end in zip(self.starts, self.ends)) / 1e9

    def slowdown(self, piece: int) -> float:
        """How much slower than nominal the host ran during slice ``piece``."""
        return (self.probes[piece] + self.probes[piece + 1]) / 2 / PROBE_NOMINAL_MS

    def slices(
        self, kinds: Tuple[str, ...], first: Optional[int] = None
    ) -> List[Tuple[float, List[int]]]:
        """``(host slowdown, the slice's ops of kinds)`` per non-empty slice,
        looking only at the ``first`` ops of the stream when given."""
        limit = len(self.ops) if first is None else first
        found = []
        for piece in range(len(self.bounds) - 1):
            part = [
                index
                for index in range(self.bounds[piece], min(self.bounds[piece + 1], limit))
                if self.ops[index].kind in kinds
            ]
            if part:
                found.append((self.slowdown(piece), part))
        return found

    def rate(self, kinds: Tuple[str, ...], normalise: bool = True) -> float:
        """Median slice rate: ops per wall-clock second, oracle time included."""
        return median([
            ratio(len(part), (self.ends[part[-1]] - self.starts[part[0]]) / 1e9)
            * (slow if normalise else 1.0)
            for slow, part in self.slices(kinds)
        ])

    def p50_ms(
        self, kinds: Tuple[str, ...], normalise: bool = True, first: Optional[int] = None
    ) -> float:
        """Median of the slices' median op latencies."""
        return median([
            percentile([(self.ends[i] - self.starts[i]) / 1e6 for i in part], 0.5)
            / (slow if normalise else 1.0)
            for slow, part in self.slices(kinds, first)
        ])

    def setup_s(self, normalise: bool = True) -> float:
        return median([seconds / (slow if normalise else 1.0) for seconds, slow in self.setups])


def _counters(workload: Workload, state: Any) -> Dict[str, float]:
    totals: Dict[str, float] = {field: 0 for field in _BACKEND_FIELDS}
    for stats in workload.backend_stats(state):
        for field in _BACKEND_FIELDS:
            totals[field] += getattr(stats, field)
    totals["cache_hits"], totals["cache_lookups"] = workload.cache_counters(state)
    totals.update(workload.extra_counters(state))
    return totals


def execute(
    workload: Workload,
    inputs: Inputs,
    ops: List[Op],
    workdir: str,
    setup_reps: int,
    tracer: Optional[Tracer] = None,
    oracle: bool = True,
) -> Pass:
    """Set up, replay ``ops``, and (with ``oracle``) run the end-of-run checks."""
    run = Pass(ops)
    current_op = tracer.current_op if tracer is not None else [OP_SETUP]
    state = None
    for rep in range(setup_reps):
        if state is not None:
            workload.teardown(state)
        directory = os.path.join(workdir, f"setup-{rep}")
        probe = host_probe_ms()
        begun = time.perf_counter()
        state = workload.setup(inputs, directory)
        seconds = time.perf_counter() - begun
        run.setups.append((seconds, (probe + host_probe_ms()) / 2 / PROBE_NOMINAL_MS))
    try:
        step, check, moved_bytes = workload.step, workload.check, workload.moved_bytes
        starts, ends, moved = run.starts, run.ends, run.moved
        clock = time.perf_counter_ns
        # The collector stays on, but what set-up allocated (a 100k-entry
        # model, a warm node cache) is parked out of its sight: otherwise
        # each full collection re-walks it at a point no seed controls.
        gc.collect()
        gc.freeze()
        run.before = _counters(workload, state)
        run.probes.append(host_probe_ms())
        for piece in range(len(run.bounds) - 1):
            for index in range(run.bounds[piece], run.bounds[piece + 1]):
                op = ops[index]
                current_op[0] = index
                begun_ns = clock()
                try:
                    result = step(state, op)
                except ForkBaseError:  # an op the engine refuses is a failed op
                    ends[index] = clock()
                    starts[index] = begun_ns
                    run.failed_ops += 1
                    if run.failed_ops == 1:
                        traceback.print_exc(file=sys.stderr)
                    continue
                ends[index] = clock()
                starts[index] = begun_ns
                if not check(state, op, result):
                    run.failed_ops += 1
                moved[index] = moved_bytes(op, result)
            run.probes.append(host_probe_ms())
        current_op[0] = OP_FINISH
        gc.unfreeze()
        run.after = _counters(workload, state)
        io_written = run.after["io_write_bytes"]
        # Memory-backed stores have no device: what they "wrote" is the
        # payload they materialised (over every replica, for the cluster).
        run.written_bytes = int(io_written if io_written else run.after["physical_bytes"])
        if oracle:
            run.checks = workload.finish(state, inputs)
            run.stored_bytes = state.stored_bytes
    finally:
        workload.teardown(state)
    return run


# -- metrics -------------------------------------------------------------------


def end_to_end(
    workload: Workload, inputs: Inputs, run: Pass, normalise: bool = True
) -> Dict[str, float]:
    """The gated metrics; ``normalise=False`` gives the raw wall-clock timings."""
    user_bytes = inputs.setup_user_bytes + sum(op.user_bytes for op in run.ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Mean payload per bulk op × the median bulk-op rate: the payload of
    # an op is fixed by the seed, so only the rate carries timing noise.
    bulk = run.indices(workload.bulk_kinds)
    bulk_rate = run.rate(workload.bulk_kinds, normalise)
    return {
        "setup_s": run.setup_s(normalise),
        "ops_s": run.rate(workload.rate_kinds, normalise),
        "p50_ms": run.p50_ms(workload.percentile_kinds(), normalise),
        "mb_s": bulk_rate * ratio(sum(run.moved[i] for i in bulk), len(bulk)) / 1e6,
        "stored_bytes_per_user_byte": ratio(run.stored_bytes, user_bytes),
        "written_bytes_per_user_byte": ratio(run.written_bytes, user_bytes),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def per_layer(
    workload: Workload, run: Pass, reference: Pass, summary: TraceSummary
) -> Dict[str, float]:
    ops = len(run.ops)
    kinds = workload.percentile_kinds()

    def self_ms_per_op(group: str) -> float:
        return summary.self_ns[group] / 1e6 / ops

    def self_ms_per_call(group: str) -> float:
        return ratio(summary.self_ns[group] / 1e6, summary.calls[group])

    def calls(*names: str) -> int:
        return sum(summary.name_calls.get(name, 0) for name in names)

    puts = run.delta("puts_new") + run.delta("puts_dup")
    passes = summary.calls["cluster.antientropy"]
    export = summary.samples.get("DataTable.export_csv", [])
    reopen = [d for d, _n, op in summary.samples.get("ForkBase.open", []) if op == OP_FINISH]
    root_seconds = summary.root_ns / 1e9
    metrics = {
        "db.put.self_ms_per_op": self_ms_per_op("db.put"),
        "db.get.self_ms_per_op": self_ms_per_op("db.get"),
        "db.diff.p50_ms": median(summary.durations_ms("ForkBase.diff")),
        # Fast-forwards move a head and commit nothing; the merge that
        # costs something is the three-way one (counter n == 1).
        "db.merge.p50_ms": median(summary.durations_ms("ForkBase.merge", n=1)),
        "db.reopen_ms": reopen[-1] / 1e6 if reopen else 0.0,
        "db.p95_ms": percentile(run.latencies_ms(kinds), 0.95),
        "db.p99_ms": percentile(run.latencies_ms(kinds), 0.99),
        "db.harness_share": 1.0 - ratio(root_seconds, run.op_seconds()),
        "table.load_csv.self_ms": self_ms_per_call("table.load_csv"),
        "table.upsert_single.p50_ms": median(summary.durations_ms("DataTable.upsert_rows", n=1)),
        "table.upsert_clustered.p50_ms": median(
            summary.durations_ms("DataTable.upsert_rows", n=20)
        ),
        "table.upsert_scattered.p50_ms": median(
            summary.durations_ms("DataTable.upsert_rows", n=5)
        ),
        "table.export.mb_s": ratio(sum(n for _d, n, _o in export) / 1e6,
                                   sum(d for d, _n, _o in export) / 1e9),
        "postree.node.encodes_per_op": summary.encodes / ops,
        "postree.node.decodes_per_op": calls(
            "LeafNode.from_chunk", "IndexNode.from_chunk", "ListIndexNode.from_chunk"
        ) / ops,
        "postree.node.bytes_encoded_per_op": summary.encoded_bytes / ops,
        "rolling.entry.calls_per_op": summary.calls["rolling.entry"] / ops,
        "rolling.entry.bytes_per_call": ratio(
            summary.counted["rolling.entry"], summary.calls["rolling.entry"]
        ),
        "rolling.bytes.mb_s": ratio(
            summary.counted["rolling.bytes"] / 1e6, summary.self_ns["rolling.bytes"] / 1e9
        ),
        "chunk.hash.calls_per_op": summary.calls["chunk.hash"] / ops,
        "chunk.hash.bytes_per_op": summary.counted["chunk.hash"] / ops,
        "chunk.base32.calls_per_op": summary.calls["chunk.base32"] / ops,
        "store.nodecache.hit_rate": ratio(run.delta("cache_hits"), run.delta("cache_lookups")),
        "store.backend.puts_per_op": puts / ops,
        "store.backend.dedup_hit_rate": ratio(run.delta("puts_dup"), puts),
        "store.backend.gets_per_op": (run.delta("gets") + run.delta("misses")) / ops,
        "store.backend.io_write_bytes_per_op": run.delta("io_write_bytes") / ops,
        "store.backend.io_read_bytes_per_op": run.delta("io_read_bytes") / ops,
        "store.backend.stored_per_payload_byte": ratio(
            run.delta("io_write_bytes"), run.delta("physical_bytes")
        ),
        "vcs.journal.bytes_per_op": summary.journal_bytes / ops,
        "vcs.journal.resets": float(summary.calls["vcs.journal.reset"]),
        "security.verify.mb_s": ratio(summary.verified_bytes / 1e6, summary.verify_ns / 1e9),
        "cluster.put.self_ms_per_chunk": self_ms_per_call("cluster.put"),
        "cluster.get.self_ms_per_chunk": self_ms_per_call("cluster.get"),
        "cluster.transport.messages_per_op": run.delta("transport_messages") / ops,
        "cluster.replica_copies_per_chunk": ratio(
            run.after.get("replica_copies", 0), run.after.get("chunks", 0)
        ),
        "cluster.antientropy.self_ms_per_pass": self_ms_per_call("cluster.antientropy"),
        "cluster.antientropy.copies_verified_per_pass": ratio(
            run.delta("copies_verified"), passes
        ),
        "cluster.antientropy.chunks_examined_per_pass": ratio(
            run.delta("chunks_examined"), passes
        ),
        "cluster.antientropy.chunks_transferred_per_pass": ratio(
            run.delta("chunks_transferred"), passes
        ),
        # Same ops, same state, with and without the wrappers; both sides
        # normalised, because the host changes speed between the passes.
        "trace.overhead_ratio": ratio(
            run.p50_ms(kinds, first=len(reference.ops)), reference.p50_ms(kinds)
        ),
        "trace.coverage": 1.0 - ratio(summary.layer_self_ns()["db"], summary.root_ns),
    }
    for group in (
        "types.wrap", "types.unwrap", "types.fobject",
        "postree.edit", "postree.lookup", "postree.build", "postree.diff", "postree.merge",
        "postree.node.encode", "postree.node.decode",
        "rolling.entry", "rolling.bytes", "chunk.hash", "chunk.base32",
        "store.nodecache", "store.backend.put", "store.backend.get",
        "vcs.commit", "vcs.load", "vcs.journal.append",
        "cluster.ring", "cluster.transport", "cluster.node",
    ):
        metrics[f"{group}.self_ms_per_op"] = self_ms_per_op(group)
    return metrics


# -- one invocation ----------------------------------------------------------------


def environment(seed: int) -> Dict[str, Any]:
    """What a result must be pinned to before two runs may be compared."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import zstandard  # noqa: F401

        zstd = True
    except ImportError:
        zstd = False
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,  # the vectorised chunker changes the path
        "zstd": zstd,  # and so does the pack codec
        "nproc": os.cpu_count(),
    }


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` by hand (no subprocess to reap)."""
    git = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"  # an exported checkout has no .git


def pin_to_one_cpu() -> None:
    """One client thread on one core: migrations between the sandbox's two
    vCPUs are a noise source no seed controls."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(
    name: str,
    seed: int,
    seconds: Optional[float] = None,
    trace: bool = False,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """One invocation: returns the full result record (see README)."""
    spec = load_spec()
    workload = WORKLOADS[name]
    pin_to_one_cpu()
    if seconds is None:
        seconds = spec["run_seconds"]
    # ``scale`` shrinks data and ops together (smoke tests only);
    # ``seconds`` moves op counts alone — data sizes are the issue's.
    ops_scale = scale * seconds / spec["run_seconds"]
    inputs = workload.generate(random.Random(f"{name}:{seed}"), ops_scale, scale)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        if trace:
            prefix = reference_prefix(workload, inputs.ops)
            reference = execute(workload, inputs, prefix, workdir, 1, oracle=False)
            raw = {}
            tracer = Tracer()
            tracer.install()
            try:
                run = execute(workload, inputs, inputs.ops, workdir, 1, tracer)
            finally:
                tracer.remove()
            summary = tracer.summarise()
            values = per_layer(workload, run, reference, summary)
            tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
            total_ns = sum(summary.self_ns.values())
            shares = {
                "layers": {k: ratio(v, total_ns) for k, v in summary.layer_self_ns().items()},
                "groups": {k: ratio(v, total_ns) for k, v in summary.self_ns.items()},
            }
        else:
            run = execute(workload, inputs, inputs.ops, workdir, SETUP_REPS)
            values = end_to_end(workload, inputs, run)
            raw = end_to_end(workload, inputs, run, normalise=False)
            shares = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != {metric["name"] for metric in declared}:
        raise ValueError(
            "computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ {metric['name'] for metric in declared})}"
        )
    failed_checks = [label for label, ok in run.checks if not ok]
    attempted = len(run.ops) + len(run.checks)
    failed = run.failed_ops + len(failed_checks)
    warnings = []
    if run.op_seconds() < MIN_PHASE_SECONDS and scale == 1.0:
        warnings.append(
            f"timed phase ran {run.op_seconds():.2f} s (< {MIN_PHASE_SECONDS} s): resize it"
        )
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "input_digest": input_digest(inputs),
        "ops": len(run.ops),
        "latency_samples": len(run.indices(workload.percentile_kinds())),
        "timed_seconds": run.op_seconds(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": failed == 0,
        "failed_checks": failed_checks,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        # What the wall clock said, before scaling to the nominal host speed.
        "raw_wall_clock": {name: raw[name] for name in ("setup_s", "ops_s", "p50_ms", "mb_s")
                           if name in raw},
        "host_slowdown": median([run.slowdown(k) for k in range(len(run.bounds) - 1)]),
        "self_time_shares": shares,
        "warnings": warnings,
        "env": environment(seed),
    }


def render(result: Dict[str, Any]) -> str:
    """The human-readable block printed above the one-line JSON result."""
    lines = [
        f"[{result['workload']}] seed={result['env']['seed']} trace={result['trace']} "
        f"ops={result['ops']} timed={result['timed_seconds']:.2f}s "
        f"host_slowdown={result['host_slowdown']:.2f} "
        f"input_digest={result['input_digest'][:16]}"
    ]
    for name, metric in result["metrics"].items():
        sampled = name in ("p50_ms", "db.p95_ms", "db.p99_ms")
        note = f"  (n={result['latency_samples']})" if sampled else ""
        if name in result["raw_wall_clock"]:
            note += f"  [raw wall clock: {result['raw_wall_clock'][name]:.6g}]"
        lines.append(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}{note}")
    lines.append(
        f"  {'fail_ratio':<48} {result['fail_ratio']:>16.6g} ratio  "
        f"({result['failed']} of {result['attempted']})"
    )
    if result["self_time_shares"]:
        shares = sorted(result["self_time_shares"]["layers"].items(), key=lambda item: -item[1])
        lines.append("  self-time shares: " + "  ".join(f"{k}={v:.1%}" for k, v in shares))
    for label in result["failed_checks"]:
        lines.append(f"  FAILED end-of-run check: {label}")
    for warning in result["warnings"]:
        lines.append(f"  warning: {warning}")
    return "\n".join(lines)
