"""Self-test of the end-to-end harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — tier-1's
``testpaths`` is ``tests``, so this is not collected there.  Everything
runs at ``scale=0.02`` (2k-entry maps, a handful of ops): the point is
that the plumbing holds, not that the numbers mean anything.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import compare as compare_module
from benchmarks.e2e.harness import REPO, load_spec, run_workload
from benchmarks.e2e.tracer import WRAP_TABLE, Tracer, resolve

SPEC = load_spec()
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
ENTRIES = [entry for entries in WRAP_TABLE.values() for entry in entries]


def _function(raw):
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


@pytest.mark.parametrize("module_name, qualname", ENTRIES)
def test_wrap_table_entry_resolves(module_name, qualname):
    """A rename in src/ must fail here, not report zeros in a traced run."""
    _owner, _attribute, raw = resolve(module_name, qualname)
    assert callable(_function(raw))


def test_wrap_table_has_no_duplicates():
    assert len(set(ENTRIES)) == len(ENTRIES)


def test_self_time_subtracts_children_only():
    tracer = Tracer()
    tracer.names, tracer.groups = ["outer", "inner"], ["db.put", "postree.edit"]
    #   0: outer [0, 100]          self 100 - 30 - 40 = 30
    #   1:   inner [10, 40]        self 30
    #   2:   inner [50, 90]        self 40 - 10 = 30
    #   3:     inner [60, 70]      self 10
    #   4: outer [200, 230]        self 30 (set-up span: not in the totals)
    spans = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (1, 50, 90, 0, 0),
             (1, 60, 70, 2, 0), (0, 200, 230, -1, -1)]
    for name_id, start, end, parent, op in spans:
        tracer.name_ids.append(name_id)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(op)
        tracer.counts.append(0)
    assert tracer.self_times() == [30, 30, 30, 10, 30]
    summary = tracer.summarise()
    assert summary.self_ns["db.put"] == 30
    assert summary.self_ns["postree.edit"] == 70
    assert summary.root_ns == 100
    assert sum(summary.layer_self_ns().values()) == summary.root_ns


def test_live_wrappers_nest_and_count():
    from repro.chunk import Chunk, ChunkType
    from repro.store import InMemoryStore

    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_op[0] = 0
        InMemoryStore().put(Chunk(ChunkType.BLOB, b"x" * 100))
    finally:
        tracer.remove()
    names = [tracer.names[name_id] for name_id in tracer.name_ids]
    assert names == ["Chunk.compute_uid", "InMemoryStore.put"]
    assert tracer.counts[0] == 100  # bytes hashed, counted at the boundary
    assert list(tracer.parents) == [-1, -1]
    assert all(end >= start > 0 for start, end in zip(tracer.starts, tracer.ends))


def test_wrappers_are_fully_removed():
    before = {entry: resolve(*entry) for entry in ENTRIES}
    owned = {entry: attribute in vars(owner) for entry, (owner, attribute, _) in before.items()}
    tracer = Tracer()
    tracer.install()
    try:
        for entry, (owner, attribute, raw) in before.items():
            installed = inspect.getattr_static(owner, attribute)
            assert _function(installed).__wrapped__ is _function(raw), entry
    finally:
        tracer.remove()
    for entry, (owner, attribute, raw) in before.items():
        assert inspect.getattr_static(owner, attribute) is raw, entry
        assert (attribute in vars(owner)) == owned[entry], entry
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            leftovers = [attr for attr, value in vars(module).items()
                         if getattr(value, "__wrapped__", None) is not None
                         and getattr(value, "__name__", "").startswith("traced")]
            assert not leftovers, (name, leftovers)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_emits_exactly_the_declared_metrics(name, trace):
    result = run_workload(name, seed=3, trace=trace, scale=0.02)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"], result["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] > result["ops"]
    if trace:
        assert os.path.exists(os.path.join(REPO, "benchmarks", "e2e", "out", f"trace-{name}.jsonl"))
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _counts(result):
    """The metrics that are counts of work, which must repeat exactly."""
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


# One memory-backed, one durable, one clustered: between them every
# counter source (spans, store stats, transport, sync reports) is covered.
@pytest.mark.parametrize("name", ["dict_put", "map_commit", "cluster_repair"])
def test_counts_repeat_for_a_seed_and_inputs_differ_across_seeds(name):
    first = run_workload(name, seed=5, trace=True, scale=0.02)
    again = run_workload(name, seed=5, trace=True, scale=0.02)
    other = run_workload(name, seed=6, trace=True, scale=0.02)
    assert first["input_digest"] == again["input_digest"] != other["input_digest"]
    assert first["ops"] == again["ops"]
    assert _counts(first) == _counts(again)
    for metric in ("chunk.hash.bytes_per_op", "postree.node.bytes_encoded_per_op"):
        # Commit timestamps are hashed into FNodes, so byte totals may
        # differ only through them — never in the bytes of the data.
        assert first["metrics"][metric]["value"] == pytest.approx(
            again["metrics"][metric]["value"], rel=1e-3)


def test_byte_ratios_repeat_for_a_seed():
    first = run_workload("blob_versions", seed=5, scale=0.02)["metrics"]
    again = run_workload("blob_versions", seed=5, scale=0.02)["metrics"]
    for metric in ("stored_bytes_per_user_byte", "written_bytes_per_user_byte"):
        assert first[metric]["value"] == pytest.approx(again[metric]["value"], rel=1e-3)


def _record(tmp_path, label, **changes):
    metrics = {"ops_s": 100.0, "p50_ms": 2.0}
    metrics.update(changes.pop("metrics", {}))
    record = {
        "workload": "map_commit", "trace": 0, "input_digest": "d", "ops": 10,
        "attempted": 12, "failed": 0, "env": {"seed": 1},
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    record.update(changes)
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_verdicts_and_refusals(tmp_path):
    base = _record(tmp_path, "a")
    verdicts = {row[1]: row[-1] for row in compare_module.compare(base, base, SPEC)}
    assert verdicts == {"ops_s": "ok", "p50_ms": "ok", "fail_ratio": "ok"}
    slower = _record(tmp_path, "b", metrics={"ops_s": 70.0, "p50_ms": 2.1})
    verdicts = {row[1]: row[-1] for row in compare_module.compare(base, slower, SPEC)}
    assert verdicts["ops_s"] == "worse" and verdicts["p50_ms"] == "ok"
    failing = _record(tmp_path, "c", failed=1)
    assert ("map_commit", "fail_ratio") in {
        row[:2] for row in compare_module.compare(base, failing, SPEC) if row[-1] == "worse"}
    for change in ({"input_digest": "other"}, {"ops": 11}, {"env": {"seed": 2}}):
        with pytest.raises(ValueError, match="differ"):
            compare_module.compare(base, _record(tmp_path, "d", **change), SPEC)


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    noisy = [100.0, 80.0, 125.0, 90.0, 112.0]
    assert compare_module.verdict(steady, steady, "higher", 0.10)[1] == "ok"
    assert compare_module.verdict(steady, noisy, "higher", 0.10)[1] == "unresolved"
    assert compare_module.verdict(steady, [80.0] * 5, "higher", 0.10)[1] == "worse"


def test_entry_point_refuses_a_checkout_without_the_program(tmp_path):
    """The driver runs the command where only the benchmark's files exist."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    (bare / "run.py").write_text(
        open(os.path.join(REPO, "benchmarks", "e2e", "run.py"), encoding="utf-8").read())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "dict_put", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_fbcheck_is_clean_on_benchmarks():
    done = subprocess.run([sys.executable, "-m", "fbcheck", "benchmarks"], cwd=REPO,
                          capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.skipif(importlib.util.find_spec("ruff") is None, reason="ruff is not installed")
def test_ruff_is_clean_on_benchmarks():
    done = subprocess.run([sys.executable, "-m", "ruff", "check", "benchmarks"], cwd=REPO,
                          capture_output=True, text=True, check=False, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
