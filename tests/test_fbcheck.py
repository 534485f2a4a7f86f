"""Self-tests for the fbcheck static analyzer.

Three layers of assurance:

1. fixture tests — every ``<rule>_bad*.py`` under
   ``fbcheck/selftest/fixtures/`` yields at least one violation of exactly
   that rule and nothing else; every ``<rule>_ok*.py`` yields none;
2. engine unit tests — pragmas, skip-file, allowlists, the report/exit-code
   contract, and the CLI (including the acceptance criterion that the CLI
   exits nonzero on each rule's failing fixture);
3. the meta-test — the live tree (``src tests benchmarks examples``) is
   clean, so the invariants the rules encode actually hold in the repo.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fbcheck import check_paths, check_source
from fbcheck.config import Config, DEFAULT_CONFIG
from fbcheck.core import STALE_ALLOW_RULE

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fbcheck" / "selftest" / "fixtures"

#: filename prefix → the one rule the fixture must exercise.
RULE_BY_PREFIX = {
    "immut": "FB-IMMUT",
    "privacy": "FB-PRIVACY",
    "determ": "FB-DETERM",
    "errors": "FB-ERRORS",
    "layers": "FB-LAYERS",
    "durable": "FB-DURABLE",
}


def _fixtures(suffix):
    out = []
    for path in sorted(FIXTURES.glob(f"*_{suffix}*.py")):
        prefix = path.name.split("_")[0]
        out.append(pytest.param(path, RULE_BY_PREFIX[prefix], id=path.stem))
    return out


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "fbcheck", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


# -- 1. fixtures ---------------------------------------------------------------


@pytest.mark.parametrize("path,rule", _fixtures("bad"))
def test_bad_fixture_fails_its_rule(path, rule):
    report = check_paths([str(path)])
    assert report.errors == []
    assert report.violations, f"{path.name} produced no violations"
    assert {v.rule for v in report.violations} == {rule}
    assert report.exit_code == 1


@pytest.mark.parametrize("path,rule", _fixtures("ok"))
def test_ok_fixture_is_clean(path, rule):
    report = check_paths([str(path)])
    assert report.errors == []
    assert report.violations == [], [v.render() for v in report.violations]
    assert report.exit_code == 0


def test_import_cycle_detected_across_files():
    report = check_paths([str(FIXTURES / "cycle")])
    cycle = [v for v in report.violations if "import cycle" in v.message]
    assert cycle, [v.render() for v in report.violations]
    assert all(v.rule == "FB-LAYERS" for v in report.violations)
    assert "repro.store.cycle_a" in cycle[0].message
    assert "repro.store.cycle_b" in cycle[0].message


# -- 2. engine behavior --------------------------------------------------------


def test_pragma_suppresses_named_rule():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def now():\n"
        "    return time.time()  # fbcheck: ignore[FB-DETERM]\n"
    )
    assert check_source(src, "p.py") == []


def test_pragma_for_other_rule_does_not_suppress():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def now():\n"
        "    return time.time()  # fbcheck: ignore[FB-ERRORS]\n"
    )
    violations = check_source(src, "p.py")
    assert [v.rule for v in violations] == ["FB-DETERM"]


def test_monotonic_clocks_flagged_in_cluster_paths():
    """The latency tracker's clock must be injected: monotonic/perf_counter
    reads inside ``src/repro/cluster/`` are wall-clock and break replay."""
    src = (
        "# fbcheck-fixture-path: src/repro/cluster/lat.py\n"
        "import time\n"
        "def sample():\n"
        "    return time.monotonic() - time.perf_counter()\n"
    )
    violations = check_source(src, "lat.py")
    assert len(violations) == 2
    assert {v.rule for v in violations} == {"FB-DETERM"}


def test_bare_pragma_suppresses_all_rules():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def now():\n"
        "    return time.time()  # fbcheck: ignore\n"
    )
    assert check_source(src, "p.py") == []


def test_skip_file_header_disables_analysis():
    src = (
        "# fbcheck: skip-file\n"
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
    )
    assert check_source(src, "p.py") == []


def test_allowlist_entry_suppresses_matching_detail():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def now():\n"
        "    return time.time()\n"
    )
    assert [v.rule for v in check_source(src, "p.py")] == ["FB-DETERM"]
    allowing = Config(
        allow={"FB-DETERM": ("src/repro/chunk/p.py::time.time",)}
    )
    assert check_source(src, "p.py", config=allowing) == []


def test_durable_ignores_fsync_in_other_scope():
    # No fsync anywhere excuses a bare rename: in the same function or
    # elsewhere, it leaves the parent-directory fsync undone.
    src = (
        "# fbcheck-fixture-path: src/repro/store/q.py\n"
        "import os\n"
        "def sync_elsewhere(handle):\n"
        "    os.fsync(handle.fileno())\n"
        "def publish(tmp, path, handle):\n"
        "    os.fsync(handle.fileno())\n"
        "    os.replace(tmp, path)\n"
    )
    violations = check_source(src, "q.py")
    assert [(v.rule, v.line) for v in violations] == [("FB-DURABLE", 7)]


def test_durable_scoped_to_persistence_paths():
    src = (
        "import os\n"
        "def publish(tmp, path):\n"
        "    os.replace(tmp, path)\n"
    )
    for path in ("src/repro/workloads/q.py", "src/repro/store/durability.py"):
        header = f"# fbcheck-fixture-path: {path}\n"
        assert check_source(header + src, "q.py") == [], path
    header = "# fbcheck-fixture-path: src/repro/store/q.py\n"
    assert [v.rule for v in check_source(header + src, "q.py")] == ["FB-DURABLE"]


def test_violation_render_format():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "t = time.time()\n"
    )
    violations = check_source(src, "p.py")
    assert len(violations) == 1
    rendered = violations[0].render()
    assert rendered.startswith("p.py:3: FB-DETERM ")


def test_syntax_error_reported_not_crashing(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = check_paths([str(bad)])
    assert report.errors and report.exit_code == 2


def test_default_config_allowlists_are_consumed():
    # Every DEFAULT_CONFIG allow entry names a known rule; stale entries
    # (e.g. after a refactor renames a method) should fail loudly here.
    from fbcheck.core import all_rules

    known = {rule.rule_id for rule in all_rules()}
    assert set(DEFAULT_CONFIG.allow) <= known


# -- 3. CLI + live tree --------------------------------------------------------


@pytest.mark.parametrize("path,rule", _fixtures("bad"))
def test_cli_exits_nonzero_on_bad_fixture(path, rule):
    proc = _run_cli(str(path.relative_to(REPO_ROOT)))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f" {rule} " in proc.stdout


def test_cli_exits_zero_on_ok_fixtures():
    paths = [
        str(p.relative_to(REPO_ROOT)) for p in sorted(FIXTURES.glob("*_ok*.py"))
    ]
    proc = _run_cli(*paths)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_select_limits_rules():
    proc = _run_cli(
        "--select", "FB-ERRORS", str((FIXTURES / "determ_bad.py").relative_to(REPO_ROOT))
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_rejects_unknown_rule_id():
    proc = _run_cli("--select", "FB-NOPE", "src")
    assert proc.returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == len(RULE_BY_PREFIX)
    for rule in RULE_BY_PREFIX.values():
        assert rule in proc.stdout


def test_live_tree_is_clean(fbcheck_live_report):
    """The repo itself upholds every invariant fbcheck enforces."""
    assert fbcheck_live_report.errors == []
    # Stale-allowlist warnings are test_fbcheck_flow's to judge.
    found = [v for v in fbcheck_live_report.violations if v.rule != STALE_ALLOW_RULE]
    assert found == [], "\n".join(v.render() for v in found)
