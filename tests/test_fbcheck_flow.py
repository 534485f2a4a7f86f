"""Tests for fbcheck's engine features.

Covers the stale-allowlist audit (and its ``--select`` scoping), missing
paths, and pragma edge cases.
"""

from __future__ import annotations

from pathlib import Path

from fbcheck.config import Config
from fbcheck.core import STALE_ALLOW_RULE, check_paths, check_source

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fbcheck" / "selftest" / "fixtures"


# -- engine features -----------------------------------------------------------


def test_stale_allow_entry_warns_but_exits_zero():
    config = Config(
        allow={"FB-DETERM": ("src/repro/chunk/nowhere.py::time.time",)}
    )
    report = check_paths(
        [str(FIXTURES / "determ_ok.py")], config=config, stale_allow=True
    )
    stale = [v for v in report.violations if v.rule == STALE_ALLOW_RULE]
    assert stale, [v.render() for v in report.violations]
    assert all(v.severity == "warning" for v in stale)
    assert "[warning]" in stale[0].render()
    assert report.exit_code == 0


def test_stale_allow_only_audits_selected_rules():
    config = Config(
        allow={
            "FB-DETERM": ("src/repro/chunk/nowhere.py::time.time",),
            "FB-ERRORS": ("src/repro/chunk/nowhere.py::OSError",),
        }
    )
    report = check_paths(
        [str(FIXTURES / "determ_ok.py")],
        config=config,
        select={"FB-DETERM"},
        stale_allow=True,
    )
    stale = [v.message for v in report.violations if v.rule == STALE_ALLOW_RULE]
    assert len(stale) == 1 and "FB-DETERM" in stale[0], stale


def test_default_allowlist_has_no_stale_entries(fbcheck_live_report):
    stale = [v for v in fbcheck_live_report.violations if v.rule == STALE_ALLOW_RULE]
    assert stale == [], "\n".join(v.render() for v in stale)


def test_missing_path_is_an_error(tmp_path):
    report = check_paths([str(tmp_path / "no_such_dir")])
    assert report.errors and "no_such_dir" in report.errors[0]
    assert report.exit_code == 2


def test_unknown_pragma_rule_id_is_an_error(tmp_path):
    target = tmp_path / "p.py"
    # The pragma is assembled from pieces so fbcheck's own scan of this
    # test file does not see an unknown-rule pragma on this line.
    pragma = "# fbcheck: " + "ignore[FB-NOPE]"
    target.write_text(f"import time\nt = time.time()  {pragma}\n")
    report = check_paths([str(target)])
    assert report.errors, "unknown pragma rule id must be reported"
    assert "FB-NOPE" in report.errors[0]
    assert report.exit_code == 2


def test_pragma_on_decorated_def_body():
    src = (
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "def deco(f):\n"
        "    return f\n"
        "@deco\n"
        "def now():\n"
        "    return time.time()  # fbcheck: ignore[FB-DETERM]\n"
    )
    assert check_source(src, "p.py") == []
    # Without the pragma the same code is flagged.
    bare = src.replace("  # fbcheck: ignore[FB-DETERM]", "")
    assert [v.rule for v in check_source(bare, "p.py")] == ["FB-DETERM"]


def test_skip_file_after_module_docstring():
    src = (
        '"""A documented module."""\n'
        "# fbcheck: skip-file\n"
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "t = time.time()\n"
    )
    assert check_source(src, "p.py") == []
