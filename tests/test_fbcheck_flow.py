"""Tests for fbcheck's flow-sensitive layer.

Covers, bottom-up:

1. the CFG builder — edge kinds (true/false/back/exc), ``with`` regions,
   dominators, and statement→block mapping;
2. the taint engine — sources, sanitizers, propagation, tainted params;
3. one-level taint summaries — returns-tainted / passes-taint;
4. the two flow rules through ``check_source`` (interprocedural cases
   the fixtures keep simple);
5. engine features that ride along: severity levels, the stale-allowlist
   audit, and pragma edge cases.
"""

from __future__ import annotations

import ast
from pathlib import Path

from fbcheck.cfg import build_cfgs, iter_functions
from fbcheck.config import Config, DEFAULT_CONFIG
from fbcheck.core import ModuleFile, STALE_ALLOW_RULE, check_paths, check_source
from fbcheck.dataflow import TaintAnalysis
from fbcheck.rules.tamper import spec_from_config
from fbcheck.summaries import compute_summaries

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fbcheck" / "selftest" / "fixtures"
SPEC = spec_from_config(DEFAULT_CONFIG)
HEADER = "# fbcheck-fixture-path: src/repro/store/flowtest.py\n"


def _cfg(src, name=None):
    module = ModuleFile("src/repro/store/flowtest.py", HEADER + src)
    for func, cfg, _owner in build_cfgs(module).values():
        if name is None or func.name == name:
            return func, cfg
    raise AssertionError(f"no function {name!r} in source")


def _edge_kinds(cfg):
    return {kind for block in cfg.blocks for _target, kind in block.succs}


def _taint(src, name=None, tainted_params=()):
    _func, cfg = _cfg(src, name)
    return TaintAnalysis(cfg, SPEC, tainted_params=tainted_params).run()


def _summaries(src):
    module = ModuleFile("src/repro/store/flowtest.py", HEADER + src)
    return compute_summaries(module, SPEC)


# -- 1. CFG construction -------------------------------------------------------


def test_cfg_if_makes_true_false_edges():
    _func, cfg = _cfg(
        "def f(x):\n"
        "    if x:\n"
        "        y = 1\n"
        "    else:\n"
        "        y = 2\n"
        "    return y\n"
    )
    kinds = _edge_kinds(cfg)
    assert "true" in kinds and "false" in kinds


def test_cfg_loop_has_back_edge():
    _func, cfg = _cfg(
        "def f(items):\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        total += item\n"
        "    return total\n"
    )
    assert "back" in _edge_kinds(cfg)


def test_cfg_try_except_has_exc_edge_to_handler():
    func, cfg = _cfg(
        "def f(handle):\n"
        "    try:\n"
        "        handle.write(b'x')\n"
        "    except OSError:\n"
        "        return None\n"
        "    return True\n"
    )
    assert "exc" in _edge_kinds(cfg)
    # The write's block must have an exc successor (the handler).
    call = next(
        node for node in ast.walk(func) if isinstance(node, ast.Expr)
    )
    block_id = cfg.block_of(call)
    assert block_id is not None
    kinds = {kind for _t, kind in cfg.blocks[block_id].succs}
    assert "exc" in kinds


def test_cfg_uncaught_raise_reaches_raise_exit():
    _func, cfg = _cfg(
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return x\n"
    )
    raise_preds = {
        block.id
        for block in cfg.blocks
        if any(target == cfg.raise_exit for target, _k in block.succs)
    }
    assert raise_preds


def test_cfg_with_region_recorded():
    _func, cfg = _cfg(
        "def f(self):\n"
        "    with self._lock:\n"
        "        self.total += 1\n"
    )
    assert any("self._lock" in ctxs for ctxs in cfg.with_enters.values())
    body_blocks = [b for b in cfg.blocks if "self._lock" in b.withs]
    assert body_blocks


def test_cfg_entry_dominates_every_block():
    _func, cfg = _cfg(
        "def f(x):\n"
        "    if x:\n"
        "        x += 1\n"
        "    while x:\n"
        "        x -= 1\n"
        "    return x\n"
    )
    doms = cfg.dominators()
    for block in cfg.blocks:
        assert cfg.entry in doms[block.id]


def test_iter_functions_reports_owner_class():
    tree = ast.parse(
        "class C:\n"
        "    def m(self):\n"
        "        pass\n"
        "def f():\n"
        "    pass\n"
    )
    owners = {func.name: owner for func, owner in iter_functions(tree)}
    assert owners["m"].name == "C"
    assert owners["f"] is None


# -- 2. taint engine -----------------------------------------------------------


def test_taint_source_reaches_return():
    run = _taint("def f(handle):\n    return handle.read()\n")
    assert run.returns_tainted
    assert any(e.kind == "return" for e in run.events)


def test_taint_survives_slicing_and_assignment():
    run = _taint(
        "def f(handle):\n"
        "    data = handle.read()\n"
        "    frame = data[8:]\n"
        "    return frame\n"
    )
    assert run.returns_tainted


def test_crc_compare_sanitizes():
    run = _taint(
        "import zlib\n"
        "def f(handle, stored):\n"
        "    data = handle.read()\n"
        "    if zlib.crc32(data) != stored:\n"
        "        raise ValueError('corrupt')\n"
        "    return data\n",
        name="f",
    )
    assert not run.returns_tainted


def test_verify_method_sanitizes_receiver():
    run = _taint(
        "def f(self, uid):\n"
        "    chunk = self._fetch(uid)\n"
        "    chunk.verify()\n"
        "    return chunk\n"
    )
    assert not run.returns_tainted


def test_decode_of_tainted_bytes_is_an_event():
    run = _taint(
        "import json\n"
        "def f(handle):\n"
        "    data = handle.read()\n"
        "    return json.loads(data)\n",
        name="f",
    )
    assert any(e.kind == "decode" for e in run.events)


def test_tainted_param_flows_to_return():
    run = _taint("def f(data):\n    return data\n", tainted_params=["data"])
    assert run.returns_tainted


def test_branch_join_is_a_may_analysis():
    # Taint on *either* branch taints the join.
    run = _taint(
        "def f(handle, flag):\n"
        "    if flag:\n"
        "        data = handle.read()\n"
        "    else:\n"
        "        data = b''\n"
        "    return data\n"
    )
    assert run.returns_tainted


# -- 3. call summaries ---------------------------------------------------------


def test_summary_returns_tainted():
    summaries = _summaries("def load(handle):\n    return handle.read()\n")
    assert summaries["load"].returns_tainted


def test_summary_passes_taint_through_param():
    summaries = _summaries("def ident(buf):\n    return buf\n")
    assert "buf" in summaries["ident"].passes_taint


# -- 4. flow rules through check_source ---------------------------------------


def test_tamper_private_helper_not_flagged():
    src = HEADER + "def _peek(handle):\n    return handle.read()\n"
    assert check_source(src, "flowtest.py") == []


def test_tamper_flags_via_taint_passing_helper():
    src = HEADER + (
        "def _ident(buf):\n"
        "    return buf\n"
        "def serve(handle):\n"
        "    return _ident(handle.read())\n"
    )
    assert [v.rule for v in check_source(src, "flowtest.py")] == ["FB-TAMPER"]


def test_locked_init_is_exempt():
    src = HEADER + (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0  # guarded-by: self._lock\n"
    )
    assert check_source(src, "flowtest.py") == []


def test_locked_branch_local_with_does_not_dominate():
    src = HEADER + (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0  # guarded-by: self._lock\n"
        "    def read(self, flag):\n"
        "        if flag:\n"
        "            with self._lock:\n"
        "                pass\n"
        "        return self.n\n"
    )
    assert [v.rule for v in check_source(src, "flowtest.py")] == ["FB-LOCKED"]


# -- 5. engine features --------------------------------------------------------


def test_stale_allow_entry_warns_but_exits_zero():
    config = Config(
        allow={"FB-DETERM": ("src/repro/chunk/nowhere.py::time.time",)}
    )
    report = check_paths(
        [str(FIXTURES / "tamper_ok.py")], config=config, stale_allow=True
    )
    stale = [v for v in report.violations if v.rule == STALE_ALLOW_RULE]
    assert stale, [v.render() for v in report.violations]
    assert all(v.severity == "warning" for v in stale)
    assert "[warning]" in stale[0].render()
    assert report.exit_code == 0


def test_default_allowlist_has_no_stale_entries(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = check_paths(
        ["src", "tests", "benchmarks", "examples"], stale_allow=True
    )
    stale = [v for v in report.violations if v.rule == STALE_ALLOW_RULE]
    assert stale == [], "\n".join(v.render() for v in stale)


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
    src = HEADER + (
        "def deco(f):\n"
        "    return f\n"
        "@deco\n"
        "def serve(handle):\n"
        "    return handle.read()  # fbcheck: ignore[FB-TAMPER]\n"
    )
    assert check_source(src, "flowtest.py") == []
    # Without the pragma the same code is flagged.
    assert [v.rule for v in check_source(src.replace("  # fbcheck: ignore[FB-TAMPER]", ""), "flowtest.py")] == ["FB-TAMPER"]


def test_skip_file_after_module_docstring():
    src = (
        '"""A documented module."""\n'
        "# fbcheck: skip-file\n"
        "# fbcheck-fixture-path: src/repro/chunk/p.py\n"
        "import time\n"
        "t = time.time()\n"
    )
    assert check_source(src, "p.py") == []
