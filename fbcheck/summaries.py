"""One-level interprocedural taint summaries for FB-TAMPER.

Whole-program dataflow is overkill for a lint pass, but purely local
analysis gets the codebase's idioms wrong in both directions: PackStore's
``_fetch`` calls ``self._view(...)`` (whose *result* is unverified mmap
bytes) and ``self._decode_record(record, uid)`` (which CRC-checks its
input before decoding — the taint dies inside).  The compromise is one
level of summaries: every function in a module is analyzed once in
isolation and reduced to a :class:`~fbcheck.dataflow.FuncTaint`:

- ``returns_tainted`` — its return value is unverified bytes regardless
  of inputs (it contains a source);
- ``passes_taint`` — the set of parameters whose taint survives into the
  return value.  Computed by running the taint engine once per parameter
  with only that parameter tainted, so a clean parameter (``uid``) does
  not smear taint onto a sanitized one (``record``).

Summaries are consulted by *name* (the last dotted segment of the call),
which is exactly right for ``self._helper(...)`` method calls within a
module and harmlessly approximate across classes in the same file.
Summary computation itself never consults summaries — one level, no
fixpoint, no recursion worries.
"""

from __future__ import annotations

import ast
from typing import Dict, Set, Tuple

from fbcheck.cfg import build_cfgs
from fbcheck.dataflow import FuncTaint, TaintAnalysis, TaintSpec


def _param_names(func: ast.AST) -> Tuple[str, ...]:
    args = func.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


def compute_summaries(module: "ModuleFileLike", spec: TaintSpec) -> Dict[str, FuncTaint]:
    """Taint summaries for every function in a module."""
    summaries: Dict[str, FuncTaint] = {}
    for func, cfg, _owner in build_cfgs(module).values():
        params = _param_names(func)
        base = TaintAnalysis(cfg, spec).run()
        passes: Set[str] = set()
        if not base.returns_tainted:
            for param in params:
                if param == "self":
                    continue
                run = TaintAnalysis(cfg, spec, tainted_params=[param]).run()
                if run.returns_tainted:
                    passes.add(param)
        # Last definition wins on name collisions across classes — the
        # one-level model is per-name, documented in the module docstring.
        summaries[func.name] = FuncTaint(
            returns_tainted=base.returns_tainted,
            passes_taint=frozenset(passes),
            params=params,
        )
    return summaries


class ModuleFileLike:  # pragma: no cover - typing aid only
    tree: ast.Module
