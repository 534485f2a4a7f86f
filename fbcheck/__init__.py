"""fbcheck — invariant-enforcing static analysis for the ForkBase substrate.

ForkBase's guarantees rest on invariants the runtime cannot cheaply check:
chunks and POS-Tree nodes are immutable once hashed, uids are only
tamper-evident if every byte that feeds SHA-256 is produced deterministically,
and the layering chunk → rolling → postree → types → vcs/store → db → api is
what makes SIRI's universal reuse composable.  fbcheck enforces those
invariants at lint time, over the AST, so the whole class of regression is
caught mechanically instead of one chaos run at a time.

Usage::

    python -m fbcheck src tests benchmarks examples
    python -m fbcheck --list-rules

Each rule is registered in :mod:`fbcheck.rules` and documented in README.md
("Static analysis & invariants").  Violations print as
``file:line: RULE-ID message`` and the process exits nonzero if any survive
the per-rule allowlists (:mod:`fbcheck.config`) and inline pragma
comments (``fbcheck: ignore[RULE-ID]``; unknown rule ids are an error).

Every rule is one pass over one file's AST (FB-LAYERS adds a
whole-program cycle check); none builds a control-flow graph.  That
every served byte hashes to its uid is a runtime property, checked by
the stores' reads and pinned by corrupt-at-rest tests, not here.  A run
is one serial pass that prints one text format.
"""

from fbcheck.core import (
    ModuleFile,
    Rule,
    Violation,
    all_rules,
    check_module,
    check_paths,
    check_source,
    register,
)

__version__ = "1.2.0"

__all__ = [
    "ModuleFile",
    "Rule",
    "Violation",
    "all_rules",
    "check_module",
    "check_paths",
    "check_source",
    "register",
    "__version__",
]
