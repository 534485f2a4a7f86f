"""FB-DURABLE: rename-based persistence goes through ``durable_replace``.

``os.replace`` makes a rename atomic but says nothing about the *bytes*
of the source file reaching stable storage, nor about the rename itself
surviving a power cut — the classic bug class this repo shipped with:
``heads.json`` was written, renamed, and acknowledged while its pages
still sat in the page cache, so a power cut could leave an empty or
stale head table behind an atomic-looking rename.

:func:`repro.store.durability.durable_replace` is the one sanctioned
rename: it fsyncs the source, renames, then fsyncs the parent directory.
In persistence modules (:data:`fbcheck.config.DURABLE_PERSISTENCE_PATHS`)
every bare ``os.replace`` is therefore a violation — even after an fsync
of the temp file, which makes the bytes durable but not the rename.  The
durability module itself, where the raw syscall lives, is exempt by path.
No simulator models page-cache loss, so no test notices a missing fsync:
this rule is the only thing that does.
"""

from __future__ import annotations

import ast
from typing import Iterator

from fbcheck.core import ModuleFile, Rule, Violation, register

#: The module that owns the raw rename and builds the discipline around it.
DURABILITY_MODULE = "repro.store.durability"


def _is_os_replace(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
    )


@register
class DurableRule(Rule):
    rule_id = "FB-DURABLE"
    summary = "os.replace in persistence code must go through durability.durable_replace"

    def applies_to(self, path: str) -> bool:
        return path.startswith(tuple(self.config.durable_persistence_paths))

    def check(self, module: ModuleFile) -> Iterator[Violation]:
        if module.module == DURABILITY_MODULE:
            return
        for node in ast.walk(module.tree):
            if _is_os_replace(node):
                yield self.violation(
                    module,
                    node.lineno,
                    "bare os.replace in persistence code; use "
                    "repro.store.durability.durable_replace, which fsyncs the "
                    "source before the rename and the parent directory after it",
                )
