"""FB-LOCKED: ``# guarded-by:`` fields only touched under their lock.

A class declares its locking discipline inline, and this rule checks
that every touch of a guarded field sits inside the declared lock:

.. code-block:: python

    class Registry:
        def __init__(self):
            self.lock = threading.Lock()
            self.entries = {}              # guarded-by: self.lock
            self.hits = 0                  # guarded-by: self.lock

        def _evict(self, key):             # holds-lock: self.lock
            ...

Every read or write of a guarded field outside ``__init__`` must sit
lexically inside a ``with self.lock:`` body.  Python's control flow is
structured, so lexical nesting is domination: every path to a statement
inside a ``with`` body passed through that ``with``'s entry.  The
``with`` header itself is evaluated before the lock is taken, and a
nested ``def`` or ``lambda`` runs at another time, so each starts with
no lock held.  A helper that is only ever called with the lock held
declares ``# holds-lock:`` on its ``def`` line and is checked as if the
lock were taken at entry.

The lock is matched by the *text* of the context expression, so
``with self.lock:`` guards fields annotated ``# guarded-by: self.lock``
— no alias analysis, by design: lock handles in this codebase are
``self``-rooted attributes created in ``__init__``.

Allowlist detail: ``Class.method.field``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from fbcheck.core import ModuleFile, Rule, Violation, register

GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\S+)")
HOLDS_RE = re.compile(r"#\s*holds-lock:\s*(\S+)")

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _guarded_fields(cls: ast.ClassDef, lines: List[str]) -> Dict[str, str]:
    """Map field name → lock text for ``# guarded-by:`` annotations."""
    guarded: Dict[str, str] = {}
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            line = lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
            match = GUARDED_RE.search(line)
            if not match:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    guarded[target.attr] = match.group(1)
                elif isinstance(target, ast.Name):
                    guarded[target.id] = match.group(1)
    return guarded


def _held_locks(func: FunctionNode, lines: List[str]) -> Tuple[str, ...]:
    """Locks the ``# holds-lock:`` annotation declares held at entry."""
    held: List[str] = []
    start = func.lineno - 1  # the def line (decorators sit above it)
    end = func.body[0].lineno if func.body else func.lineno
    for index in range(start, min(end, len(lines))):
        match = HOLDS_RE.search(lines[index])
        if match:
            held.append(match.group(1))
    return tuple(held)


Access = Tuple[ast.ClassDef, FunctionNode, ast.Attribute, Tuple[str, ...]]


def _self_accesses(
    node: ast.AST,
    lines: List[str],
    owner: Optional[ast.ClassDef] = None,
    func: Optional[FunctionNode] = None,
    held: Tuple[str, ...] = (),
) -> Iterator[Access]:
    """Yield ``(class, method, self.<attr> node, locks held)`` under ``node``.

    One walk that carries the stack of enclosing ``with`` context texts.
    A class body starts a new owner; a ``def`` starts a new method whose
    stack is its ``# holds-lock:`` seed; a ``lambda`` starts empty.
    Decorators and argument defaults are not part of a body: skipped.
    """
    children: Iterable[ast.AST]
    if isinstance(node, ast.ClassDef):
        owner, func, held, children = node, None, (), node.body
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func, held, children = node, _held_locks(node, lines), node.body
    elif isinstance(node, ast.Lambda):
        held, children = (), [node.body]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        # The header runs before the lock is taken.
        for item in node.items:
            yield from _self_accesses(item, lines, owner, func, held)
        held = held + tuple(ast.unparse(item.context_expr) for item in node.items)
        children = node.body
    else:
        if (
            owner is not None
            and func is not None
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield owner, func, node, held
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _self_accesses(child, lines, owner, func, held)


@register
class LockDisciplineRule(Rule):
    """Lexically checked lock discipline for annotated fields."""

    rule_id = "FB-LOCKED"
    summary = "# guarded-by: fields only accessed inside a `with <lock>` body"

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, module: ModuleFile) -> Iterator[Violation]:
        lines = module.lines
        by_class: Dict[str, Dict[str, str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                fields = _guarded_fields(node, lines)
                if fields:
                    by_class[node.name] = fields
        if not by_class:
            return
        for owner, func, node, held in _self_accesses(module.tree, lines):
            lock = by_class.get(owner.name, {}).get(node.attr)
            # Construction happens before the instance is shared; the
            # guard starts at publication.
            if lock is None or lock in held or func.name == "__init__":
                continue
            detail = f"{owner.name}.{func.name}.{node.attr}"
            if self.allowed(module, detail):
                continue
            yield self.violation(
                module,
                node.lineno,
                f"{owner.name}.{func.name}() touches self.{node.attr} "
                f"(guarded-by: {lock}) outside a `with {lock}:` body",
            )
