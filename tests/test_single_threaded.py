"""The engine is single-threaded: no module in ``src/repro`` imports a
thread or process-pool module.

:class:`~repro.store.nodecache.NodeLRU` and the rest of the engine
update shared maps and counters without a lock, which is sound only
while nothing in the package starts a second thread.  A module that
imports one of :data:`CONCURRENCY` fails here before it can share an
unlocked cache.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CONCURRENCY = ("threading", "_thread", "multiprocessing", "concurrent.futures")


def concurrency_imports(source: str, name: str = "<source>") -> Iterator[str]:
    """``name:line: module`` for each import statement that names a
    :data:`CONCURRENCY` module."""
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits = [
            module
            for module in modules
            if any(module == banned or module.startswith(banned + ".") for banned in CONCURRENCY)
        ]
        if hits:
            yield f"{name}:{node.lineno}: {hits[0]}"


def test_no_module_in_the_package_imports_threads_or_processes():
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in concurrency_imports(
            path.read_text(encoding="utf-8"), str(path.relative_to(SRC.parent))
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "import threading",
        "import _thread",
        "import multiprocessing.pool",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "def f():\n    from threading import Lock\n",
    ],
)
def test_each_import_form_is_caught(source):
    assert len(list(concurrency_imports(source))) == 1


def test_other_imports_pass():
    assert list(concurrency_imports("import concurrent\nfrom . import threading\n")) == []
