"""FB-DETERM: every byte that feeds SHA-256 is produced deterministically.

Paper §II-A derives the Γ table "from SHA-256 of a fixed seed, never from
``random`` global state", and §III-C's tamper evidence only holds if two
builds of the same logical value hash identically — across processes,
platforms, and PYTHONHASHSEED.  Checks:

- everywhere scanned: no *unseeded* randomness — module-level ``random.*``
  calls (global Mersenne state), ``random.Random()`` with no seed, or
  ``from random import <fn>``.  Explicitly seeded ``random.Random(seed)``
  is the sanctioned pattern (the fault planner and workload generators are
  its heavy users);
- in the core determinism domain (hashing/chunking/codec paths, see
  ``DETERM_CORE_PATHS``): no wall-clock or entropy sources at all
  (``time.time``, ``datetime.now``, ``os.urandom``, ``uuid.uuid1/4``,
  ``secrets``) — an injectable-clock *parameter default* is the escape
  hatch, suppressed with a pragma at the definition site;
- in the core domain: no iterating a set into downstream bytes — set order
  is salted per process, so ``for x in set(...)`` in a codec path encodes
  a different byte stream each run; wrap it in ``sorted(...)``.

Allowlist detail strings: the dotted call name (e.g. ``time.time``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from fbcheck.core import ModuleFile, Rule, Violation, register

#: ``module.attr`` calls that are wall-clock / entropy sources.  The
#: monotonic/perf-counter family is wall-clock too: it differs across
#: runs, so latency trackers in the determinism domain must measure on
#: the transport tick, never on these.
ENTROPY_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}

#: Functions importable from ``random`` that draw from global state.
UNSEEDED_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "randbytes",
}


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


@register
class DetermRule(Rule):
    rule_id = "FB-DETERM"
    summary = "no unseeded randomness; no wall-clock/entropy or set-order bytes in hashing paths"

    def check(self, module: ModuleFile) -> Iterator[Violation]:
        in_core = any(module.path.startswith(p) for p in self.config.determ_core_paths)
        yield from self._check_random(module)
        if in_core:
            yield from self._check_entropy(module)
            yield from self._check_set_iteration(module)

    # -- unseeded randomness (all scanned paths) ----------------------------

    def _check_random(self, module: ModuleFile) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.violation(
                            module,
                            node.lineno,
                            f"from random import {alias.name} draws from global "
                            f"RNG state; use an explicitly seeded random.Random",
                        )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name == "random.Random" and not node.args and not node.keywords:
                    yield self.violation(
                        module,
                        node.lineno,
                        "random.Random() without a seed is OS-entropy seeded; "
                        "pass an explicit seed",
                    )
                elif (
                    name.startswith("random.")
                    and name.split(".", 1)[1] in UNSEEDED_RANDOM_FNS
                ):
                    yield self.violation(
                        module,
                        node.lineno,
                        f"{name}() uses the global RNG; derive draws from an "
                        f"explicitly seeded random.Random",
                    )

    # -- wall-clock / entropy (core determinism domain) ---------------------

    def _check_entropy(self, module: ModuleFile) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("time", "datetime", "secrets"):
                for alias in node.names:
                    key = (node.module, alias.name)
                    if key in ENTROPY_CALLS or node.module == "secrets":
                        yield self.violation(
                            module,
                            node.lineno,
                            f"from {node.module} import {alias.name} in a hashing "
                            f"path; wall-clock/entropy must never feed hashed bytes",
                        )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            name = _dotted(node)
            parts = name.split(".")
            pair = (parts[-2], parts[-1]) if len(parts) >= 2 else None
            if name.startswith("secrets.") or pair in ENTROPY_CALLS:
                if self.allowed(module, name):
                    continue
                yield self.violation(
                    module,
                    node.lineno,
                    f"{name} in a hashing/codec path; hashed bytes must be "
                    f"reproducible across runs (inject a clock instead)",
                )

    # -- set iteration into codecs (core determinism domain) ----------------

    def _check_set_iteration(self, module: ModuleFile) -> Iterator[Violation]:
        suspects = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                suspects.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                suspects.extend(gen.iter for gen in node.generators)
        for expr in suspects:
            if isinstance(expr, (ast.Set, ast.SetComp)) or (
                isinstance(expr, ast.Call) and _dotted(expr.func) in ("set", "frozenset")
            ):
                yield self.violation(
                    module,
                    expr.lineno,
                    "iterating a set in a hashing/codec path: set order is "
                    "salted per process; wrap in sorted(...)",
                )
