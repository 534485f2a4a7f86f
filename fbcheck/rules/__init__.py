"""Rule modules; importing this package registers every rule.

Rule ids and the ForkBase invariant each protects:

- ``FB-IMMUT``   — chunks/nodes immutable once hashed (§II-C)
- ``FB-PRIVACY`` — module boundaries: no foreign ``_underscore`` access
- ``FB-DETERM``  — every hashed byte is reproducible (§II-A, §III-C)
- ``FB-ERRORS``  — one error taxonomy, no swallowed failures
- ``FB-LAYERS``  — the chunk → … → api import DAG (SIRI composability)
- ``FB-DURABLE`` — every rename in persistence code is ``durable_replace``

Each rule is one walk over one file's AST.  Tamper evidence (§II: every
served byte hashes to its uid) has no rule: the stores check it at read
time, and EXPERIMENTS.md ("What each fbcheck rule earns") names the
tier-1 test that fails when any read site skips its check.
"""

from fbcheck.rules import (
    determ,
    durable,
    errors,
    immut,
    layers,
    privacy,
)

__all__ = [
    "determ",
    "durable",
    "errors",
    "immut",
    "layers",
    "privacy",
]
