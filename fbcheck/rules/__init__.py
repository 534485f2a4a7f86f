"""Rule modules; importing this package registers every rule.

Rule ids and the ForkBase invariant each protects:

- ``FB-IMMUT``   — chunks/nodes immutable once hashed (§II-C)
- ``FB-PRIVACY`` — module boundaries: no foreign ``_underscore`` access
- ``FB-DETERM``  — every hashed byte is reproducible (§II-A, §III-C)
- ``FB-ERRORS``  — one error taxonomy, no swallowed failures
- ``FB-LAYERS``  — the chunk → … → api import DAG (SIRI composability)
- ``FB-DURABLE`` — every rename in persistence code is ``durable_replace``

Flow-sensitive rules (CFG + taint engine):

- ``FB-TAMPER``  — unverified medium bytes never cross the store boundary (§II)
- ``FB-LOCKED``  — ``# guarded-by:`` fields only touched under their lock
"""

from fbcheck.rules import (
    determ,
    durable,
    errors,
    immut,
    layers,
    locked,
    privacy,
    tamper,
)

__all__ = [
    "determ",
    "durable",
    "errors",
    "immut",
    "layers",
    "locked",
    "privacy",
    "tamper",
]
