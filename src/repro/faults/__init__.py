"""Deterministic fault injection: four planes over one kernel.

The paper's threat model (§III-C) treats storage as potentially faulty or
malicious; the tamper-evident uid exists to *detect* bad bytes.  This
package supplies the adversary on four planes.  Every decision on every
plane is one :mod:`~repro.faults.kernel` draw — SHA-256 over the seed and
the event's coordinates, nothing else — so replaying a workload against
the same plan reproduces every fault bit for bit.  The planes differ
only in *which coordinates* they hash and *what they do* with the draw:

==========  ==================  =======================================  ==========================================
plane       plan                hashed coordinates (in order)            behaviours (applied by)
==========  ==================  =======================================  ==========================================
store       ``FaultPlan``       seed, kind, uid, attempt                 corrupt read, dropped / torn put,
                                                                         transient error (``FaultyStore``)
disk        ``FsFaultPlan``     seed, syscall, label, attempt            ENOSPC, short write, EIO, fsyncgate,
                                                                         process death at the n-th write /
                                                                         fsync / rename (``FaultyOS`` in an
                                                                         ``fs_zone``)
network     ``NetworkPlan``     seed, fault, src, "->", dst, op, uid,    drop, delay, duplicate, graded slowness;
                                attempt                                  partition / slow schedules
                                                                         (``PartitionedTransport``)
node        ``ByzantinePlan``   seed, node, behavior, op, uid, attempt   flip, substitute, withhold, fake ack,
                                                                         conceal / forge index, corrupt hint
                                                                         (``ByzantineStore``)
==========  ==================  =======================================  ==========================================

Sub-seeds hash ``seed, "scope:" | "net-scope:", label``; named RNG
streams ``seed, "rng:" | "net-rng:", label``.  Two seeded *defenses* use
the same kernel: retry jitter (``seed, delay slot``) and the anti-entropy
audit sample (``"ae-audit:", seed, node, uid``).

The three stores that lie — ``FaultyStore`` (rotting), ``ByzantineStore``
(adversarial), ``TamperingStore`` (scripted) — are behaviours on one
:class:`~repro.faults.store.InterposedStore`, whose ``install(node)`` /
``remove(node)`` put them on and take them off a cluster node.

A crash is not a plane of its own: the process dies at a disk boundary,
so it is the disk plane's ``crash`` flavor, raised by the same
``DiskInjector`` seam every write, fsync and rename already crosses.
The disk plane keeps the kernel's ``Census``: run once unarmed to
enumerate boundaries, then once per boundary × flavor.  No persistence
module imports a plane; they import only :mod:`~repro.faults.retry`.

The suites take their seed from the ``FORKBASE_SEED`` environment
variable (``tests/conftest.py::fault_seed``).
"""

from repro.faults.byzantine import (
    ByzantinePlan,
    ByzantineStore,
    corrupt_queued_hints,
    make_byzantine,
)
from repro.faults.fs import FaultyOS, FsFaultPlan, fs_zone
from repro.faults.kernel import flip_at
from repro.faults.network import (
    NetworkPlan,
    PartitionedTransport,
    apply_schedule_event,
    apply_slow_event,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.store import FaultyStore, InterposedStore, TamperingStore

__all__ = [
    "ByzantinePlan",
    "ByzantineStore",
    "FaultPlan",
    "FaultyOS",
    "FaultyStore",
    "FsFaultPlan",
    "InterposedStore",
    "NetworkPlan",
    "PartitionedTransport",
    "RetryPolicy",
    "TamperingStore",
    "apply_schedule_event",
    "apply_slow_event",
    "corrupt_queued_hints",
    "flip_at",
    "fs_zone",
    "make_byzantine",
]
