"""Failure detection and membership for the simulated cluster.

A :class:`FailureDetector` watches the cluster from one named network
endpoint (its *origin*): each probe round pings every node through the
cluster's transport, so a node looks dead for exactly the reasons it would
in production — it crashed, or the network between here and there is
partitioned, dropping, or delaying.  Consecutive missed heartbeats push a
node through ``ALIVE -> SUSPECT -> DEAD``; one successful probe snaps it
straight back to ``ALIVE``.

A detector's time is its probe-round count, never the wall clock
(FB-DETERM): two runs of the same workload see identical heartbeat
timing, which is what makes suspicion-dependent routing decisions
replayable.

Suspicion is *per observer*: during a partition the clients on side A
suspect the nodes on side B and vice versa, which is exactly the split-
brain view a real cluster has.  The cluster consults the detector bound
to the origin a request came from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.cluster.replica import probe

if TYPE_CHECKING:  # pragma: no cover - type-only import, no cycle at runtime
    from repro.cluster.cluster import ClusterStore

#: Node states, in order of decay.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Consecutive missed probes that mark a node SUSPECT, then DEAD.
SUSPICION_THRESHOLD = 3
DEAD_THRESHOLD = 2 * SUSPICION_THRESHOLD


class FailureDetector:
    """Heartbeat-based membership from one endpoint's point of view.

    :data:`SUSPICION_THRESHOLD` consecutive missed probes mark a node
    SUSPECT (the cluster stops routing writes at it and queues hints
    instead); :data:`DEAD_THRESHOLD` escalates to DEAD — same routing
    behaviour, stronger signal for operators.  The thresholds absorb
    isolated message drops: a single lost heartbeat on a healthy link
    never triggers rerouting.
    """

    def __init__(self, cluster: "ClusterStore", origin: str = "client") -> None:
        self.cluster = cluster
        self.origin = origin
        self._missed: Dict[str, int] = {}
        self._states: Dict[str, str] = {}
        self.rounds = 0
        self.suspicions_raised = 0
        self.recoveries = 0

    # -- probing -------------------------------------------------------------

    def probe_round(self) -> Dict[str, str]:
        """Ping every node once; returns the post-round state map."""
        self.rounds += 1
        for name in sorted(self.cluster.nodes):
            if probe(self.cluster, self.origin, name):
                if self._states.get(name, ALIVE) != ALIVE:
                    self.recoveries += 1
                self._missed[name] = 0
                self._states[name] = ALIVE
            else:
                missed = self._missed.get(name, 0) + 1
                self._missed[name] = missed
                if missed >= DEAD_THRESHOLD:
                    self._states[name] = DEAD
                elif missed >= SUSPICION_THRESHOLD:
                    if self._states.get(name, ALIVE) == ALIVE:
                        self.suspicions_raised += 1
                    self._states[name] = SUSPECT
        return dict(self._states)

    # -- queries -------------------------------------------------------------

    def state(self, name: str) -> str:
        """Current verdict for a node (optimistically ALIVE before data)."""
        return self._states.get(name, ALIVE)

    def is_suspect(self, name: str) -> bool:
        """True when the node should be routed around (SUSPECT or DEAD)."""
        return self.state(name) != ALIVE

    def alive(self, name: str) -> bool:
        """True when the node is believed reachable and serving."""
        return self.state(name) == ALIVE

    def suspected(self) -> List[str]:
        """Names currently routed around, sorted."""
        return sorted(
            name for name, state in self._states.items() if state != ALIVE
        )

    def degraded(self) -> List[str]:
        """Nodes this origin considers ALIVE but routes around anyway.

        The gray-failure verdict: heartbeats succeed (slowly), so the
        state machine rightly says ALIVE, yet the origin's circuit
        breaker for the node is tripped by consecutive timeouts.  A node
        in this list is slow-but-alive — distinct from SUSPECT/DEAD, and
        it snaps back the moment a probe succeeds at full speed.
        """
        return [
            name
            for name in self.cluster.breakers.open_for(self.origin)
            if self.state(name) == ALIVE
        ]

    def missed(self, name: str) -> int:
        """Consecutive missed heartbeats for a node."""
        return self._missed.get(name, 0)

    def report(self) -> Dict[str, object]:
        """Counter snapshot (membership assertions in the torture suite)."""
        return {
            "origin": self.origin,
            "rounds": self.rounds,
            "tick": self.rounds,
            "suspected": self.suspected(),
            "degraded": self.degraded(),
            "suspicions_raised": self.suspicions_raised,
            "recoveries": self.recoveries,
        }

    def __repr__(self) -> str:
        return (
            f"FailureDetector(origin={self.origin!r}, rounds={self.rounds}, "
            f"suspected={self.suspected()})"
        )
