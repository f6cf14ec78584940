"""Consistent hashing: stable placement of canonical-form groups.

The :class:`~repro.service.pool.WorkerPool` routes inside one process
tree with ``digest % workers`` — perfectly balanced, but resizing the
pool remaps *every* group.  A router tier cannot afford that: each
canonical-form group owns warm state (an in-memory reduction, answer
cache entries, a persistent-cache working set on its shard), so scaling
an N-shard ring should move only ~1/N of the groups and leave the rest
of the fleet's caches untouched.

:class:`HashRing` is the classic fix.  Every shard is hashed to
``replicas`` points on a 64-bit circle (SHA-256 of ``"{node}#{i}"`` —
no ``hash()`` salting, so a restarted router reproduces the exact same
placement); a key is owned by the first shard point clockwise of the
key's digest.  Adding a shard claims ``replicas`` arcs and steals only
the keys inside them — in expectation ``1/(N+1)`` of the total; removing
one hands exactly its own arcs to the clockwise successors.  Placement
of every other key is untouched, which is the invariant the
placement-stability tests pin.

Keys are arbitrary structured objects (canonical-form keys are nested
tuples); :func:`stable_digest` turns them into circle positions —
``repr`` is deterministic for the tuple trees canonicalization produces
— and is the one routing digest of the tier: the pool takes the same
function modulo its alive workers.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Sequence

__all__ = ["HashRing", "stable_digest"]


def stable_digest(key: object) -> int:
    """A stable 64-bit digest of a structured key (e.g. a canonical-form
    key), identical across processes and interpreter runs."""
    raw = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(raw[:8], "big")


def _point(node: str, replica: int) -> int:
    raw = hashlib.sha256(f"{node}#{replica}".encode()).digest()
    return int.from_bytes(raw[:8], "big")


class HashRing:
    """A consistent-hash ring over named nodes.

    ``replicas`` virtual points per node trade lookup-table size for
    balance: with ``r`` replicas the expected fraction of keys a node
    owns concentrates around ``1/N`` with relative deviation
    ``O(1/sqrt(r))``; the default of 128 keeps a 5-shard ring's largest
    shard within a few percent of fair while the whole table stays a
    sub-kilobyte sorted list.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 128):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[int] = []      # sorted circle positions
        self._owners: list[str] = []      # owner of each position
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add ``node``; only keys inside its claimed arcs move."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _point(node, replica)
            index = bisect.bisect_left(self._points, point)
            # ties are broken by node name, deterministically: identical
            # points must order the same no matter the insertion history
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < node
            ):  # pragma: no cover - 64-bit sha collisions
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node``; its arcs fall to the clockwise successors,
        every other key stays put."""
        if node not in self._nodes:
            raise KeyError(node)
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def node_for(self, key: Hashable) -> str:
        """The node owning ``key`` (digested via :func:`stable_digest`)."""
        if not self._points:
            raise LookupError("ring has no nodes")
        index = bisect.bisect_right(self._points, stable_digest(key))
        if index == len(self._points):  # wrap past 2^64 to the first point
            index = 0
        return self._owners[index]

    def placement(self, keys: Sequence[Hashable]) -> dict[Hashable, str]:
        """``{key: owning node}`` for every key — the unit the stability
        tests diff across ring changes."""
        return {key: self.node_for(key) for key in keys}

    def describe(self) -> dict:
        """A JSON-shaped description (for the ``ring`` protocol verb)."""
        return {
            "nodes": sorted(self._nodes),
            "replicas": self.replicas,
            "points": len(self._points),
        }

    @classmethod
    def from_describe(cls, info: dict) -> "HashRing":
        """Rebuild a ring from a :meth:`describe` payload (the client
        side of the ``ring`` verb).  Placement is SHA-based and
        deterministic, so the rebuilt ring places every key exactly as
        the server's does — the invariant client-side routing rests
        on."""
        nodes = info.get("nodes")
        if not isinstance(nodes, list) or not all(
            isinstance(n, str) for n in nodes
        ):
            raise ValueError(f"malformed ring description {info!r}")
        replicas = info.get("replicas", 128)
        if not isinstance(replicas, int) or isinstance(replicas, bool):
            raise ValueError(f"malformed ring replicas {replicas!r}")
        return cls(nodes, replicas=replicas)
