"""Declarative switch topologies for multi-stage fabrics.

A :class:`Topology` is a tiny undirected graph over switch indices plus
deterministic path computation.  It generalizes the two shapes the
substrates grew up with — a single switch and a linear chain — into
anything the builders below can describe, most importantly the 2-level
Clos/fat-tree that scale-out clusters use: a row of *leaf* switches
(hosts attach here) fully meshed to a row of *spine* switches, giving
every leaf pair ``spines`` parallel two-hop paths.

Path selection is deterministic: :meth:`Topology.path` enumerates all
shortest paths in lexicographic order and picks one by ``key``-modulo,
so callers spread successive connections across parallel spines simply
by passing an incrementing key — no RNG, fully reproducible.

Trunks carry an up/down state (:meth:`Topology.set_trunk`): path
computation walks only live trunks, so after a spine or trunk failure
``path(src, dst, key)`` transparently re-keys across the survivors.
When no live path remains the typed
:class:`~repro.core.errors.NoPathError` fires — callers distinguish a
partitioned fabric from a programming error.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.errors import NoPathError

__all__ = [
    "Topology",
    "linear_topology",
    "clos_topology",
]


class Topology:
    """An undirected graph over switch indices ``0..num_switches-1``."""

    def __init__(self, num_switches: int, trunks: Sequence[Tuple[int, int]],
                 name: str = "topology") -> None:
        if num_switches < 1:
            raise ValueError("need at least one switch")
        self.num_switches = num_switches
        self.name = name
        #: hosts attach to switches ``0..leaves-1``: every switch of a
        #: plain graph; :func:`clos_topology` narrows it to the leaf row
        self.leaves = num_switches
        #: switches past the leaves carry only trunks (none in a plain graph)
        self.spines = 0
        self.trunks: List[Tuple[int, int]] = []
        self._adj: Dict[int, List[int]] = {i: [] for i in range(num_switches)}
        for a, b in trunks:
            if not (0 <= a < num_switches and 0 <= b < num_switches):
                raise ValueError(f"trunk ({a},{b}) references a missing switch")
            if a == b:
                raise ValueError(f"self-trunk on switch {a}")
            if b in self._adj[a]:
                raise ValueError(f"duplicate trunk ({a},{b})")
            self.trunks.append((a, b))
            self._adj[a].append(b)
            self._adj[b].append(a)
        for neighbours in self._adj.values():
            neighbours.sort()
        self._down: Set[Tuple[int, int]] = set()
        # keyed by (src, dst, limit): a capped result must not satisfy a
        # later query with a larger cap
        self._path_cache: Dict[Tuple[int, int, int], List[List[int]]] = {}

    def neighbours(self, switch: int) -> List[int]:
        return list(self._adj[switch])

    @staticmethod
    def _trunk_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def trunk_up(self, a: int, b: int) -> bool:
        """Whether the (undirected) trunk between ``a`` and ``b`` is live."""
        if b not in self._adj[a]:
            raise ValueError(f"no trunk between switches {a} and {b}")
        return self._trunk_key(a, b) not in self._down

    def set_trunk(self, a: int, b: int, up: bool) -> bool:
        """Mark the trunk between ``a`` and ``b`` up or down.

        Returns True when the state actually changed; a change
        invalidates the shortest-path cache so subsequent ``path``
        calls route around the failure (or rediscover a healed trunk).
        """
        if b not in self._adj[a]:
            raise ValueError(f"no trunk between switches {a} and {b}")
        key = self._trunk_key(a, b)
        changed = (key in self._down) == up
        if changed:
            if up:
                self._down.discard(key)
            else:
                self._down.add(key)
            self._path_cache.clear()
        return changed

    def _live_neighbours(self, switch: int) -> List[int]:
        if not self._down:
            return self._adj[switch]
        return [n for n in self._adj[switch]
                if self._trunk_key(switch, n) not in self._down]

    def shortest_paths(self, src: int, dst: int, limit: int = 64) -> List[List[int]]:
        """All shortest src→dst switch paths, lexicographic, capped at
        ``limit`` (a Clos has ``spines`` of them; the cap only guards
        pathological hand-built meshes)."""
        if src == dst:
            return [[src]]
        cached = self._path_cache.get((src, dst, limit))
        if cached is not None:
            return cached
        # BFS distance field from dst, then walk strictly downhill from
        # src — every downhill walk is a shortest path.  Only live
        # trunks participate, so failures reshape the path set.
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbour in self._live_neighbours(node):
                    if neighbour not in dist:
                        dist[neighbour] = dist[node] + 1
                        nxt.append(neighbour)
            frontier = nxt
        if src not in dist:
            raise NoPathError(
                f"switches {src} and {dst} are not connected", src=src, dst=dst)
        paths: List[List[int]] = []
        stack: List[Tuple[int, List[int]]] = [(src, [src])]
        while stack and len(paths) < limit:
            node, walked = stack.pop()
            if node == dst:
                paths.append(walked)
                continue
            # reversed push order keeps the pop order lexicographic
            for neighbour in reversed(self._live_neighbours(node)):
                if dist.get(neighbour, -1) == dist[node] - 1:
                    stack.append((neighbour, walked + [neighbour]))
        self._path_cache[(src, dst, limit)] = paths
        return paths

    def path(self, src: int, dst: int, key: int = 0) -> List[int]:
        """One shortest path, spread across parallel choices by ``key``."""
        paths = self.shortest_paths(src, dst)
        return paths[key % len(paths)]

    def hops(self, src: int, dst: int) -> int:
        """Number of switches on a shortest path (1 when src == dst)."""
        return len(self.path(src, dst))

    def connected(self, src: int, dst: int) -> bool:
        """Whether a live path exists (cheap partition probe)."""
        try:
            self.shortest_paths(src, dst, limit=1)
        except NoPathError:
            return False
        return True


def linear_topology(switches: int) -> Topology:
    """The legacy shape: a chain ``0 - 1 - ... - n-1``."""
    return Topology(switches, [(i, i + 1) for i in range(switches - 1)],
                    name=f"chain-{switches}")


def clos_topology(leaves: int, spines: int) -> Topology:
    """A 2-level Clos/fat-tree: switches ``0..leaves-1`` are leaves,
    ``leaves..leaves+spines-1`` are spines, every leaf trunks to every
    spine.  Leaf pairs get ``spines`` parallel 3-switch paths."""
    if leaves < 1 or spines < 1:
        raise ValueError("need at least one leaf and one spine")
    trunks = [(leaf, leaves + spine) for leaf in range(leaves) for spine in range(spines)]
    topo = Topology(leaves + spines, trunks, name=f"clos-{leaves}x{spines}")
    topo.leaves, topo.spines = leaves, spines
    return topo
