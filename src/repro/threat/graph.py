"""A small insertion-ordered directed acyclic graph.

:class:`~repro.threat.assets.AssetRegistry` (asset dependencies) and
:class:`~repro.threat.attack_tree.AttackTree` (parent -> child edges)
need only ordered adjacency, reachability and the guarantee that no edge
closes a cycle, so they share this class instead of a graph library.
Nodes, successors and predecessors iterate in the order they were first
added, as they do in a networkx ``DiGraph``.
"""

from __future__ import annotations

from collections.abc import Iterator, KeysView


class OrderedDAG:
    """Directed acyclic graph over names, kept in insertion order."""

    __slots__ = ("_succ", "_pred")

    def __init__(self) -> None:
        # Adjacency dicts map each neighbour to None: insertion-ordered sets.
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        """Add *node*; re-adding it keeps its original position."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, u: str, v: str) -> bool:
        """Add ``u -> v`` between existing nodes unless it would close a cycle.

        The edge closes a cycle exactly when *u* is *v* or is already
        reachable from *v*, which is checked before anything changes.
        Returns whether the graph holds the edge afterwards.
        """
        if u == v or u in self._reach(v, self._succ):
            return False
        self._succ[u][v] = None
        self._pred[v][u] = None
        return True

    def nodes(self) -> KeysView[str]:
        """Every node, in insertion order."""
        return self._succ.keys()

    def successors(self, node: str) -> KeysView[str]:
        """Targets of *node*'s edges, in the order the edges were added."""
        return self._succ[node].keys()

    def predecessors(self, node: str) -> KeysView[str]:
        """Sources of the edges into *node*, in the order they were added."""
        return self._pred[node].keys()

    def descendants(self, node: str) -> set[str]:
        """Every node reachable from *node*, not counting *node* itself."""
        return set(self._reach(node, self._succ))

    def ancestors(self, node: str) -> set[str]:
        """Every node from which *node* is reachable, not counting *node*."""
        return set(self._reach(node, self._pred))

    @staticmethod
    def _reach(start: str, adjacency: dict[str, dict[str, None]]) -> Iterator[str]:
        """Yield each node reachable from *start* along *adjacency*, once."""
        seen = {start}
        stack = [start]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
                    yield neighbour
