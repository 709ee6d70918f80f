"""Attack trees.

An attack tree decomposes a high-level attack goal into sub-goals joined
by AND/OR nodes, with leaves representing concrete attacker actions
annotated with difficulty and detectability.  Attack trees complement
STRIDE/DREAD analysis by making multi-step attack paths explicit (e.g.
"disable EV-ECU" = compromise infotainment AND pivot to CAN bus AND
spoof ECU disable command).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.threat.graph import OrderedDAG


class NodeType(Enum):
    """How a node's children combine."""

    AND = "and"   # all children must succeed
    OR = "or"     # any child suffices
    LEAF = "leaf"  # concrete attacker action

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class AttackTreeNode:
    """A node of an attack tree.

    Leaves carry a *feasibility* score in ``[0, 1]`` (how likely a capable
    attacker is to accomplish the step) and a *cost* (abstract effort
    units).  Internal nodes derive both from their children.
    """

    name: str
    node_type: NodeType = NodeType.LEAF
    feasibility: float = 1.0
    cost: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("attack tree node name must be non-empty")
        if not 0.0 <= self.feasibility <= 1.0:
            raise ValueError("feasibility must lie in [0, 1]")
        if self.cost < 0:
            raise ValueError("cost must be non-negative")

    def __str__(self) -> str:
        return self.name


class AttackTree:
    """An attack tree rooted at a single goal node.

    The tree is stored as a directed graph (edges from parent to child).
    Derived quantities:

    * :meth:`goal_feasibility` -- probability-style feasibility of the root
      goal (AND multiplies children, OR takes the complement-product).
    * :meth:`cheapest_path_cost` -- minimum attacker cost to reach the goal
      (AND sums children, OR takes the minimum).
    * :meth:`attack_scenarios` -- enumerate the minimal leaf sets (cut sets)
      that achieve the goal.
    """

    def __init__(self, root: AttackTreeNode) -> None:
        self._graph = OrderedDAG()
        self._nodes: dict[str, AttackTreeNode] = {}
        self._root = root
        self._add_node(root)

    # -- construction ---------------------------------------------------------

    def _add_node(self, node: AttackTreeNode) -> None:
        existing = self._nodes.get(node.name)
        if existing is not None and existing != node:
            raise ValueError(f"node {node.name!r} already present with different attributes")
        self._nodes[node.name] = node
        self._graph.add_node(node.name)

    def add_child(self, parent: str, child: AttackTreeNode) -> AttackTreeNode:
        """Attach *child* under the node named *parent*."""
        if parent not in self._nodes:
            raise KeyError(f"unknown parent node: {parent!r}")
        parent_node = self._nodes[parent]
        if parent_node.node_type == NodeType.LEAF:
            raise ValueError(f"cannot attach children to leaf node {parent!r}")
        self._add_node(child)
        if not self._graph.add_edge(parent, child.name):
            raise ValueError(f"edge {parent!r} -> {child.name!r} would create a cycle")
        return child

    # -- basic queries --------------------------------------------------------

    @property
    def root(self) -> AttackTreeNode:
        """The goal node."""
        return self._root

    def node(self, name: str) -> AttackTreeNode:
        """Return a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node: {name!r}") from None

    def children(self, name: str) -> list[AttackTreeNode]:
        """Children of the named node, in insertion order."""
        self.node(name)
        return [self._nodes[c] for c in self._graph.successors(name)]

    def leaves(self) -> list[AttackTreeNode]:
        """All childless nodes (the graph's sinks): the attacker actions,
        plus any AND/OR goal not refined yet, which the analysis methods
        refuse but this listing keeps."""
        return [self._nodes[n] for n in self._graph.nodes() if not self._graph.successors(n)]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[AttackTreeNode]:
        return iter(self._nodes.values())

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    # -- analysis -------------------------------------------------------------

    def goal_feasibility(self) -> float:
        """Feasibility of the root goal.

        Leaves contribute their own feasibility.  AND nodes multiply child
        feasibilities (all steps must succeed); OR nodes combine children
        as independent alternatives: ``1 - prod(1 - f_i)``.  Like every
        analysis method, raises ``ValueError`` on an AND/OR node without
        children: an unrefined goal is not a certain step.
        """
        return self.mitigated_feasibility(())

    def _require_refined(self) -> None:
        unrefined = [
            name
            for name, node in self._nodes.items()
            if node.node_type is not NodeType.LEAF and not self._graph.successors(name)
        ]
        if unrefined:
            raise ValueError(f"AND/OR nodes without children cannot be scored: {unrefined}")

    def _feasibility(self, name: str, blocked: set[str]) -> float:
        node = self._nodes[name]
        children = list(self._graph.successors(name))
        if not children:
            return 0.0 if name in blocked else node.feasibility
        child_values = [self._feasibility(c, blocked) for c in children]
        if node.node_type == NodeType.AND:
            result = 1.0
            for value in child_values:
                result *= value
            return result
        # OR node
        complement = 1.0
        for value in child_values:
            complement *= 1.0 - value
        return 1.0 - complement

    def cheapest_path_cost(self) -> float:
        """Minimum attacker cost to achieve the root goal."""
        self._require_refined()
        return self._cost(self._root.name)

    def _cost(self, name: str) -> float:
        node = self._nodes[name]
        children = list(self._graph.successors(name))
        if not children:
            return node.cost
        child_costs = [self._cost(c) for c in children]
        if node.node_type == NodeType.AND:
            return sum(child_costs)
        return min(child_costs)

    def attack_scenarios(self) -> list[frozenset[str]]:
        """Minimal sets of leaf actions that achieve the root goal.

        Each returned frozenset is one cut set: executing all of its leaf
        actions achieves the goal.  OR nodes multiply the number of
        scenarios; AND nodes take the cross-product union of their
        children's scenarios.
        """
        self._require_refined()
        return self._scenarios(self._root.name)

    def _scenarios(self, name: str) -> list[frozenset[str]]:
        node = self._nodes[name]
        children = list(self._graph.successors(name))
        if not children:
            return [frozenset({name})]
        child_scenarios = [self._scenarios(c) for c in children]
        if node.node_type == NodeType.OR:
            merged: list[frozenset[str]] = []
            for scenarios in child_scenarios:
                merged.extend(scenarios)
            return _minimal_sets(merged)
        # AND node: cross-product union
        combined: list[frozenset[str]] = [frozenset()]
        for scenarios in child_scenarios:
            combined = [
                existing | scenario for existing in combined for scenario in scenarios
            ]
        return _minimal_sets(combined)

    def mitigated_feasibility(self, blocked_leaves: Iterable[str]) -> float:
        """Goal feasibility when the given leaf actions are fully blocked.

        Used to quantify how much a countermeasure (e.g. an HPE policy
        blocking CAN spoofing) reduces the feasibility of a composite
        attack goal.  Only leaves can be blocked: naming an AND/OR node
        with children raises ``ValueError``, an unknown name ``KeyError``.
        """
        blocked = set(blocked_leaves)
        unknown = blocked - set(self._nodes)
        if unknown:
            raise KeyError(f"unknown leaf nodes: {sorted(unknown)}")
        internal = sorted(name for name in blocked if self._graph.successors(name))
        if internal:
            raise ValueError(f"only leaf nodes can be blocked, not {internal}")
        self._require_refined()
        return self._feasibility(self._root.name, blocked)


def _minimal_sets(sets: list[frozenset[str]]) -> list[frozenset[str]]:
    """Remove supersets, keeping only minimal cut sets (stable order)."""
    minimal: list[frozenset[str]] = []
    for candidate in sets:
        if any(other < candidate for other in sets if other != candidate):
            continue
        if candidate not in minimal:
            minimal.append(candidate)
    return minimal
