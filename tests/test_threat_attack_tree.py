"""Tests for attack trees."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.threat.attack_tree import AttackTree, AttackTreeNode, NodeType

NAMES = ["n0", "n1", "n2", "n3", "n4", "n5"]


def build_example_tree() -> AttackTree:
    """Goal: disable the EV-ECU.

    OR(
        spoof-direct (leaf, 0.4),
        AND(compromise-infotainment (0.5), pivot-to-bus (0.8))
    )
    """
    tree = AttackTree(AttackTreeNode("disable-ecu", NodeType.OR))
    tree.add_child("disable-ecu", AttackTreeNode("spoof-direct", feasibility=0.4, cost=2.0))
    tree.add_child(
        "disable-ecu", AttackTreeNode("via-infotainment", NodeType.AND, cost=0.0)
    )
    tree.add_child(
        "via-infotainment",
        AttackTreeNode("compromise-infotainment", feasibility=0.5, cost=3.0),
    )
    tree.add_child(
        "via-infotainment", AttackTreeNode("pivot-to-bus", feasibility=0.8, cost=1.0)
    )
    return tree


class TestConstruction:
    def test_children_and_leaves(self):
        tree = build_example_tree()
        assert {c.name for c in tree.children("disable-ecu")} == {
            "spoof-direct", "via-infotainment",
        }
        assert {leaf.name for leaf in tree.leaves()} == {
            "spoof-direct", "compromise-infotainment", "pivot-to-bus",
        }
        assert len(tree) == 5
        assert "pivot-to-bus" in tree

    def test_cannot_attach_to_leaf(self):
        tree = build_example_tree()
        with pytest.raises(ValueError):
            tree.add_child("spoof-direct", AttackTreeNode("x"))

    def test_unknown_parent_rejected(self):
        tree = build_example_tree()
        with pytest.raises(KeyError):
            tree.add_child("nope", AttackTreeNode("x"))

    def test_invalid_feasibility_rejected(self):
        with pytest.raises(ValueError):
            AttackTreeNode("x", feasibility=1.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            AttackTreeNode("x", cost=-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            AttackTreeNode("  ")

    @settings(max_examples=200, deadline=None)
    @given(
        leaf_names=st.sets(st.sampled_from(NAMES[1:])),
        edges=st.lists(
            st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=30
        ),
    )
    def test_matches_the_networkx_reference(self, leaf_names, edges):
        """Edge by edge, the tree accepts exactly the edges networkx's DAG
        check accepts, and children and leaves come in the reference's order."""
        nodes = {
            name: AttackTreeNode(name, NodeType.LEAF if name in leaf_names else NodeType.OR)
            for name in NAMES
        }
        tree = AttackTree(nodes["n0"])
        reference = nx.DiGraph()
        reference.add_node("n0")
        for parent, child in edges:
            if parent not in tree or parent in leaf_names:
                continue  # rejected before any edge is considered
            reference.add_edge(parent, child)
            acyclic = nx.is_directed_acyclic_graph(reference)
            if not acyclic:
                reference.remove_edge(parent, child)
            try:
                tree.add_child(parent, nodes[child])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == acyclic, (parent, child)
        assert len(tree) == reference.number_of_nodes()
        for name in reference:
            children = [node.name for node in tree.children(name)]
            assert children == list(reference.successors(name))
        sinks = [name for name in reference if reference.out_degree(name) == 0]
        assert [leaf.name for leaf in tree.leaves()] == sinks


class TestAnalysis:
    def test_goal_feasibility(self):
        tree = build_example_tree()
        and_branch = 0.5 * 0.8
        expected = 1 - (1 - 0.4) * (1 - and_branch)
        assert tree.goal_feasibility() == pytest.approx(expected)

    def test_cheapest_path_cost(self):
        tree = build_example_tree()
        # Direct spoof costs 2.0; the infotainment chain costs 3.0 + 1.0.
        assert tree.cheapest_path_cost() == pytest.approx(2.0)

    def test_attack_scenarios_are_minimal_cut_sets(self):
        scenarios = build_example_tree().attack_scenarios()
        assert frozenset({"spoof-direct"}) in scenarios
        assert frozenset({"compromise-infotainment", "pivot-to-bus"}) in scenarios
        assert len(scenarios) == 2

    def test_mitigated_feasibility_drops_when_leaf_blocked(self):
        tree = build_example_tree()
        baseline = tree.goal_feasibility()
        blocked = tree.mitigated_feasibility(["spoof-direct"])
        assert blocked < baseline
        assert blocked == pytest.approx(0.5 * 0.8)

    def test_blocking_all_leaves_gives_zero(self):
        tree = build_example_tree()
        assert tree.mitigated_feasibility(
            ["spoof-direct", "compromise-infotainment", "pivot-to-bus"]
        ) == pytest.approx(0.0)

    def test_mitigated_feasibility_unknown_leaf_rejected(self):
        with pytest.raises(KeyError):
            build_example_tree().mitigated_feasibility(["nope"])

    def test_mitigated_feasibility_rejects_internal_nodes(self):
        tree = AttackTree(AttackTreeNode("goal", NodeType.AND))
        tree.add_child("goal", AttackTreeNode("sub", NodeType.OR))
        tree.add_child("sub", AttackTreeNode("a", feasibility=0.5))
        tree.add_child("sub", AttackTreeNode("b", feasibility=0.5))
        assert tree.goal_feasibility() == pytest.approx(0.75)
        with pytest.raises(ValueError, match=r"\['goal', 'sub'\]"):
            tree.mitigated_feasibility(["a", "sub", "goal"])
        with pytest.raises(KeyError):
            tree.mitigated_feasibility(["sub", "nope"])
        assert tree.mitigated_feasibility(["a", "b"]) == pytest.approx(0.0)

    def test_single_leaf_tree(self):
        tree = AttackTree(AttackTreeNode("simple", feasibility=0.3, cost=5.0))
        assert tree.goal_feasibility() == pytest.approx(0.3)
        assert tree.cheapest_path_cost() == pytest.approx(5.0)
        assert tree.attack_scenarios() == [frozenset({"simple"})]

    def test_and_requires_all_children(self):
        tree = AttackTree(AttackTreeNode("goal", NodeType.AND))
        tree.add_child("goal", AttackTreeNode("a", feasibility=1.0))
        tree.add_child("goal", AttackTreeNode("b", feasibility=0.0))
        assert tree.goal_feasibility() == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "analysis",
        ["goal_feasibility", "cheapest_path_cost", "attack_scenarios", "mitigated_feasibility"],
    )
    def test_unrefined_goals_are_refused(self, analysis):
        def run(tree):
            method = getattr(tree, analysis)
            return method([]) if analysis == "mitigated_feasibility" else method()

        with pytest.raises(ValueError, match=r"\['g'\]"):
            run(AttackTree(AttackTreeNode("g", NodeType.OR)))
        tree = AttackTree(AttackTreeNode("goal", NodeType.OR))
        tree.add_child("goal", AttackTreeNode("a", feasibility=0.5))
        tree.add_child("goal", AttackTreeNode("sub", NodeType.AND))
        with pytest.raises(ValueError, match=r"\['sub'\]"):
            run(tree)
        # Still listed among the childless nodes, and scored once refined.
        assert [leaf.name for leaf in tree.leaves()] == ["a", "sub"]
        tree.add_child("sub", AttackTreeNode("b", feasibility=0.5))
        run(tree)
