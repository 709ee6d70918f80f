"""Tests for assets, the asset registry and entry points."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.threat.assets import Asset, AssetCategory, AssetRegistry, Criticality
from repro.threat.entry_points import (
    EntryPoint,
    EntryPointRegistry,
    Exposure,
    InterfaceKind,
)


def make_registry() -> AssetRegistry:
    registry = AssetRegistry()
    registry.add(Asset("EV-ECU", criticality=Criticality.SAFETY_CRITICAL))
    registry.add(Asset("Sensors", category=AssetCategory.SENSOR))
    registry.add(Asset("Engine", criticality=Criticality.SAFETY_CRITICAL))
    registry.add(Asset("Infotainment", category=AssetCategory.USER_INTERFACE,
                       criticality=Criticality.LOW))
    return registry


class TestAsset:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Asset("  ")

    def test_defaults(self):
        asset = Asset("X")
        assert asset.category is AssetCategory.CONTROL_UNIT
        assert asset.criticality is Criticality.MEDIUM

    def test_criticality_ordering(self):
        assert Criticality.LOW < Criticality.SAFETY_CRITICAL
        assert Criticality.HIGH >= Criticality.MEDIUM


class TestAssetRegistry:
    def test_add_and_get(self):
        registry = make_registry()
        assert registry.get("EV-ECU").name == "EV-ECU"
        assert len(registry) == 4
        assert "Engine" in registry

    def test_duplicate_identical_is_idempotent(self):
        registry = AssetRegistry()
        asset = Asset("X")
        registry.add(asset)
        registry.add(Asset("X"))
        assert len(registry) == 1

    def test_duplicate_conflicting_rejected(self):
        registry = AssetRegistry()
        registry.add(Asset("X"))
        with pytest.raises(ValueError):
            registry.add(Asset("X", criticality=Criticality.LOW))

    def test_unknown_asset_raises(self):
        with pytest.raises(KeyError):
            make_registry().get("nope")

    def test_by_category_and_criticality(self):
        registry = make_registry()
        assert [a.name for a in registry.by_category(AssetCategory.SENSOR)] == ["Sensors"]
        critical = registry.by_minimum_criticality(Criticality.SAFETY_CRITICAL)
        assert {a.name for a in critical} == {"EV-ECU", "Engine"}

    def test_dependencies(self):
        registry = make_registry()
        registry.add_dependency("EV-ECU", "Sensors")
        registry.add_dependency("Engine", "Sensors")
        assert [a.name for a in registry.dependencies_of("EV-ECU")] == ["Sensors"]
        assert {a.name for a in registry.dependents_of("Sensors")} == {"EV-ECU", "Engine"}
        assert {a.name for a in registry.impact_set("Sensors")} == {"EV-ECU", "Engine"}

    def test_transitive_dependencies(self):
        registry = make_registry()
        registry.add_dependency("Infotainment", "EV-ECU")
        registry.add_dependency("EV-ECU", "Sensors")
        names = {a.name for a in registry.transitive_dependencies("Infotainment")}
        assert names == {"EV-ECU", "Sensors"}

    def test_dependency_cycle_rejected(self):
        registry = make_registry()
        registry.add_dependency("EV-ECU", "Sensors")
        with pytest.raises(ValueError):
            registry.add_dependency("Sensors", "EV-ECU")

    def test_self_dependency_rejected(self):
        registry = make_registry()
        with pytest.raises(ValueError):
            registry.add_dependency("EV-ECU", "EV-ECU")

    def test_dependency_requires_registered_assets(self):
        registry = make_registry()
        with pytest.raises(KeyError):
            registry.add_dependency("EV-ECU", "nope")

    def test_dependency_graph_is_a_copy(self):
        registry = make_registry()
        registry.add_dependency("EV-ECU", "Sensors")
        graph = registry.dependency_graph()
        graph.remove_edge("EV-ECU", "Sensors")
        assert [a.name for a in registry.dependencies_of("EV-ECU")] == ["Sensors"]

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF")), max_size=30
        )
    )
    def test_matches_the_networkx_reference(self, edges):
        """Edge by edge, the registry accepts exactly the edges networkx's
        DAG check accepts, and every query answers in the reference's order."""
        registry = AssetRegistry(Asset(name) for name in "ABCDEF")
        reference = nx.DiGraph()
        reference.add_nodes_from("ABCDEF")
        for dependent, dependency in edges:
            reference.add_edge(dependent, dependency)
            acyclic = nx.is_directed_acyclic_graph(reference)
            if not acyclic:
                reference.remove_edge(dependent, dependency)
            try:
                registry.add_dependency(dependent, dependency)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == acyclic, (dependent, dependency)

        def names(assets):
            return [asset.name for asset in assets]

        for name in "ABCDEF":
            assert names(registry.dependencies_of(name)) == list(reference.successors(name))
            assert names(registry.dependents_of(name)) == list(reference.predecessors(name))
            assert names(registry.transitive_dependencies(name)) == sorted(
                nx.descendants(reference, name)
            )
            assert names(registry.impact_set(name)) == sorted(nx.ancestors(reference, name))
        exported = registry.dependency_graph()
        assert list(exported.nodes) == list(reference.nodes)
        assert list(exported.edges) == list(reference.edges)


class TestEntryPoint:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            EntryPoint(" ")

    def test_attack_surface_score_widens_without_authentication(self):
        authenticated = EntryPoint(
            "cell", InterfaceKind.NETWORK, Exposure.REMOTE,
            exposes=("ECU",), requires_authentication=True,
        )
        open_interface = EntryPoint(
            "cell2", InterfaceKind.NETWORK, Exposure.REMOTE,
            exposes=("ECU",), requires_authentication=False,
        )
        assert open_interface.attack_surface_score > authenticated.attack_surface_score

    def test_reach_scores_order(self):
        assert Exposure.REMOTE.reach_score > Exposure.PROXIMITY.reach_score
        assert Exposure.PROXIMITY.reach_score > Exposure.LOCAL.reach_score
        assert Exposure.LOCAL.reach_score > Exposure.INTERNAL.reach_score


class TestEntryPointRegistry:
    def make(self) -> EntryPointRegistry:
        registry = EntryPointRegistry()
        registry.add(
            EntryPoint("3G/4G/WiFi", InterfaceKind.NETWORK, Exposure.REMOTE,
                       exposes=("EV-ECU", "Door locks"))
        )
        registry.add(
            EntryPoint("Sensors", InterfaceKind.SENSOR, Exposure.LOCAL, exposes=("EV-ECU",))
        )
        registry.add(
            EntryPoint("Browser", InterfaceKind.USER_INTERFACE, Exposure.REMOTE,
                       exposes=("Infotainment",))
        )
        return registry

    def test_lookup(self):
        registry = self.make()
        assert registry.get("Sensors").kind is InterfaceKind.SENSOR
        assert "Browser" in registry
        assert len(registry) == 3
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_exposing(self):
        registry = self.make()
        assert {ep.name for ep in registry.exposing("EV-ECU")} == {"3G/4G/WiFi", "Sensors"}

    def test_by_kind_and_exposure(self):
        registry = self.make()
        assert [ep.name for ep in registry.by_kind(InterfaceKind.NETWORK)] == ["3G/4G/WiFi"]
        assert {ep.name for ep in registry.by_exposure(Exposure.REMOTE)} == {
            "3G/4G/WiFi", "Browser",
        }

    def test_ranked_by_attack_surface(self):
        ranked = self.make().ranked_by_attack_surface()
        scores = [ep.attack_surface_score for ep in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_conflicting_duplicate_rejected(self):
        registry = self.make()
        with pytest.raises(ValueError):
            registry.add(EntryPoint("Sensors", InterfaceKind.DEBUG))
