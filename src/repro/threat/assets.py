"""Assets and the asset registry.

An *asset* is an item of value within the use case that should be
protected (paper Section II, "Identify Assets").  Assets can depend on
other assets (e.g. the EV-ECU depends on its sensors) so the registry
also tracks a dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.threat.graph import OrderedDAG

if TYPE_CHECKING:
    import networkx as nx


class Criticality(Enum):
    """How critical an asset is to safe operation of the system."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3
    SAFETY_CRITICAL = 4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.replace("_", " ").title()

    def __lt__(self, other: "Criticality") -> bool:
        return self.value < other.value

    def __le__(self, other: "Criticality") -> bool:
        return self.value <= other.value

    def __gt__(self, other: "Criticality") -> bool:
        return self.value > other.value

    def __ge__(self, other: "Criticality") -> bool:
        return self.value >= other.value


class AssetCategory(Enum):
    """Broad category of an asset within an embedded system."""

    CONTROL_UNIT = "control-unit"
    SENSOR = "sensor"
    ACTUATOR = "actuator"
    COMMUNICATION = "communication"
    USER_INTERFACE = "user-interface"
    DATA = "data"
    SAFETY_SYSTEM = "safety-system"
    INFRASTRUCTURE = "infrastructure"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Asset:
    """An item of value to protect.

    Parameters
    ----------
    name:
        Unique short name, e.g. ``"EV-ECU"``.
    description:
        What the asset is and why it matters.
    category:
        Broad asset category.
    criticality:
        Importance to safe and correct operation.
    data_flows:
        Names of data items flowing through this asset (used for the
        data-flow perspective the paper mentions).
    """

    name: str
    description: str = ""
    category: AssetCategory = AssetCategory.CONTROL_UNIT
    criticality: Criticality = Criticality.MEDIUM
    data_flows: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("asset name must be non-empty")
        object.__setattr__(self, "data_flows", tuple(self.data_flows))

    def __str__(self) -> str:
        return self.name


class AssetRegistry:
    """Registry of assets plus their dependency relationships.

    Dependencies are directed: ``add_dependency("EV-ECU", "Sensors")``
    records that the EV-ECU *depends on* the sensors, so compromising the
    sensors indirectly threatens the EV-ECU.
    """

    def __init__(self, assets: Iterable[Asset] = ()) -> None:
        self._assets: dict[str, Asset] = {}
        self._graph = OrderedDAG()
        for asset in assets:
            self.add(asset)

    # -- collection protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._assets)

    def __iter__(self) -> Iterator[Asset]:
        return iter(self._assets.values())

    def __contains__(self, name: object) -> bool:
        if isinstance(name, Asset):
            return name.name in self._assets
        return name in self._assets

    # -- mutation -------------------------------------------------------------

    def add(self, asset: Asset) -> Asset:
        """Register *asset*; re-registering the same name must be identical."""
        existing = self._assets.get(asset.name)
        if existing is not None:
            if existing != asset:
                raise ValueError(
                    f"asset {asset.name!r} already registered with different attributes"
                )
            return existing
        self._assets[asset.name] = asset
        self._graph.add_node(asset.name)
        return asset

    def add_dependency(self, dependent: str, dependency: str) -> None:
        """Record that *dependent* relies on *dependency*.

        Both assets must already be registered.  Cycles are rejected so the
        dependency structure stays analysable.
        """
        self._require(dependent)
        self._require(dependency)
        if dependent == dependency:
            raise ValueError("an asset cannot depend on itself")
        if not self._graph.add_edge(dependent, dependency):
            raise ValueError(
                f"dependency {dependent!r} -> {dependency!r} would create a cycle"
            )

    # -- queries --------------------------------------------------------------

    def get(self, name: str) -> Asset:
        """Return the asset registered under *name*."""
        return self._require(name)

    def names(self) -> list[str]:
        """Registered asset names, in insertion order."""
        return list(self._assets)

    def by_category(self, category: AssetCategory) -> list[Asset]:
        """All assets of a given category."""
        return [a for a in self._assets.values() if a.category == category]

    def by_minimum_criticality(self, minimum: Criticality) -> list[Asset]:
        """All assets at least as critical as *minimum*."""
        return [a for a in self._assets.values() if a.criticality >= minimum]

    def dependencies_of(self, name: str) -> list[Asset]:
        """Assets that *name* directly depends on."""
        self._require(name)
        return [self._assets[n] for n in self._graph.successors(name)]

    def dependents_of(self, name: str) -> list[Asset]:
        """Assets that directly depend on *name*."""
        self._require(name)
        return [self._assets[n] for n in self._graph.predecessors(name)]

    def transitive_dependencies(self, name: str) -> list[Asset]:
        """All assets that *name* transitively depends on."""
        self._require(name)
        reachable = self._graph.descendants(name)
        return [self._assets[n] for n in sorted(reachable)]

    def impact_set(self, name: str) -> list[Asset]:
        """All assets put at risk (transitively) if *name* is compromised.

        This is the set of transitive dependents: everything that relies
        on the compromised asset, directly or indirectly.
        """
        self._require(name)
        affected = self._graph.ancestors(name)
        return [self._assets[n] for n in sorted(affected)]

    def dependency_graph(self) -> nx.DiGraph:
        """The dependency graph as a new networkx ``DiGraph`` (node = asset name)."""
        import networkx as nx  # only callers that want a networkx graph pay for it

        graph = nx.DiGraph()
        graph.add_nodes_from(self._graph.nodes())
        graph.add_edges_from(
            (name, dependency)
            for name in self._graph.nodes()
            for dependency in self._graph.successors(name)
        )
        return graph

    # -- internals ------------------------------------------------------------

    def _require(self, name: str) -> Asset:
        try:
            return self._assets[name]
        except KeyError:
            raise KeyError(f"unknown asset: {name!r}") from None
