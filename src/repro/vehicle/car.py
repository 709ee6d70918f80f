"""The assembled connected car.

:class:`ConnectedCar` builds the complete case-study vehicle of paper
Fig. 2: one shared CAN bus carrying the EV-ECU, power steering, engine,
sensor cluster, telematics unit, infotainment system, door locks,
safety controller and gateway, plus a mode manager for the three car
operating modes.  Policy engines are fitted per node by the enforcement
layer (:mod:`repro.core.enforcement`); the car itself is
enforcement-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.can.bus import CANBus
from repro.can.node import PolicyHook
from repro.can.scheduler import EventScheduler
from repro.can.trace import DEFAULT_RING_SIZE, TraceLevel
from repro.vehicle.door_locks import DoorLockController
from repro.vehicle.ecu import VehicleECU
from repro.vehicle.engine_ecu import EngineController
from repro.vehicle.eps import PowerSteeringController
from repro.vehicle.ev_ecu import ElectronicVehicleECU
from repro.vehicle.gateway import CANGateway
from repro.vehicle.infotainment import InfotainmentSystem
from repro.vehicle.messages import (
    NODE_DOOR_LOCKS,
    NODE_ENGINE,
    NODE_EPS,
    NODE_EV_ECU,
    NODE_GATEWAY,
    NODE_INFOTAINMENT,
    NODE_SAFETY,
    NODE_SENSORS,
    NODE_TELEMATICS,
    MessageCatalog,
    standard_catalog,
)
from repro.vehicle.modes import CarMode, ModeManager
from repro.vehicle.safety import SafetyCriticalController
from repro.vehicle.sensors import SensorCluster
from repro.vehicle.telematics import TelematicsUnit

if TYPE_CHECKING:
    import networkx as nx


class ConnectedCar:
    """The complete connected-car system.

    Parameters
    ----------
    catalog:
        The vehicle message catalogue (defaults to the standard one).
    policy_engines:
        Optional mapping of node name to the policy hook fitted to that
        node (typically :class:`repro.hpe.engine.HardwarePolicyEngine`
        instances built by the enforcement layer).
    scheduler:
        Optional externally owned event scheduler.
    start_periodic_traffic:
        Whether to schedule the catalogue's periodic broadcasts.
    trace_level:
        Bus-trace retention level (see
        :class:`repro.can.trace.TraceLevel`); defaults to ``FULL`` for
        single-vehicle debugging.  Fleet runs use ``RING``/``COUNTERS``
        for O(1) trace memory per vehicle.
    trace_ring_size:
        Window size when ``trace_level`` is ``RING``.
    inbox_limit:
        Optional per-node inbox retention bound applied to every ECU
        node (``None`` keeps every received frame).
    """

    def __init__(
        self,
        catalog: MessageCatalog | None = None,
        policy_engines: dict[str, PolicyHook] | None = None,
        scheduler: EventScheduler | None = None,
        start_periodic_traffic: bool = False,
        trace_level: "TraceLevel | str" = TraceLevel.FULL,
        trace_ring_size: int = DEFAULT_RING_SIZE,
        inbox_limit: int | None = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else standard_catalog()
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.bus = CANBus(
            scheduler=self.scheduler,
            name="vehicle-can",
            trace_level=trace_level,
            trace_ring_size=trace_ring_size,
        )
        self.modes = ModeManager(CarMode.NORMAL)
        engines = policy_engines or {}

        self.ev_ecu = ElectronicVehicleECU(self.catalog, engines.get(NODE_EV_ECU))
        self.eps = PowerSteeringController(self.catalog, engines.get(NODE_EPS))
        self.engine = EngineController(self.catalog, engines.get(NODE_ENGINE))
        self.sensors = SensorCluster(self.catalog, engines.get(NODE_SENSORS))
        self.telematics = TelematicsUnit(self.catalog, engines.get(NODE_TELEMATICS))
        self.infotainment = InfotainmentSystem(self.catalog, engines.get(NODE_INFOTAINMENT))
        self.door_locks = DoorLockController(self.catalog, engines.get(NODE_DOOR_LOCKS))
        self.safety = SafetyCriticalController(self.catalog, engines.get(NODE_SAFETY))
        self.gateway = CANGateway(self.catalog, engines.get(NODE_GATEWAY))

        for ecu in self.ecus():
            self.bus.attach(ecu.node)
            if inbox_limit is not None:
                ecu.node.set_inbox_limit(inbox_limit)

        self._periodic_traffic = start_periodic_traffic
        if start_periodic_traffic:
            self.start_periodic_traffic()

    # -- access ----------------------------------------------------------------------

    def ecus(self) -> list[VehicleECU]:
        """All ECUs in attachment order."""
        return [
            self.ev_ecu,
            self.eps,
            self.engine,
            self.sensors,
            self.telematics,
            self.infotainment,
            self.door_locks,
            self.safety,
            self.gateway,
        ]

    def ecu(self, name: str) -> VehicleECU:
        """The ECU with the given node name."""
        for ecu in self.ecus():
            if ecu.name == name:
                return ecu
        raise KeyError(f"no ECU named {name!r}")

    def node_names(self) -> list[str]:
        """All node names on the vehicle bus."""
        return [ecu.name for ecu in self.ecus()]

    @property
    def mode(self) -> CarMode:
        """The car's current operating mode."""
        return self.modes.mode

    # -- behaviour ---------------------------------------------------------------------

    def start_periodic_traffic(self) -> None:
        """Schedule every ECU's periodic catalogue broadcasts."""
        for ecu in self.ecus():
            ecu.start_periodic_broadcasts()

    def run(self, duration: float) -> None:
        """Advance the simulation by *duration* seconds."""
        self.bus.run(duration)

    def reset(self) -> None:
        """Restore the car to its just-built state for pooled reuse.

        Everything observable is rewound: the scheduler (clock, queue
        and sequence numbering), the bus (trace, statistics,
        arbitration), every ECU (counters, inboxes, application state,
        firmware compromise), the mode manager, and -- through
        :meth:`~repro.core.enforcement.EnforcementCoordinator.reset_for_reuse`
        -- any fitted enforcement (engine counters, tamper logs,
        approved lists, compiled tables, the active policy).  Rogue
        nodes an attack attached are detached.  Periodic broadcasts are
        re-scheduled when the car was built with them, in the same
        order and with the same sequence numbers as at construction, so
        a reset car's timeline is bit-identical to a fresh build's.
        """
        self.scheduler.reset()
        core_nodes = {ecu.name for ecu in self.ecus()}
        for name in list(self.bus.node_names()):
            if name not in core_nodes:
                self.bus.detach(name)
        self.bus.reset()
        self.modes.reset()
        for ecu in self.ecus():
            ecu.reset()
        if self._periodic_traffic:
            self.start_periodic_traffic()
        coordinator = getattr(self, "enforcement_coordinator", None)
        if coordinator is not None:
            coordinator.reset_for_reuse(self)

    def sync_enforcement(self) -> None:
        """Ask any fitted enforcement coordinator to resynchronise.

        The enforcement layer (if fitted) attaches itself as the
        ``enforcement_coordinator`` attribute; situation changes (motion,
        alarm, accident) call this so situation-dependent policies are
        re-applied.  A car without enforcement ignores the call.
        """
        coordinator = getattr(self, "enforcement_coordinator", None)
        if coordinator is not None:
            coordinator.sync(self)

    def drive(self, accel: int = 80, duration: float = 1.0) -> None:
        """Simple driving scenario: press the accelerator and run for *duration*."""
        self.sensors.set_pedals(accel=accel, brake=0)
        self.sensors.set_gear(1)
        self.door_locks.set_motion(True)
        self.sync_enforcement()
        self.run(duration)

    def park_and_arm(self) -> None:
        """Park, lock, arm the alarm and immobilise the vehicle."""
        self.sensors.set_pedals(accel=0, brake=0)
        self.sensors.set_gear(0)
        self.door_locks.set_motion(False)
        self.safety.arm_alarm()
        self.sync_enforcement()
        self.door_locks.arm_and_immobilise()
        self.run(0.05)

    def add_mode_listener(self, listener: Callable[[CarMode, CarMode], None]) -> None:
        """Register a mode-change listener (used by the enforcement layer)."""
        self.modes.add_listener(listener)

    # -- health summary ------------------------------------------------------------------

    def health(self) -> dict[str, bool]:
        """Key health indicators used by the attack campaigns."""
        return {
            "propulsion_available": self.ev_ecu.propulsion_available,
            "steering_assist": self.eps.assisting,
            "engine_running": self.engine.running,
            "emergency_call_possible": self.telematics.can_place_emergency_call,
            "tracking_enabled": self.telematics.tracking_enabled,
            "alarm_armed_or_ok": not self.safety.alarm_armed or not self.safety.alarm_triggered,
            "doors_safe": not self.door_locks.hazard_events,
            "failsafe_clear": not self.safety.failsafe_active,
        }

    # -- topology (Fig. 2) -------------------------------------------------------------------

    def topology(self) -> nx.Graph:
        """The component/bus topology graph of paper Fig. 2.

        Nodes are the ECUs plus the bus itself; every ECU is connected to
        the bus node.  External interfaces (cellular, WiFi, OBD) hang off
        the telematics unit and gateway.
        """
        import networkx as nx  # only the Fig. 2 artefact needs a graph library

        graph = nx.Graph()
        bus_node = self.bus.name
        graph.add_node(bus_node, kind="bus")
        for ecu in self.ecus():
            graph.add_node(ecu.name, kind="ecu")
            graph.add_edge(ecu.name, bus_node, medium="CAN")
        for external, attach_point in (
            ("Cellular-3G/4G", NODE_TELEMATICS),
            ("WiFi", NODE_TELEMATICS),
            ("OBD-Port", NODE_GATEWAY),
            ("Media-Browser", NODE_INFOTAINMENT),
        ):
            graph.add_node(external, kind="external-interface")
            graph.add_edge(external, attach_point, medium="external")
        return graph
