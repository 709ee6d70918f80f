"""The attacker's foothold on the bus.

Two footholds are modelled, matching the paper's "outside" and "inside"
attack distinction (Section V-B.2):

* :class:`MaliciousNode` -- a rogue CAN node physically or logically
  introduced onto the bus (e.g. via the OBD port).  It has no policy
  engine and no software filters: the attacker controls its firmware
  entirely.
* :func:`compromise_ecu` -- take over an existing ECU's firmware, which
  bypasses its software filters but *not* a hardware policy engine
  fitted below the firmware.
"""

from __future__ import annotations

from repro.can.frame import CANFrame
from repro.can.node import CANNode
from repro.vehicle.car import ConnectedCar
from repro.vehicle.ecu import VehicleECU


class MaliciousNode:
    """A rogue node the attacker attaches to the vehicle bus.

    Parameters
    ----------
    car:
        The vehicle whose bus the node is attached to.
    name:
        Bus name of the rogue node.  When a rogue node of that name is
        already attached (an earlier attack left it on the bus), the
        attacker reuses it; an ECU's name is refused.
    """

    def __init__(self, car: ConnectedCar, name: str = "MaliciousNode") -> None:
        self.car = car
        self.frames_injected = 0
        if name in car.bus.node_names() and name not in car.node_names():
            self.node = car.bus.node(name)
            return
        self.node = CANNode(name)
        # The attacker's own node performs no filtering in either direction.
        self.node.controller.rx_filters.set_default_accept()
        self.node.controller.tx_filters.set_default_accept()
        self.node.controller.rx_filters.compile_mask()
        self.node.controller.tx_filters.compile_mask()
        car.bus.attach(self.node)

    @property
    def name(self) -> str:
        """The rogue node's bus name."""
        return self.node.name

    def inject(self, can_id: int, data: bytes = b"\x00") -> bool:
        """Inject a single frame; returns whether it reached the bus."""
        self.frames_injected += 1
        return self.node.send(CANFrame(can_id=can_id, data=data, source=self.name))

    def inject_message(self, message_name: str, data: bytes = b"\x00") -> bool:
        """Inject a frame for a named catalogue message."""
        can_id = self.car.catalog.id_of(message_name)
        return self.inject(can_id, data)

    def flood(self, can_id: int, count: int, data: bytes = b"\x00") -> int:
        """Inject *count* identical frames back-to-back; returns how many got out."""
        sent = 0
        for _ in range(count):
            if self.inject(can_id, data):
                sent += 1
        return sent

    def observed_frames(self) -> list[CANFrame]:
        """Frames the rogue node has passively sniffed off the bus."""
        return list(self.node.inbox)

    def detach(self) -> None:
        """Remove the rogue node from the bus."""
        self.car.bus.detach(self.name)


def compromise_ecu(ecu: VehicleECU) -> VehicleECU:
    """Take over an existing ECU's firmware (inside attack foothold).

    Software filter banks stop filtering; any hardware policy engine
    fitted to the node keeps enforcing.  Returns the same ECU for
    chaining.
    """
    ecu.compromise_firmware()
    return ecu
