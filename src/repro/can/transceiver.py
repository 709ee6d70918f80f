"""CAN transceiver model.

The transceiver converts between the differential CAN-H/CAN-L wire
signals and the single-ended digital interface of the controller (paper
Fig. 3).  In this message-level simulation it models attachment to the
bus, an enable/standby state and simple TX/RX frame counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.can.errors import NodeDetachedError
from repro.can.fanout import invalidate
from repro.can.frame import CANFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.bus import CANBus
    from repro.can.node import CANNode


class CANTransceiver:
    """Physical-interface model for a CAN node."""

    def __init__(self, owner_name: str) -> None:
        self._owner_name = owner_name
        self._bus: "CANBus | None" = None
        self._node: "CANNode | None" = None
        self._enabled = True
        self.frames_sent = 0
        self.frames_received = 0

    # -- wiring ------------------------------------------------------------------

    @property
    def owner_name(self) -> str:
        """Name of the node this transceiver belongs to."""
        return self._owner_name

    @property
    def bus(self) -> "CANBus | None":
        """The bus this transceiver is attached to, if any."""
        return self._bus

    @property
    def attached(self) -> bool:
        """Whether the transceiver is attached to a bus."""
        return self._bus is not None

    def attach(self, bus: "CANBus", node: "CANNode") -> None:
        """Attach to *bus*, delivering received frames to *node*."""
        invalidate()
        self._bus = bus
        self._node = node

    def detach(self) -> None:
        """Detach from the bus."""
        invalidate()
        self._bus = None
        self._node = None

    def reset_for_reuse(self) -> None:
        """Restore just-built state: counters to zero, standby cleared."""
        invalidate()
        self._enabled = True
        self.frames_sent = 0
        self.frames_received = 0

    # -- power state ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the transceiver is active (not in standby)."""
        return self._enabled

    def enable(self) -> None:
        """Leave standby."""
        invalidate()
        self._enabled = True

    def standby(self) -> None:
        """Enter standby: no frames are sent or received."""
        invalidate()
        self._enabled = False

    # -- data path -------------------------------------------------------------------

    def transmit(self, frame: CANFrame) -> None:
        """Drive *frame* onto the attached bus."""
        if self._bus is None:
            raise NodeDetachedError(
                f"transceiver of {self._owner_name!r} is not attached to a bus"
            )
        if not self._enabled:
            return
        self.frames_sent += 1
        self._bus.submit(frame, self._owner_name)

    def receive(self, frame: CANFrame) -> None:
        """Deliver a frame arriving from the wire up to the node."""
        if not self._enabled or self._node is None:
            return
        self.frames_received += 1
        self._node.wire_receive(frame)
