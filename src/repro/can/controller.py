"""CAN controller model.

The controller sits between the node's processor and its transceiver
(paper Fig. 3).  It parses received frames, applies the software
acceptance filters and maintains the error-confinement state machine of
ISO 11898 (error-active, error-passive, bus-off) driven by transmit and
receive error counters.
"""

from __future__ import annotations

from enum import Enum

from repro.can.errors import BusOffError
from repro.can.fanout import invalidate
from repro.can.filters import FilterBank
from repro.can.frame import CANFrame

#: Error-counter thresholds from the CAN specification.
ERROR_PASSIVE_THRESHOLD = 128
BUS_OFF_THRESHOLD = 256
TX_ERROR_INCREMENT = 8
RX_ERROR_INCREMENT = 1


class ControllerState(Enum):
    """CAN error-confinement states."""

    ERROR_ACTIVE = "error-active"
    ERROR_PASSIVE = "error-passive"
    BUS_OFF = "bus-off"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class CANController:
    """A CAN protocol controller with software filters and error counters.

    The receive filter bank models the conventional programmable
    acceptance filters; the transmit filter bank models firmware-level
    discipline about which identifiers the node is allowed to emit.
    Both are software-configured and are bypassed when the node firmware
    is compromised (see :meth:`compromise` / :meth:`restore`).
    """

    def __init__(
        self,
        owner_name: str,
        rx_filters: FilterBank | None = None,
        tx_filters: FilterBank | None = None,
    ) -> None:
        self._owner_name = owner_name
        self.rx_filters = rx_filters if rx_filters is not None else FilterBank()
        self.tx_filters = tx_filters if tx_filters is not None else FilterBank()
        self._tx_error_counter = 0
        self._rx_error_counter = 0
        self.frames_accepted = 0
        self.frames_rejected = 0
        self.frames_transmitted = 0

    # -- identification ---------------------------------------------------------

    @property
    def owner_name(self) -> str:
        """Name of the node this controller belongs to."""
        return self._owner_name

    # -- error confinement --------------------------------------------------------

    @property
    def tx_error_counter(self) -> int:
        """Transmit error counter (TEC)."""
        return self._tx_error_counter

    @property
    def rx_error_counter(self) -> int:
        """Receive error counter (REC)."""
        return self._rx_error_counter

    @property
    def state(self) -> ControllerState:
        """Current error-confinement state."""
        if self._tx_error_counter >= BUS_OFF_THRESHOLD:
            return ControllerState.BUS_OFF
        if (
            self._tx_error_counter >= ERROR_PASSIVE_THRESHOLD
            or self._rx_error_counter >= ERROR_PASSIVE_THRESHOLD
        ):
            return ControllerState.ERROR_PASSIVE
        return ControllerState.ERROR_ACTIVE

    @property
    def is_bus_off(self) -> bool:
        """Whether the controller is in the bus-off state."""
        return self.state == ControllerState.BUS_OFF

    def record_tx_error(self) -> None:
        """Register a transmission error (TEC += 8)."""
        self._tx_error_counter += TX_ERROR_INCREMENT

    def record_rx_error(self) -> None:
        """Register a reception error (REC += 1)."""
        invalidate()
        self._rx_error_counter += RX_ERROR_INCREMENT

    def record_tx_success(self) -> None:
        """Register a successful transmission (TEC decrements toward zero)."""
        self.frames_transmitted += 1
        if self._tx_error_counter > 0:
            self._tx_error_counter -= 1

    def record_rx_success(self) -> None:
        """Register a successful reception (REC decrements toward zero)."""
        if self._rx_error_counter > 0:
            self._rx_error_counter -= 1

    def reset(self) -> None:
        """Reset error counters (models a controller restart after bus-off)."""
        self._tx_error_counter = 0
        self._rx_error_counter = 0

    def reset_for_reuse(self) -> None:
        """Restore the controller to its just-built observable state.

        Error counters, frame counters and the compromise flag all
        clear; the configured filter banks themselves are kept (they
        are set up once from the message catalogue and never mutated at
        run time -- a firmware compromise only *bypasses* them).
        """
        invalidate()
        self.reset()
        self.frames_accepted = 0
        self.frames_rejected = 0
        self.frames_transmitted = 0
        self.restore()

    # -- data path -------------------------------------------------------------------

    def check_transmit(self, frame: CANFrame) -> bool:
        """Whether the software transmit gate allows sending *frame*.

        Raises :class:`BusOffError` when the controller is bus-off.
        """
        if self._tx_error_counter >= BUS_OFF_THRESHOLD:
            raise BusOffError(f"controller of {self._owner_name!r} is bus-off")
        return self.tx_filters.accepts_id(frame.can_id)

    def check_receive(self, frame: CANFrame) -> bool:
        """Whether the software acceptance filters accept *frame*."""
        accepted = self.rx_filters.accepts_id(frame.can_id)
        if accepted:
            self.frames_accepted += 1
            if self._rx_error_counter > 0:  # inline record_rx_success
                self._rx_error_counter -= 1
        else:
            self.frames_rejected += 1
        return accepted

    # -- compromise model ----------------------------------------------------------------

    def compromise(self) -> None:
        """Model a firmware compromise: both software filter banks are bypassed."""
        self.rx_filters.compromise()
        self.tx_filters.compromise()

    def restore(self) -> None:
        """Restore software filtering after a firmware reflash."""
        self.rx_filters.restore()
        self.tx_filters.restore()

    @property
    def compromised(self) -> bool:
        """Whether the software filters are currently bypassed."""
        return self.rx_filters.compromised or self.tx_filters.compromised
