"""Generic vehicle ECU application.

Every vehicle component in the case study (EV-ECU, EPS, engine,
telematics, infotainment, door locks, safety controller, sensor
cluster) is an application running on a CAN node.  :class:`VehicleECU`
provides the shared machinery: message dispatch by identifier, sending
messages from the catalogue, an operational/disabled state, an event
log and pass-throughs for the firmware-compromise model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.can.frame import CANFrame
from repro.can.node import ApplicationHooks, CANNode, PolicyHook
from repro.vehicle.messages import MessageCatalog


@dataclass(frozen=True)
class EcuEvent:
    """One entry in an ECU's application event log."""

    time: float
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.kind}: {self.detail}"


class VehicleECU:
    """Base class for all vehicle applications.

    Parameters
    ----------
    name:
        The node name (must match the message catalogue's node names).
    catalog:
        The vehicle message catalogue.
    policy_engine:
        Optional policy hook (e.g. a hardware policy engine) fitted to
        this ECU's CAN node.
    """

    def __init__(
        self,
        name: str,
        catalog: MessageCatalog,
        policy_engine: PolicyHook | None = None,
    ) -> None:
        self.name = name
        self.catalog = catalog
        self.node = CANNode(
            name,
            policy_engine=policy_engine,
            hooks=ApplicationHooks(on_receive=self._dispatch),
        )
        self._handlers: dict[int, list[Callable[[CANFrame], None]]] = {}
        self._operational = True
        self.events: list[EcuEvent] = []
        #: Whether a subclass overrides :meth:`handle_frame`; when not,
        #: the dispatch hot path skips the no-op virtual call entirely.
        self._dispatches_handle_frame = (
            type(self).handle_frame is not VehicleECU.handle_frame
        )
        #: ``(period s, callback, label)`` per periodic catalogue
        #: message, resolved by the first :meth:`start_periodic_broadcasts`.
        self._periodic_schedule: tuple[tuple[float, Callable[[], None], str], ...] | None = None
        self._configure_default_filters()

    # -- configuration --------------------------------------------------------------

    def _configure_default_filters(self) -> None:
        """Configure the software acceptance filters from the catalogue.

        The controller's RX filters accept the identifiers this node
        legitimately consumes; the TX filters allow the identifiers it
        legitimately produces.  These are the conventional
        firmware-configured filters -- bypassed if the firmware is
        compromised.
        """
        rx_ids = self.catalog.read_ids_for(self.name)
        tx_ids = self.catalog.write_ids_for(self.name)
        if rx_ids:
            self.node.controller.rx_filters.set_default_reject()
            for can_id in rx_ids:
                self.node.controller.rx_filters.add_exact(can_id)
        if tx_ids:
            self.node.controller.tx_filters.set_default_reject()
            for can_id in tx_ids:
                self.node.controller.tx_filters.add_exact(can_id)
        # Pre-compile both banks' acceptance bitsets: catalogue filters
        # never change after construction, and the fused fleet data path
        # probes the compiled masks instead of scanning match buckets.
        self.node.controller.rx_filters.compile_mask()
        self.node.controller.tx_filters.compile_mask()

    def on_message(self, message_name: str, handler: Callable[[CANFrame], None]) -> None:
        """Register *handler* for the named catalogue message."""
        can_id = self.catalog.id_of(message_name)
        self._handlers.setdefault(can_id, []).append(handler)

    # -- pool reuse -----------------------------------------------------------------

    def reset(self) -> None:
        """Restore the ECU to its just-built observable state.

        Clears the node's run state (counters, inbox, compromise), the
        event log and the operational flag, then calls
        :meth:`reset_state` for subclass-specific fields.  Registered
        handlers, filters and any fitted policy engine are kept.
        """
        self.node.reset_for_reuse()
        self._operational = True
        self.events.clear()
        self.reset_state()

    def reset_state(self) -> None:
        """Subclass hook: restore application fields to construction values."""

    # -- state ------------------------------------------------------------------------

    @property
    def operational(self) -> bool:
        """Whether the ECU is currently operational (not disabled)."""
        return self._operational

    def disable(self, reason: str = "") -> None:
        """Disable the ECU's function (e.g. propulsion cut)."""
        if self._operational:
            self._operational = False
            self.log_event("disabled", reason)

    def enable(self, reason: str = "") -> None:
        """Re-enable the ECU's function."""
        if not self._operational:
            self._operational = True
            self.log_event("enabled", reason)

    @property
    def firmware_compromised(self) -> bool:
        """Whether this ECU's firmware is under attacker control."""
        return self.node.firmware_compromised

    def compromise_firmware(self) -> None:
        """Model a firmware-modification attack on this ECU."""
        self.node.compromise_firmware()
        self.log_event("firmware-compromised", "software filters bypassed")

    def restore_firmware(self) -> None:
        """Model reflashing clean firmware."""
        self.node.restore_firmware()
        self.log_event("firmware-restored", "software filters restored")

    # -- event log ----------------------------------------------------------------------

    def log_event(self, kind: str, detail: str = "") -> EcuEvent:
        """Append an application event (timestamped with simulation time)."""
        time = self.node.bus.scheduler.now if self.node.bus is not None else 0.0
        event = EcuEvent(time=time, kind=kind, detail=detail)
        self.events.append(event)
        return event

    def events_of_kind(self, kind: str) -> list[EcuEvent]:
        """All logged events of the given kind."""
        return [e for e in self.events if e.kind == kind]

    # -- messaging ------------------------------------------------------------------------

    def send_message(self, message_name: str, data: bytes = b"") -> bool:
        """Send the named catalogue message from this ECU.

        Returns ``True`` when the frame made it onto the bus.
        """
        message = self.catalog.by_name(message_name)
        frame = message.frame(data=data, source=self.name)
        return self.node.send(frame)

    def send_raw(self, can_id: int, data: bytes = b"") -> bool:
        """Send an arbitrary frame (used by compromised-firmware behaviour)."""
        return self.node.send(CANFrame(can_id=can_id, data=data, source=self.name))

    def _dispatch(self, frame: CANFrame) -> None:
        """Dispatch a received frame to registered handlers."""
        handlers = self._handlers.get(frame.can_id)
        if handlers is not None:
            for handler in handlers:
                handler(frame)
        if self._dispatches_handle_frame:
            self.handle_frame(frame)

    def handle_frame(self, frame: CANFrame) -> None:
        """Hook for subclasses: called for every frame that reaches the application."""

    # -- periodic behaviour ------------------------------------------------------------------

    def start_periodic_broadcasts(self) -> None:
        """Schedule this ECU's periodic catalogue messages on the bus scheduler.

        Every periodic message this node produces is broadcast at its
        catalogue period with a small payload; subclasses may override
        :meth:`periodic_payload` to provide realistic data.
        """
        if self.node.bus is None:
            raise RuntimeError(f"{self.name} must be attached to a bus first")
        schedule = self._periodic_schedule
        if schedule is None:
            # Resolved once per ECU: a pooled car's reset re-schedules
            # the same series without rescanning the catalogue.
            schedule = self._periodic_schedule = tuple(
                (
                    message.period_ms / 1000.0,
                    partial(self._periodic_send_message, message),
                    f"{self.name}:{message.name}",
                )
                for message in self.catalog.produced_by(self.name)
                if message.period_ms is not None
            )
        schedule_periodic = self.node.bus.scheduler.schedule_periodic
        for period, callback, label in schedule:
            schedule_periodic(period, callback, label=label)

    def _periodic_send(self, message_name: str) -> None:
        if not self._operational:
            return
        self.send_message(message_name, self.periodic_payload(message_name))

    def _periodic_send_message(self, message) -> None:
        """Per-tick periodic broadcast with the message pre-resolved."""
        if not self._operational:
            return
        self.node.send(message.frame(self.periodic_payload(message.name), self.name))

    def periodic_payload(self, message_name: str) -> bytes:
        """Payload for a periodic message (subclasses override for realism)."""
        return b"\x00"

    def __str__(self) -> str:
        return f"{type(self).__name__}({self.name}, operational={self._operational})"
