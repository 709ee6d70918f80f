"""CAN nodes.

A CAN node couples a transceiver, a controller and a processor running
application firmware (paper Fig. 3).  Nodes optionally carry a *policy
hook* -- the integration point for the hardware policy engine of
Fig. 4 -- which sits *below* the firmware: it checks frames after the
firmware has decided to send them and before the firmware gets to see
received ones, so it keeps filtering even when the firmware (and with
it the software filter banks) is compromised.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.can.controller import BUS_OFF_THRESHOLD, CANController
from repro.can.errors import BusOffError, NodeDetachedError
from repro.can.fanout import invalidate
from repro.can.frame import MAX_STANDARD_ID, CANFrame
from repro.can.trace import TraceEventKind
from repro.can.transceiver import CANTransceiver

#: Event-kind value string for the fused submit fast path.
_SUBMITTED_V = TraceEventKind.SUBMITTED.value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.bus import CANBus


@runtime_checkable
class PolicyHook(Protocol):
    """Interface of a policy engine attached to a node.

    The hardware policy engine (:class:`repro.hpe.engine.HardwarePolicyEngine`)
    implements this protocol; tests may use simple stand-ins.
    """

    def permit_write(self, frame: CANFrame) -> bool:
        """Whether the node may place *frame* onto the bus."""
        ...

    def permit_read(self, frame: CANFrame) -> bool:
        """Whether the node's application may consume *frame*."""
        ...


@dataclass
class ApplicationHooks:
    """Callbacks into the node's application firmware.

    Assigning a hook is a receive-state change for compiled fan-out
    plans (see :mod:`repro.can.fanout`).
    """

    on_receive: Callable[[CANFrame], None] | None = None
    on_send_blocked: Callable[[CANFrame, str], None] | None = None
    on_receive_blocked: Callable[[CANFrame, str], None] | None = None

    def __setattr__(self, name: str, value: object) -> None:
        invalidate()
        object.__setattr__(self, name, value)


@dataclass
class NodeCounters:
    """Per-node frame counters."""

    sent: int = 0
    received: int = 0
    send_blocked_by_policy: int = 0
    send_blocked_by_filter: int = 0
    receive_blocked_by_policy: int = 0
    receive_blocked_by_filter: int = 0
    dropped_bus_off: int = 0

    def total_blocked(self) -> int:
        """Total frames blocked in either direction by any mechanism."""
        return (
            self.send_blocked_by_policy
            + self.send_blocked_by_filter
            + self.receive_blocked_by_policy
            + self.receive_blocked_by_filter
        )


class CANNode:
    """A complete CAN node: transceiver + controller + application.

    Parameters
    ----------
    name:
        Unique node name on its bus, e.g. ``"EV-ECU"``.
    controller:
        Optional pre-configured controller (a default one is created
        otherwise).
    policy_engine:
        Optional :class:`PolicyHook` (e.g. a hardware policy engine).
    hooks:
        Optional application callbacks.
    inbox_limit:
        Optional retention bound for the application inbox.  ``None``
        (the default) keeps every received frame, today's behaviour;
        a positive bound keeps only the most recent frames (fleet-scale
        memory diet).  :meth:`received_ids` always covers the whole run
        regardless, via a compact parallel identifier log.

    Rebinding any attribute of a node (its policy engine, hooks,
    counters, inbox, ...) is a receive-state change for compiled
    fan-out plans (see :mod:`repro.can.fanout`).
    """

    def __init__(
        self,
        name: str,
        controller: CANController | None = None,
        policy_engine: PolicyHook | None = None,
        hooks: ApplicationHooks | None = None,
        inbox_limit: int | None = None,
    ) -> None:
        if not name.strip():
            raise ValueError("node name must be non-empty")
        self.name = name
        self.controller = controller if controller is not None else CANController(name)
        self.transceiver = CANTransceiver(name)
        self.policy_engine = policy_engine
        self.hooks = hooks if hooks is not None else ApplicationHooks()
        self.counters = NodeCounters()
        self.inbox: "list[CANFrame] | deque[CANFrame]" = []
        self._inbox_limit: int | None = None
        #: Identifiers of every frame that reached the application, in
        #: order -- an unsigned-int array, so bounding the inbox never
        #: changes :meth:`received_ids` semantics.
        self._received_id_log = array("L")
        self._bus: "CANBus | None" = None
        self._firmware_compromised = False
        if inbox_limit is not None:
            self.set_inbox_limit(inbox_limit)

    def __setattr__(self, name: str, value: object) -> None:
        invalidate()
        object.__setattr__(self, name, value)

    # -- wiring ---------------------------------------------------------------------

    @property
    def bus(self) -> "CANBus | None":
        """The bus the node is attached to, if any."""
        return self._bus

    def on_attached(self, bus: "CANBus") -> None:
        """Called by :meth:`repro.can.bus.CANBus.attach`."""
        self._bus = bus

    def on_detached(self) -> None:
        """Called by :meth:`repro.can.bus.CANBus.detach`.

        Clearing the back-reference makes a post-detach ``send()`` raise
        :class:`~repro.can.errors.NodeDetachedError` instead of tracing
        to (and transmitting on) the old bus.
        """
        self._bus = None

    # -- inbox retention ----------------------------------------------------------------

    @property
    def inbox_limit(self) -> int | None:
        """Maximum retained inbox frames (``None`` = unbounded)."""
        return self._inbox_limit

    def set_inbox_limit(self, limit: int | None) -> None:
        """Bound (or unbound) inbox retention, keeping the newest frames."""
        if limit is not None and limit <= 0:
            raise ValueError("inbox limit must be positive (or None for unbounded)")
        self._inbox_limit = limit
        if limit is None:
            self.inbox = list(self.inbox)
        else:
            self.inbox = deque(self.inbox, maxlen=limit)

    # -- pool reuse ---------------------------------------------------------------------

    def reset_for_reuse(self) -> None:
        """Restore the node to its just-built observable state.

        Counters, the inbox, the received-id log, the compromise flag
        and the controller/transceiver run state all clear; wiring
        (bus attachment, policy engine, hooks, inbox limit) is kept.
        """
        self.counters = NodeCounters()
        self.inbox.clear()
        del self._received_id_log[:]
        self._firmware_compromised = False
        self.controller.reset_for_reuse()
        self.transceiver.reset_for_reuse()

    # -- firmware compromise model -----------------------------------------------------

    @property
    def firmware_compromised(self) -> bool:
        """Whether the node's firmware is under attacker control."""
        return self._firmware_compromised

    def compromise_firmware(self) -> None:
        """Model a firmware-modification attack on this node.

        The software filter banks stop filtering; the policy hook (a
        hardware engine below the firmware) is unaffected.
        """
        self._firmware_compromised = True
        self.controller.compromise()

    def restore_firmware(self) -> None:
        """Model reflashing clean firmware."""
        self._firmware_compromised = False
        self.controller.restore()

    # -- transmit path ------------------------------------------------------------------

    def send(self, frame: CANFrame) -> bool:
        """Transmit *frame* from this node's application.

        Returns ``True`` when the frame made it onto the bus (i.e. past
        the software transmit gate and the policy engine), ``False`` when
        it was blocked or dropped.  The full path is traced on the bus.
        """
        bus = self._bus
        if bus is None:
            raise NodeDetachedError(f"node {self.name!r} is not attached to a bus")
        if frame.source != self.name:
            frame = frame.with_source(self.name)
        trace = bus.trace
        can_id = frame.can_id
        name = self.name
        if trace._records is None:
            # Counters-only retention: no record object, no timestamp.
            trace.count_only(_SUBMITTED_V, name, can_id)
        else:
            trace.record(bus.scheduler.now, TraceEventKind.SUBMITTED, frame, node=name)

        # 1. Software transmit gate (firmware-level; bypassed when
        #    compromised).  The compiled acceptance bitset, when present,
        #    answers standard-id checks with one probe; everything else
        #    goes through the filter bank's bucket scan.
        controller = self.controller
        if controller._tx_error_counter >= BUS_OFF_THRESHOLD:
            self.counters.dropped_bus_off += 1
            bus.record_block(
                frame, self.name, TraceEventKind.DROPPED_BUS_OFF, "controller bus-off"
            )
            return False
        tx_filters = controller.tx_filters
        tx_mask = tx_filters._accept_mask
        if tx_filters._compromised or (
            tx_mask[can_id >> 3] >> (can_id & 7) & 1
            if tx_mask is not None and can_id <= MAX_STANDARD_ID
            else tx_filters.accepts_id(can_id)
        ):
            software_permits = True
        else:
            software_permits = False
        if not software_permits:
            self.counters.send_blocked_by_filter += 1
            bus.record_block(
                frame,
                self.name,
                TraceEventKind.BLOCKED_WRITE_FILTER,
                "software transmit filter",
            )
            if self.hooks.on_send_blocked is not None:
                self.hooks.on_send_blocked(frame, "software-filter")
            return False

        # 2. Policy engine write filter (below firmware; survives compromise).
        if self.policy_engine is not None and not self.policy_engine.permit_write(frame):
            self.counters.send_blocked_by_policy += 1
            bus.record_block(
                frame,
                self.name,
                TraceEventKind.BLOCKED_WRITE_POLICY,
                "policy engine write filter",
            )
            if self.hooks.on_send_blocked is not None:
                self.hooks.on_send_blocked(frame, "policy-engine")
            return False

        # 3. Onto the wire (transceiver inlined: one counter and the
        #    bus submission; standby still drops the frame silently).
        self.counters.sent += 1
        transceiver = self.transceiver
        if transceiver._enabled:
            transceiver.frames_sent += 1
            bus.submit(frame, self.name)
        return True

    # -- receive path ---------------------------------------------------------------------

    def wire_receive(self, frame: CANFrame) -> bool:
        """Handle a frame arriving from the bus.

        Returns ``True`` when the frame reached the application.
        """
        if self._bus is None:
            return False

        # 1. Policy engine read filter (below firmware).
        if self.policy_engine is not None and not self.policy_engine.permit_read(frame):
            self.counters.receive_blocked_by_policy += 1
            self._bus.record_block(
                frame,
                self.name,
                TraceEventKind.BLOCKED_READ_POLICY,
                "policy engine read filter",
            )
            if self.hooks.on_receive_blocked is not None:
                self.hooks.on_receive_blocked(frame, "policy-engine")
            return False

        # 2. Software acceptance filter (firmware-level; bypassed when compromised).
        if not self.controller.check_receive(frame):
            self.counters.receive_blocked_by_filter += 1
            self._bus.record_block(
                frame,
                self.name,
                TraceEventKind.BLOCKED_READ_FILTER,
                "software acceptance filter",
            )
            if self.hooks.on_receive_blocked is not None:
                self.hooks.on_receive_blocked(frame, "software-filter")
            return False

        # 3. Up to the application.
        self.counters.received += 1
        self.inbox.append(frame)
        self._received_id_log.append(frame.can_id)
        self._bus.record_delivery(frame, self.name)
        if self.hooks.on_receive is not None:
            self.hooks.on_receive(frame)
        return True

    # -- convenience -----------------------------------------------------------------------

    def received_ids(self) -> list[int]:
        """Identifiers of all frames that reached the application, in order.

        Served from the parallel id log, so it covers the whole run even
        when :attr:`inbox_limit` bounds how many frames are retained.
        """
        return list(self._received_id_log)

    def recent_frames(self, count: int) -> list[CANFrame]:
        """The most recent *count* retained inbox frames, oldest first."""
        if count <= 0:
            return []
        if isinstance(self.inbox, deque):
            inbox = self.inbox
            if count >= len(inbox):
                return list(inbox)
            return [inbox[i] for i in range(len(inbox) - count, len(inbox))]
        return list(self.inbox[-count:])

    def clear_inbox(self) -> None:
        """Drop all received frames (and the received-id log)."""
        self.inbox.clear()
        del self._received_id_log[:]

    def __str__(self) -> str:
        policy = type(self.policy_engine).__name__ if self.policy_engine else "none"
        return f"CANNode({self.name}, policy={policy}, compromised={self._firmware_compromised})"
