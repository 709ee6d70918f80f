"""The shared CAN bus.

CAN is a multi-drop, multi-master broadcast bus: every attached node
sees every frame, and when several nodes want to transmit at once the
frame with the numerically lowest identifier wins arbitration (paper
Section V).  This model reproduces those semantics on top of the
discrete-event scheduler: submitted frames queue for arbitration, the
bus is occupied for the frame's transmission time, and completed frames
are broadcast to every attached node except the sender.

Arbitration is a binary heap keyed on ``(priority, submission
sequence)``: winning the bus costs O(log n) in the number of pending
frames, so a flood storm of n frames costs O(n log n) total instead of
the O(n^2 log n) a re-sort per transmission would pay.  The pop order is
bit-identical to sorting the pending list, because the key is unique
(the submission sequence breaks every tie).

Delivery at COUNTERS retention is compiled the way the paper compiles
policy: the receive fan-out of a ``(sender, can_id)`` is fixed between
receive-state changes, so the first frame records it as a
:class:`FanoutPlan` and later frames only do their per-frame work and
bump a tally (see :mod:`repro.can.fanout` for the epoch and when
tallies are expanded).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.can import fanout as _fanout
from repro.can.fanout import pending as _pending_tallies
from repro.can.frame import MAX_STANDARD_ID, CANFrame, FrameKind
from repro.can.scheduler import EventScheduler
from repro.can.trace import DEFAULT_RING_SIZE, BusTrace, TraceEventKind, TraceLevel

#: Event-kind value strings for the fused delivery loop (string keys hash
#: through cached C-level hashes; enum hashing is a Python-level call).
_TRANSMITTED_V = TraceEventKind.TRANSMITTED.value
_DELIVERED_V = TraceEventKind.DELIVERED.value
_BLOCKED_READ_POLICY_V = TraceEventKind.BLOCKED_READ_POLICY.value
_BLOCKED_READ_FILTER_V = TraceEventKind.BLOCKED_READ_FILTER.value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.can.node import CANNode

#: Default CAN bitrate (500 kbit/s, typical for powertrain buses).
DEFAULT_BITRATE_BPS = 500_000


@dataclass
class BusStatistics:
    """Aggregate counters for one bus."""

    frames_submitted: int = 0
    frames_transmitted: int = 0
    frames_delivered: int = 0
    arbitration_conflicts: int = 0
    busy_time: float = 0.0

    def utilisation(self, elapsed: float) -> float:
        """Fraction of *elapsed* simulation time the bus was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


#: Plan-cache marker for a ``(sender, can_id)`` whose frames need
#: per-frame decisions under the current epoch: they keep the fused loop.
_FUSED = object()


class FanoutPlan:
    """The compiled receive fan-out of one ``(sender, can_id)`` on one bus.

    Compiled by the first frame under the current receive-state epoch
    (see :mod:`repro.can.fanout`), which runs the fused delivery loop
    and records two things: the per-frame work of every receiver the
    frame reaches (inbox append, id-log append, ``on_receive`` hook) and
    every receiver's outcome, from which its counter deltas follow.  A
    later frame does the per-frame work and counts itself in :attr:`n`;
    :meth:`expand` adds ``n`` frames' worth of deltas to the trace, bus,
    node, controller, transceiver and decision-block counters.

    A frame's deltas are a sequence of *entries*: entry 0 is the
    transmission, entry ``i`` is ``receivers[i - 1]``.
    """

    __slots__ = (
        "bus", "sender", "sender_node", "can_id", "receivers", "work", "n", "open", "head", "done",
    )

    def __init__(
        self, bus: "CANBus", sender: str, sender_node: "CANNode | None", can_id: int
    ) -> None:
        self.bus = bus
        self.sender = sender
        self.sender_node = sender_node
        self.can_id = can_id
        #: Every receiver in delivery order: ``(node, value, transceiver,
        #: controller, counters, read decision block, trace per-node
        #: counts)``, where *value* is the event-kind value of its
        #: outcome (``None``: transceiver in standby, no effect) and the
        #: parts it does not move are ``None``.
        self.receivers: list[tuple] = []
        #: ``(entry, hooks, inbox.append, id_log.append)`` per receiver
        #: the frame reaches, in delivery order.
        self.work: list[tuple] = []
        #: Whole frames served since the last expansion.
        self.n = 0
        #: While a planned frame is being delivered: entries it has
        #: handled (``head``) and entries a mid-frame settle already
        #: expanded (``done``).
        self.open = False
        self.head = 0
        self.done = 0

    def expand(self) -> None:
        """Add every frame served since the last expansion to the counters."""
        n = self.n
        if n:
            self.n = 0
            self.apply(n)
            self.bus.fanout_planned_frames += n
        if self.open and self.head > self.done:
            self.apply(1, self.done, self.head)
            self.done = self.head

    def apply(self, n: int, start: int = 0, stop: int | None = None) -> None:
        """Add *n* frames' worth of the deltas of ``entries[start:stop]``.

        The same arithmetic as the fused loop in
        :meth:`CANBus._fan_out`, multiplied out -- except the decision
        latency, which takes *n* repeated additions so accumulated
        floats stay bit-identical to per-frame accumulation.
        """
        bus = self.bus
        trace = bus.trace
        statistics = bus.statistics
        kind_counts = trace._kind_counts
        id_counts = trace._id_counts[self.can_id]
        events = 0
        if start == 0:
            statistics.frames_transmitted += n
            kind_counts[_TRANSMITTED_V] += n
            trace._node_counts[self.sender][_TRANSMITTED_V] += n
            id_counts[_TRANSMITTED_V] += n
            events = n
            start = 1
        delivered = filtered = policed = 0
        receivers = self.receivers
        for _, value, transceiver, controller, counters, block, per_node in receivers[
            start - 1 : len(receivers) if stop is None else stop - 1
        ]:
            if value is None:
                continue
            transceiver.frames_received += n
            if block is not None:
                block.decisions_made += n
                total, latency = block.total_latency_s, block.latency_s
                for _ in range(n):
                    total += latency
                block.total_latency_s = total
                if value is _BLOCKED_READ_POLICY_V:
                    block.blocks += n
                else:
                    block.grants += n
            if value is _DELIVERED_V:
                controller.frames_accepted += n
                counters.received += n
                delivered += n
            elif value is _BLOCKED_READ_FILTER_V:
                controller.frames_rejected += n
                counters.receive_blocked_by_filter += n
                filtered += n
            else:
                counters.receive_blocked_by_policy += n
                policed += n
            per_node[value] += n
        for value, count in (
            (_DELIVERED_V, delivered),
            (_BLOCKED_READ_FILTER_V, filtered),
            (_BLOCKED_READ_POLICY_V, policed),
        ):
            if count:
                kind_counts[value] += count
                id_counts[value] += count
        trace._total += events + delivered + filtered + policed
        trace._blocked += filtered + policed
        statistics.frames_delivered += delivered


class CANBus:
    """A shared broadcast CAN bus with priority arbitration.

    Parameters
    ----------
    scheduler:
        The discrete-event scheduler driving the simulation.
    bitrate_bps:
        Bus bitrate used to convert frame bit lengths into bus-occupancy
        time.
    name:
        Diagnostic name of the bus (a vehicle may have several).
    trace_level:
        Trace retention level (see :class:`repro.can.trace.TraceLevel`);
        fleet-scale runs use ``RING`` or ``COUNTERS`` for O(1) memory.
    trace_ring_size:
        Window size when ``trace_level`` is ``RING``.

    The per-delivery counter arithmetic (trace, bus statistics, node,
    controller, transceiver and HPE decision-block counters) lives in
    three places that must agree: :meth:`BusTrace.count_only` /
    :meth:`BusTrace.record` with :meth:`CANNode.wire_receive
    <repro.can.node.CANNode.wire_receive>` (the object path), the fused
    loop :meth:`_fan_out`, and :meth:`FanoutPlan.apply` (a plan's
    frames multiplied out).  FULL and RING traces, extended ids,
    receivers whose engine has no compiled table, receivers with an
    ``on_receive_blocked`` hook and receivers with a nonzero receive
    error counter keep the per-frame paths.
    """

    def __init__(
        self,
        scheduler: EventScheduler | None = None,
        bitrate_bps: int = DEFAULT_BITRATE_BPS,
        name: str = "can0",
        trace_level: TraceLevel | str = TraceLevel.FULL,
        trace_ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.bitrate_bps = bitrate_bps
        self.name = name
        self.trace = BusTrace(level=trace_level, ring_size=trace_ring_size)
        self.statistics = BusStatistics()
        self._nodes: dict[str, "CANNode"] = {}
        #: Arbitration heap of ``(priority, sequence, frame, sender)``.
        self._pending: list[tuple[int, int, CANFrame, str]] = []
        self._submission_sequence = 0
        self._busy = False
        self._in_flight: tuple[int, int, CANFrame, str] | None = None
        #: Transmission-time memo for standard DATA frames, keyed by
        #: payload length (the only property their duration depends
        #: on); other frame kinds compute their duration directly.
        self._tx_time_cache: dict[int, float] = {}
        #: Receive fan-out plans compiled under epoch ``_plans_epoch``,
        #: keyed by ``(sender, can_id)`` (see :class:`FanoutPlan`).
        self._plans: dict[tuple[str, int], FanoutPlan | object] = {}
        self._plans_epoch = -1
        #: Fan-out telemetry since the last reset: plans compiled, frames
        #: served by a plan, and frames that ran the fused loop.
        self.fanout_plans = 0
        self.fanout_planned_frames = 0
        self.fanout_fused_frames = 0

    # -- topology ------------------------------------------------------------------

    def attach(self, node: "CANNode") -> None:
        """Attach *node* to the bus (names must be unique per bus)."""
        if node.name in self._nodes:
            raise ValueError(f"a node named {node.name!r} is already attached to {self.name}")
        _fanout.invalidate()
        self._nodes[node.name] = node
        node.transceiver.attach(self, node)
        node.on_attached(self)

    def detach(self, node_name: str) -> None:
        """Detach the named node from the bus.

        Clears the node's back-reference too, so a detached node's
        ``send()`` raises ``NodeDetachedError`` instead of silently
        tracing to (and transmitting on) its former bus.
        """
        if node_name not in self._nodes:
            raise KeyError(f"no node named {node_name!r} attached to {self.name}")
        _fanout.invalidate()
        node = self._nodes.pop(node_name)
        node.transceiver.detach()
        node.on_detached()

    @property
    def nodes(self) -> list["CANNode"]:
        """Attached nodes, in attachment order."""
        return list(self._nodes.values())

    def node(self, name: str) -> "CANNode":
        """Return the attached node with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} attached to {self.name}") from None

    def node_names(self) -> list[str]:
        """Names of attached nodes."""
        return list(self._nodes)

    # -- data path ------------------------------------------------------------------

    def submit(self, frame: CANFrame, sender: str) -> None:
        """Queue *frame* from *sender* for arbitration and transmission."""
        self.statistics.frames_submitted += 1
        self._submission_sequence += 1
        heapq.heappush(
            self._pending, (frame.priority, self._submission_sequence, frame, sender)
        )
        if len(self._pending) > 1:
            self.statistics.arbitration_conflicts += 1
        if not self._busy:
            self._start_next_transmission()

    def _start_next_transmission(self) -> None:
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        winner = heapq.heappop(self._pending)
        self._in_flight = winner
        frame = winner[2]
        # Duration depends only on (kind, extended, dlc); the common
        # standard data frame is memoised by payload length alone.
        if frame.kind is FrameKind.DATA and not frame.extended:
            time_key = len(frame.data)
            duration = self._tx_time_cache.get(time_key)
            if duration is None:
                duration = self._tx_time_cache[time_key] = frame.transmission_time(
                    self.bitrate_bps
                )
        else:
            duration = frame.transmission_time(self.bitrate_bps)
        self.statistics.busy_time += duration
        # Only one frame occupies the wire at a time, so the winner rides
        # on the bus itself rather than in a per-transmission closure.
        # (Inline of EventScheduler.schedule_fast.)
        scheduler = self.scheduler
        heapq.heappush(
            scheduler._queue,
            (scheduler._now + duration, next(scheduler._sequence), self._complete_transmission),
        )

    def _complete_transmission(self) -> None:
        pending = self._in_flight
        self._in_flight = None
        if pending is None:  # pragma: no cover - scheduler cleared mid-flight
            self._busy = False
            return
        frame, sender = pending[2], pending[3]
        can_id = frame.can_id
        if self.trace._records is None and can_id <= MAX_STANDARD_ID:
            # Counters-only retention, standard id: serve the frame from
            # its (sender, id) plan, compiling one on the first frame
            # under the current receive-state epoch.
            epoch = _fanout.epoch
            plans = self._plans
            if self._plans_epoch != epoch:
                plans.clear()
                self._plans_epoch = epoch
            key = (sender, can_id)
            plan = plans.get(key)
            if plan is None:
                plan = self._deliver(frame, sender, compile=True)
                if plan is None:
                    plans[key] = _FUSED
                else:
                    plans[key] = plan
                    self.fanout_plans += 1
            elif plan is _FUSED:
                self._deliver(frame, sender)
            else:
                sender_node = plan.sender_node
                if sender_node is not None:
                    sender_node.controller.record_tx_success()
                if not plan.n:
                    _pending_tallies.append(plan)
                plan.open = True
                plan.head = plan.done = 0
                for entry, hooks, inbox_append, id_log_append in plan.work:
                    inbox_append(frame)
                    id_log_append(can_id)
                    hook = hooks.on_receive
                    if hook is not None:
                        plan.head = entry + 1
                        hook(frame)
                        if _fanout.epoch != epoch:
                            # The hook changed receive state.  Settling
                            # (inside the mutator) expanded this frame
                            # up to and including this receiver; the
                            # rest see the new state.
                            plan.open = False
                            self.fanout_fused_frames += 1
                            rest = [receiver[0] for receiver in plan.receivers[entry:]]
                            self._fan_out(frame, rest, None, None)
                            break
                else:
                    plan.open = False
                    if plan.done:
                        # A query settled part of this frame mid-delivery.
                        plan.apply(1, plan.done)
                        self.fanout_planned_frames += 1
                    else:
                        plan.n += 1
        else:
            self._deliver(frame, sender)
        self._busy = False
        if self._pending:
            self._start_next_transmission()

    def _deliver(
        self, frame: CANFrame, sender: str, compile: bool = False
    ) -> FanoutPlan | None:
        """Deliver *frame* the unplanned way: count it, then fan it out.

        With ``compile=True`` the fused loop also records what it did
        and the frame's :class:`FanoutPlan` is returned -- unless some
        receiver needs per-frame decisions, which returns ``None``.
        """
        self.statistics.frames_transmitted += 1
        trace = self.trace
        if trace._records is None:
            trace.count_only(_TRANSMITTED_V, sender, frame.can_id)
        else:
            trace.record(self.scheduler.now, TraceEventKind.TRANSMITTED, frame, node=sender)
        sender_node = self._nodes.get(sender)
        if sender_node is not None:
            sender_node.controller.record_tx_success()
        self.fanout_fused_frames += 1
        plan = FanoutPlan(self, sender, sender_node, frame.can_id) if compile else None
        if not self._fan_out(frame, self._nodes.values(), sender_node, plan):
            return None
        return plan

    def _fan_out(
        self,
        frame: CANFrame,
        nodes: Iterable["CANNode"],
        skip: "CANNode | None",
        plan: "FanoutPlan | None",
    ) -> bool:
        """Deliver *frame* to every node of *nodes* except *skip*.

        When a receiver's policy engine holds a compiled decision table
        (see :mod:`repro.core.compiled`) and the trace is counters-only,
        the whole receive path -- transceiver, permit probe, software
        acceptance filter, per-node/per-id trace counters -- runs fused
        in this loop: the enforcement decision is one bitmask probe and
        no per-delivery call chain is built.  Counter effects are
        bit-identical to the object path
        (:meth:`repro.can.node.CANNode.wire_receive`), which remains the
        authoritative fallback for everything else.

        With a *plan* given, every receiver's outcome and every delivered
        receiver's per-frame work is recorded into it.  Returns whether
        the frame can be planned: ``False`` when some receiver took the
        object path, has an ``on_receive_blocked`` hook to call, or
        moved its receive error counter.
        """
        trace = self.trace
        statistics = self.statistics
        can_id = frame.can_id
        fuse = trace._records is None and can_id <= MAX_STANDARD_ID
        kind_counts = trace._kind_counts
        node_counts = trace._node_counts
        all_id_counts = trace._id_counts
        byte_index = can_id >> 3
        bit = 1 << (can_id & 7)
        plannable = True
        for node in nodes:
            if node is skip:
                continue
            transceiver = node.transceiver
            if not transceiver._enabled:
                if plan is not None:
                    plan.receivers.append((node, None, None, None, None, None, None))
                continue
            transceiver.frames_received += 1
            if not fuse:
                node.wire_receive(frame)
                continue
            engine = node.policy_engine
            blocked_reason = None
            controller = block = None
            if engine is None:
                permitted = True
            else:
                try:
                    mask = engine._compiled_read_mask
                except AttributeError:  # non-HPE policy hook (test stand-ins)
                    mask = None
                if mask is None:
                    node.wire_receive(frame)
                    plannable = False
                    continue
                block = engine._read_block
                block.decisions_made += 1
                block.total_latency_s += block.latency_s
                permitted = bool(mask[byte_index] & bit)
                if permitted:
                    block.grants += 1
            if permitted:
                controller = node.controller
                rx_filters = controller.rx_filters
                accept_mask = rx_filters._accept_mask
                if rx_filters._compromised or (
                    accept_mask[byte_index] & bit
                    if accept_mask is not None
                    else rx_filters.accepts_id(can_id)
                ):
                    controller.frames_accepted += 1
                    if controller._rx_error_counter > 0:
                        controller._rx_error_counter -= 1
                        plannable = False
                    counters = node.counters
                    counters.received += 1
                    inbox, id_log = node.inbox, node._received_id_log
                    inbox.append(frame)
                    id_log.append(can_id)
                    statistics.frames_delivered += 1
                    value = _DELIVERED_V
                    hooks = node.hooks
                    hook = hooks.on_receive
                    if plan is not None:
                        plan.work.append(
                            (len(plan.receivers) + 1, hooks, inbox.append, id_log.append)
                        )
                else:
                    controller.frames_rejected += 1
                    counters = node.counters
                    counters.receive_blocked_by_filter += 1
                    trace._blocked += 1
                    value = _BLOCKED_READ_FILTER_V
                    hook = node.hooks.on_receive_blocked
                    blocked_reason = "software-filter"
            else:
                block.blocks += 1
                counters = node.counters
                counters.receive_blocked_by_policy += 1
                trace._blocked += 1
                value = _BLOCKED_READ_POLICY_V
                hook = node.hooks.on_receive_blocked
                blocked_reason = "policy-engine"
            trace._total += 1
            kind_counts[value] = kind_counts.get(value, 0) + 1
            per_node = node_counts.get(node.name)
            if per_node is None:
                per_node = node_counts[node.name] = {}
            per_node[value] = per_node.get(value, 0) + 1
            # Looked up per event, like the per-node counts: a receive
            # hook may have cleared the trace since the last receiver.
            id_counts = all_id_counts.get(can_id)
            if id_counts is None:
                id_counts = all_id_counts[can_id] = {}
            id_counts[value] = id_counts.get(value, 0) + 1
            if plan is not None:
                plan.receivers.append(
                    (node, value, transceiver, controller, counters, block, per_node)
                )
            if hook is not None:
                if blocked_reason is None:
                    hook(frame)
                else:
                    plannable = False
                    hook(frame, blocked_reason)
        return plannable

    def reset(self) -> None:
        """Restore the bus data path to its just-built state.

        Attached nodes stay attached (the caller detaches any rogue
        nodes first); statistics, the trace, the arbitration heap and
        the submission sequence all restart from zero.  The scheduler is
        deliberately not touched -- it may be externally owned; callers
        reset it separately.
        """
        _fanout.invalidate()
        self._plans.clear()
        self.fanout_plans = self.fanout_planned_frames = self.fanout_fused_frames = 0
        self.trace.clear()
        self.statistics = BusStatistics()
        self._pending.clear()
        self._submission_sequence = 0
        self._busy = False
        self._in_flight = None

    def record_delivery(self, frame: CANFrame, node: str) -> None:
        """Record that *frame* reached the application on *node*."""
        self.statistics.frames_delivered += 1
        # _now: bypass the property on the per-delivery fast path.
        self.trace.record(self.scheduler._now, TraceEventKind.DELIVERED, frame, node=node)

    def record_block(
        self, frame: CANFrame, node: str, kind: TraceEventKind, detail: str = ""
    ) -> None:
        """Record that *frame* was blocked at *node* for the given reason."""
        self.trace.record(self.scheduler._now, kind, frame, node=node, detail=detail)

    # -- convenience -------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by *duration* seconds."""
        self.scheduler.run(until=self.scheduler.now + duration)

    def run_until_idle(self, max_events: int = 100_000) -> None:
        """Run until no events remain (bounded by *max_events*)."""
        self.scheduler.run(max_events=max_events)

    def broadcast_reach(self, sender: str) -> Iterable[str]:
        """Names of nodes that would see a frame sent by *sender*."""
        return [name for name in self._nodes if name != sender]
