"""Bus activity trace.

Every interesting event on the bus (submission, transmission, delivery,
rejection by software filter, rejection by policy engine, error) is
*counted* -- and, depending on the trace's retention level, also
recorded as a :class:`TraceRecord`.  The analysis layer
(:mod:`repro.analysis.metrics`) computes attack-success and
policy-effectiveness metrics from these traces.

Retention levels
----------------

At fleet scale the per-frame record objects dominate memory and
allocation cost, so :class:`BusTrace` keeps *always-on O(1) aggregate
counters* (total, per event kind, per node, per frame identifier) and
makes the record list itself optional:

* :attr:`TraceLevel.FULL` -- every record is kept (the single-vehicle
  debugging default; today's historical behaviour).
* :attr:`TraceLevel.RING` -- only the most recent ``ring_size`` records
  are kept in a bounded deque; counters still cover the whole run.
* :attr:`TraceLevel.COUNTERS` -- no record objects are allocated at
  all; every count-based query still works, bit-identically.

All count-based queries (:meth:`BusTrace.count`, :meth:`~BusTrace.summary`,
:meth:`~BusTrace.blocked_count`, :meth:`~BusTrace.count_for_node`,
:meth:`~BusTrace.count_for_frame_id`, ``len(trace)``) are served from
the counters and therefore agree exactly across all three levels.
Record-returning queries (:meth:`~BusTrace.of_kind`, ...) see only the
retained window.  At COUNTERS retention a bus may hold frames' counts
as pending fan-out tallies (see :mod:`repro.can.fanout`); every count
query, :meth:`~BusTrace.export_metrics`, :meth:`~BusTrace.merge` and
:meth:`~BusTrace.clear` expands them first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from repro.can import fanout as _fanout
from repro.can.frame import CANFrame

#: Default bounded-retention window for :attr:`TraceLevel.RING`.
DEFAULT_RING_SIZE = 4096


class TraceEventKind(Enum):
    """What happened to a frame at a point in its life."""

    SUBMITTED = "submitted"              # application handed frame to its node
    BLOCKED_WRITE_POLICY = "blocked-write-policy"    # outbound policy engine rejected
    BLOCKED_WRITE_FILTER = "blocked-write-filter"    # outbound software filter rejected
    TRANSMITTED = "transmitted"          # frame won arbitration and went on the wire
    DELIVERED = "delivered"              # frame accepted by a receiving node's stack
    BLOCKED_READ_POLICY = "blocked-read-policy"      # inbound policy engine rejected
    BLOCKED_READ_FILTER = "blocked-read-filter"      # inbound software filter rejected
    DROPPED_BUS_OFF = "dropped-bus-off"  # transmitter was bus-off
    ERROR = "error"                      # transmission error on the wire

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The event kinds that represent a frame being blocked by a filter or
#: policy engine in either direction.
BLOCKED_KINDS = frozenset(
    {
        TraceEventKind.BLOCKED_WRITE_POLICY,
        TraceEventKind.BLOCKED_WRITE_FILTER,
        TraceEventKind.BLOCKED_READ_POLICY,
        TraceEventKind.BLOCKED_READ_FILTER,
    }
)

#: String values of :data:`BLOCKED_KINDS` -- the counter fast path keys
#: on value strings because ``Enum.__hash__`` is a Python-level call.
_BLOCKED_VALUES = frozenset(kind.value for kind in BLOCKED_KINDS)


class TraceLevel(Enum):
    """How much per-event state a :class:`BusTrace` retains."""

    FULL = "full"          # unbounded record list (plus counters)
    RING = "ring"          # bounded deque of the last N records (plus counters)
    COUNTERS = "counters"  # counters only; no record objects at all

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a :class:`TraceLevel` or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown trace level {value!r}; known: {[level.value for level in cls]}"
            ) from None


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    kind: TraceEventKind
    frame: CANFrame
    node: str = ""
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.kind.value:<22} {self.node:<16} {self.frame}"


class BusTrace:
    """An append-only event trace with always-on O(1) aggregate counters.

    Parameters
    ----------
    level:
        Retention level (see :class:`TraceLevel`); also accepts the
        level's string value.
    ring_size:
        Window size for :attr:`TraceLevel.RING` retention.
    """

    def __init__(
        self,
        level: TraceLevel | str = TraceLevel.FULL,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        level = TraceLevel.coerce(level)
        if ring_size <= 0:
            raise ValueError("ring size must be positive")
        self.level = level
        self.ring_size = ring_size
        if level is TraceLevel.FULL:
            self._records: list[TraceRecord] | deque[TraceRecord] | None = []
        elif level is TraceLevel.RING:
            self._records = deque(maxlen=ring_size)
        else:
            self._records = None
        self._total = 0
        # All counter dicts key on TraceEventKind *values* (strings):
        # string hashes are cached C-level, enum hashing is a Python
        # call -- a 2x difference on the record() fast path.
        self._kind_counts: dict[str, int] = {}
        self._node_counts: dict[str, dict[str, int]] = {}
        self._id_counts: dict[int, dict[str, int]] = {}
        self._blocked = 0

    def record(
        self,
        time: float,
        kind: TraceEventKind,
        frame: CANFrame,
        node: str = "",
        detail: str = "",
    ) -> TraceRecord | None:
        """Count the event and, at FULL/RING retention, append a record.

        Returns the appended :class:`TraceRecord`, or ``None`` at
        :attr:`TraceLevel.COUNTERS` (no record object exists).
        """
        self._total += 1
        value = kind._value_  # bypass the DynamicClassAttribute property
        kind_counts = self._kind_counts
        kind_counts[value] = kind_counts.get(value, 0) + 1
        node_counts = self._node_counts.get(node)
        if node_counts is None:
            node_counts = self._node_counts[node] = {}
        node_counts[value] = node_counts.get(value, 0) + 1
        can_id = frame.can_id
        id_counts = self._id_counts.get(can_id)
        if id_counts is None:
            id_counts = self._id_counts[can_id] = {}
        id_counts[value] = id_counts.get(value, 0) + 1
        if value in _BLOCKED_VALUES:
            self._blocked += 1
        if self._records is None:
            return None
        entry = TraceRecord(time=time, kind=kind, frame=frame, node=node, detail=detail)
        self._records.append(entry)
        return entry

    def count_only(self, value: str, node: str, can_id: int) -> None:
        """Counter-only recording for the fused fleet data path.

        Identical counter effects to :meth:`record` for the event-kind
        *value* string, without the record-retention branch -- callers
        must only use it at COUNTERS retention (``_records is None``),
        where :meth:`record` would not retain a record either, so every
        count-based query stays bit-identical.

        The same arithmetic lives in three places, and a change to one
        must be mirrored in the other two: here (with :meth:`record`),
        inlined per receiver in the fused delivery loop
        :meth:`repro.can.bus.CANBus._fan_out` (including the blocked
        tally for the kinds in :data:`BLOCKED_KINDS`), and multiplied
        out over a plan's frames in
        :meth:`repro.can.bus.FanoutPlan.apply`.
        """
        self._total += 1
        kind_counts = self._kind_counts
        kind_counts[value] = kind_counts.get(value, 0) + 1
        node_counts = self._node_counts.get(node)
        if node_counts is None:
            node_counts = self._node_counts[node] = {}
        node_counts[value] = node_counts.get(value, 0) + 1
        id_counts = self._id_counts.get(can_id)
        if id_counts is None:
            id_counts = self._id_counts[can_id] = {}
        id_counts[value] = id_counts.get(value, 0) + 1
        if value in _BLOCKED_VALUES:
            self._blocked += 1

    # -- collection protocol ---------------------------------------------------

    def __len__(self) -> int:
        """Total events ever recorded (identical across retention levels)."""
        _fanout.settle()
        return self._total

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the *retained* records (empty at COUNTERS level)."""
        return iter(self._records if self._records is not None else ())

    def __getitem__(self, index: int) -> TraceRecord:
        if self._records is None:
            raise IndexError("trace retains no records at COUNTERS level")
        return self._records[index]

    @property
    def records_retained(self) -> int:
        """Number of record objects currently held (<= ``len(trace)``)."""
        return len(self._records) if self._records is not None else 0

    def clear(self) -> None:
        """Drop all records and reset every counter.

        Pending fan-out tallies are expanded first (into the node and bus
        counters as well as this trace), then the trace restarts at zero.
        """
        _fanout.invalidate()
        if self._records is not None:
            self._records.clear()
        self._total = 0
        self._kind_counts.clear()
        self._node_counts.clear()
        self._id_counts.clear()
        self._blocked = 0

    # -- O(1) counter queries ---------------------------------------------------

    def count(self, kind: TraceEventKind) -> int:
        """Number of events of the given kind over the whole run."""
        _fanout.settle()
        return self._kind_counts.get(kind.value, 0)

    def blocked_count(self) -> int:
        """Events where a frame was blocked by a filter or policy."""
        _fanout.settle()
        return self._blocked

    def policy_block_count(self) -> int:
        """Frames blocked by a *policy engine* (either direction)."""
        _fanout.settle()
        counts = self._kind_counts
        return counts.get(TraceEventKind.BLOCKED_READ_POLICY.value, 0) + counts.get(
            TraceEventKind.BLOCKED_WRITE_POLICY.value, 0
        )

    def filter_block_count(self) -> int:
        """Frames blocked by a *software filter* (either direction)."""
        _fanout.settle()
        counts = self._kind_counts
        return counts.get(TraceEventKind.BLOCKED_READ_FILTER.value, 0) + counts.get(
            TraceEventKind.BLOCKED_WRITE_FILTER.value, 0
        )

    def count_for_node(self, node: str, kind: TraceEventKind | None = None) -> int:
        """Events attributed to *node*, optionally restricted to one kind."""
        _fanout.settle()
        node_counts = self._node_counts.get(node)
        if node_counts is None:
            return 0
        if kind is None:
            return sum(node_counts.values())
        return node_counts.get(kind.value, 0)

    def count_for_frame_id(self, can_id: int, kind: TraceEventKind | None = None) -> int:
        """Events concerning frames with *can_id*, optionally of one kind."""
        _fanout.settle()
        id_counts = self._id_counts.get(can_id)
        if id_counts is None:
            return 0
        if kind is None:
            return sum(id_counts.values())
        return id_counts.get(kind.value, 0)

    def summary(self) -> dict[str, int]:
        """Count of events per kind (only kinds that occurred).

        Keys appear in first-occurrence order, exactly as a scan over a
        FULL record list would produce.
        """
        _fanout.settle()
        return dict(self._kind_counts)

    # -- record queries (retained window only) ----------------------------------

    def of_kind(self, kind: TraceEventKind) -> list[TraceRecord]:
        """All retained records of the given kind."""
        return [r for r in (self._records or ()) if r.kind == kind]

    def for_frame_id(self, can_id: int) -> list[TraceRecord]:
        """All retained records concerning frames with the given identifier."""
        return [r for r in (self._records or ()) if r.frame.can_id == can_id]

    def for_node(self, node: str) -> list[TraceRecord]:
        """All retained records attributed to the given node."""
        return [r for r in (self._records or ()) if r.node == node]

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> list[TraceRecord]:
        """All retained records matching an arbitrary predicate."""
        return [r for r in (self._records or ()) if predicate(r)]

    def blocked(self) -> list[TraceRecord]:
        """All retained records where a frame was blocked.

        For a whole-run count that works at every retention level use
        :meth:`blocked_count`.
        """
        return [r for r in (self._records or ()) if r.kind in BLOCKED_KINDS]

    def delivered_to(self, node: str, can_id: int | None = None) -> list[TraceRecord]:
        """Retained delivery records for a node, optionally for one identifier."""
        return [
            r
            for r in (self._records or ())
            if r.kind == TraceEventKind.DELIVERED
            and r.node == node
            and (can_id is None or r.frame.can_id == can_id)
        ]

    def was_delivered(self, node: str, can_id: int) -> bool:
        """Whether any frame with *can_id* reached the application on *node*."""
        return bool(self.delivered_to(node, can_id))

    def export_metrics(self, registry, prefix: str = "bus.events.") -> None:
        """Fold this trace's whole-run counters into a metrics registry.

        One ``{prefix}{kind}`` counter per event kind that occurred,
        plus ``bus.events_total`` and ``bus.blocked_total`` -- served
        entirely from the always-on O(1) counters, so the export is
        valid (and identical) at every retention level.  The fleet
        runner calls this once per simulated vehicle when telemetry is
        enabled; it reads counters only and cannot perturb the trace.
        """
        _fanout.settle()
        for kind_value, count in self._kind_counts.items():
            registry.inc(prefix + kind_value, count)
        registry.inc("bus.events_total", self._total)
        registry.inc("bus.blocked_total", self._blocked)

    def merge(self, other: "BusTrace") -> "BusTrace":
        """A new FULL trace with both traces' retained records, time-ordered.

        Same-timestamp records order deterministically: this trace's
        records come first, each trace's own records stay in insertion
        order (the sort key is ``(time, source trace, insertion index)``).
        Counters are summed, so count queries on the merged trace cover
        both full runs even if a source trace retained fewer records.
        """
        _fanout.settle()
        merged = BusTrace()
        decorated = [(r.time, 0, i, r) for i, r in enumerate(self)]
        decorated += [(r.time, 1, i, r) for i, r in enumerate(other)]
        decorated.sort(key=lambda item: item[:3])
        merged._records = [item[3] for item in decorated]
        merged._total = self._total + other._total
        merged._blocked = self._blocked + other._blocked
        for source in (self, other):
            for kind, count in source._kind_counts.items():
                merged._kind_counts[kind] = merged._kind_counts.get(kind, 0) + count
            for node, node_counts in source._node_counts.items():
                target = merged._node_counts.setdefault(node, {})
                for kind, count in node_counts.items():
                    target[kind] = target.get(kind, 0) + count
            for can_id, id_counts in source._id_counts.items():
                target = merged._id_counts.setdefault(can_id, {})
                for kind, count in id_counts.items():
                    target[kind] = target.get(kind, 0) + count
        return merged
