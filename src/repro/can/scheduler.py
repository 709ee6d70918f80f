"""Deterministic discrete-event scheduler.

All simulated activity (frame transmission, periodic sensor broadcasts,
attack injection) runs as events on a single scheduler so that campaign
results are reproducible.  Events at equal times execute in scheduling
order (a monotonically increasing sequence number breaks ties), and no
wall-clock time is ever consulted.

The queue itself stores bare ``(time, sequence, callback)`` tuples --
the frame hot path schedules hundreds of thousands of events per fleet
run, so no :class:`Event` object, handle or label string is allocated
unless the caller actually keeps one.  :meth:`EventScheduler.schedule`
returns a cancellation handle for callers that need one;
:meth:`EventScheduler.schedule_fast` is the allocation-free variant used
by the bus and the periodic-broadcast machinery.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.can import fanout as _fanout


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled event, ordered by ``(time, sequence)``.

    Retained as a public value object; the scheduler's internal queue
    holds plain tuples instead and only materialises an :class:`Event`
    through :attr:`_EventHandle.event` when asked.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class _EventHandle:
    """Mutable cancellation handle for a scheduled event."""

    __slots__ = ("_scheduler", "_time", "_sequence", "_callback", "_label", "_cancelled")

    def __init__(
        self,
        scheduler: "EventScheduler",
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str,
    ) -> None:
        self._scheduler = scheduler
        self._time = time
        self._sequence = sequence
        self._callback = callback
        self._label = label
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the event's callback from running.

        Cancelling an event that has already fired is a no-op (and does
        not poison the scheduler's cancellation set).
        """
        if not self._cancelled:
            self._cancelled = True
            # Events fire exactly at their timestamp: once the clock has
            # passed it, this event has already run and there is nothing
            # left to suppress.
            if self._scheduler._now <= self._time:
                self._scheduler._cancelled.add(self._sequence)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._time

    @property
    def label(self) -> str:
        return self._label

    @property
    def event(self) -> Event:
        """The scheduled event as a value object (built on demand)."""
        return Event(self._time, self._sequence, self._callback, self._label)


class _PeriodicTask:
    """One periodic callback series, rescheduling itself iteratively.

    A single instance serves every tick of the series -- no lambda chain
    or per-tick closure is allocated, only the queue tuple itself.  The
    diagnostic label lives here (once per series, not per event).
    """

    __slots__ = ("scheduler", "period", "callback", "remaining", "label")

    def __init__(
        self,
        scheduler: "EventScheduler",
        period: float,
        callback: Callable[[], None],
        remaining: int | None,
        label: str = "",
    ) -> None:
        self.scheduler = scheduler
        self.period = period
        self.callback = callback
        self.remaining = remaining
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return f"_PeriodicTask({self.label or self.callback!r}, period={self.period})"

    def __call__(self) -> None:
        self.callback()
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining <= 0:
                return
        # Inline of EventScheduler.schedule_fast: one heappush per tick.
        scheduler = self.scheduler
        heapq.heappush(
            scheduler._queue,
            (scheduler._now + self.period, next(scheduler._sequence), self),
        )


class EventScheduler:
    """A minimal deterministic discrete-event simulator.

    Typical use::

        scheduler = EventScheduler()
        scheduler.schedule(0.5, lambda: print("half a second in"))
        scheduler.run()
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._cancelled: set[int] = set()

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> _EventHandle:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> _EventHandle:
        """Schedule *callback* at absolute simulation time *time*."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} which is before current time {self._now}"
            )
        sequence = next(self._sequence)
        heapq.heappush(self._queue, (time, sequence, callback))
        return _EventHandle(self, time, sequence, callback, label)

    def schedule_fast(self, delay: float, callback: Callable[[], None]) -> None:
        """Allocation-free scheduling: no handle, no label, no validation.

        The hot path's variant of :meth:`schedule` -- callers that never
        cancel (bus transmissions, periodic ticks) use it to avoid one
        handle object per event.  *delay* must be non-negative.
        """
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), callback))

    def schedule_at_fast(self, time: float, callback: Callable[[], None]) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        label: str = "",
        start_delay: float | None = None,
        count: int | None = None,
    ) -> None:
        """Schedule *callback* every *period* seconds.

        ``count`` bounds the number of invocations (``None`` means until
        the simulation horizon); ``start_delay`` defaults to one period.
        One :class:`_PeriodicTask` is allocated for the whole series; the
        diagnostic *label* is carried on it rather than on every event.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        if count is not None and count <= 0:
            return
        first_delay = period if start_delay is None else start_delay
        if first_delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={first_delay})")
        self.schedule_fast(first_delay, _PeriodicTask(self, period, callback, count, label))

    # -- execution ------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run queued events.

        Parameters
        ----------
        until:
            Stop once simulation time would exceed this value (events at
            exactly ``until`` still run).  ``None`` runs to queue
            exhaustion.
        max_events:
            Safety bound on the number of events to execute.

        Returns the number of events executed by this call.  Pending
        fan-out tallies are expanded before it returns (see
        :mod:`repro.can.fanout`).
        """
        executed = 0
        queue = self._queue
        cancelled = self._cancelled
        try:
            while queue:
                entry = queue[0]
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heapq.heappop(queue)
                if cancelled and entry[1] in cancelled:
                    cancelled.discard(entry[1])
                    continue
                self._now = entry[0]
                entry[2]()
                executed += 1
                self._processed += 1
        finally:
            _fanout.settle()
        if until is not None and (not queue or queue[0][0] > until):
            # Advance the clock to the horizon even if no event lands exactly on it.
            self._now = max(self._now, until)
        if not queue and cancelled:
            # Nothing pending: any remaining cancellation marks are stale
            # (cancel() raced an event that fired in this run).
            cancelled.clear()
        return executed

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain.

        Like :meth:`run`, expands pending fan-out tallies before returning.
        """
        cancelled = self._cancelled
        while self._queue:
            time, sequence, callback = heapq.heappop(self._queue)
            if cancelled and sequence in cancelled:
                cancelled.discard(sequence)
                continue
            self._now = time
            try:
                callback()
            finally:
                _fanout.settle()
            self._processed += 1
            return True
        return False

    def clear(self) -> None:
        """Drop all pending events (the clock is not reset)."""
        self._queue.clear()
        self._cancelled.clear()

    def reset(self) -> None:
        """Restore a pristine scheduler: empty queue, zero clock.

        The sequence counter restarts too, so events scheduled after a
        reset carry the same ``(time, sequence)`` keys -- and therefore
        the same tie-break ordering -- as on a freshly built scheduler.
        This is what makes pooled-vehicle reuse bit-identical to a
        fresh build.
        """
        self._queue.clear()
        self._cancelled.clear()
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
