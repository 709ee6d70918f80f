"""Fault tolerance for parallel fleet execution.

Every chunk a :class:`~repro.api.session.FleetSession` submits is a pure
function of its specs, so a re-executed chunk is bit-identical to the
original -- which makes fault tolerance *free of correctness risk* here:
a retry, a re-queue on a surviving worker, or an inline fallback all
yield the same outcome bytes, and the in-order fold keeps the final
:class:`~repro.fleet.results.FleetResult` fingerprint unchanged.  This
module supplies the three pieces the session wires together:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff.
  The jitter is drawn from the repo's SHA-256 stream machinery
  (:func:`~repro.core.seeding.derive_seed`), so a given (seed, chunk,
  attempt) always backs off for the same duration: recovery schedules
  replay exactly, like everything else in the simulation.
* :class:`CircuitBreaker` -- a per-run escalation ladder.  Repeated
  chunk failures first downgrade the transfer (shm -> pickle, shedding
  shared-memory as a failure surface), then execution itself
  (parallel -> inline in the parent), instead of aborting the run.
* :class:`FaultPlan` -- a deterministic fault-injection harness.
  Schedules parse from compact specs (``"worker_crash:chunk=3"``), ride
  to workers as picklable :class:`FaultEvent` values, and let tests and
  CI kill workers, raise inside chunks, drop shm segments and stall
  consumers on demand -- the chaos is as reproducible as the fleet.

No ``time`` import here: sleeping and stalling route through
:mod:`repro.obs.clock`, and the determinism lint
(``tools/check_determinism.py``) additionally requires every RNG in
this module to be seeded through :func:`derive_seed`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.core.seeding import derive_seed
from repro.obs import clock

__all__ = [
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "ChunkFailedError",
    "CircuitBreaker",
    "FaultEvent",
    "FaultPlan",
    "FleetExecutionError",
    "InjectedFaultError",
    "RetryPolicy",
    "apply_worker_fault",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class FleetExecutionError(RuntimeError):
    """A parallel fleet run failed in a way the resilience layer surfaces."""


class ChunkFailedError(FleetExecutionError):
    """One chunk exhausted its retry budget (and degradation was off).

    Carries enough context for a one-line diagnosis: the chunk index,
    how many attempts were made, and the last underlying error.
    """

    def __init__(self, chunk_index: int, attempts: int, last_error: BaseException | None):
        self.chunk_index = chunk_index
        self.attempts = attempts
        self.last_error = last_error
        cause = (
            f"{type(last_error).__name__}: {last_error}"
            if last_error is not None
            else "unknown cause"
        )
        super().__init__(
            f"chunk {chunk_index} failed after {attempts} attempt(s) "
            f"({cause}); rerun with --max-retries/--degrade or inspect "
            f"the worker logs"
        )


class InjectedFaultError(FleetExecutionError):
    """Raised by the fault harness inside a worker (``chunk_error`` events)."""


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts every execution of a chunk including the
    first, so ``max_attempts=1`` means "no retries".  Backoff for retry
    *n* (1-based) is ``base * factor**(n-1)`` capped at ``backoff_max_s``,
    then jittered *downward* by up to ``jitter`` of itself -- the jitter
    RNG is seeded from ``derive_seed(seed, "resilience/backoff/...")``,
    so the whole recovery schedule is a pure function of
    (policy, seed, chunk, attempt) and replays bit-identically.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_delay(self, seed: int, chunk_index: int, attempt: int) -> float:
        """Seconds to wait before retry *attempt* (1-based) of a chunk."""
        if attempt < 1:
            raise ValueError("attempt is 1-based: the first retry is attempt 1")
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if not self.jitter or not base:
            return base
        stream = random.Random(
            derive_seed(seed, f"resilience/backoff/chunk={chunk_index}/attempt={attempt}")
        )
        return base * (1.0 - self.jitter * stream.random())


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Escalating degradation after repeated chunk failures.

    Counts *consecutive* chunk-attempt failures; every time the count
    reaches ``threshold`` the breaker trips one level up the ladder and
    the count restarts:

    * level 0 -- normal operation,
    * level 1 -- spec/outcome transfer downgrades shm -> pickle
      (sheds shared memory as a failure surface),
    * level 2 -- execution downgrades parallel -> inline in the parent
      (sheds the worker pool entirely).

    A success resets the consecutive count but never un-trips a level:
    within one run, degradation is a ratchet -- predictable beats
    optimal when the infrastructure is misbehaving.  A disabled breaker
    (``enabled=False``, from ``degrade=False`` configs) still counts
    failures but never trips.
    """

    #: Consecutive failures per escalation step.
    DEFAULT_THRESHOLD = 3

    def __init__(self, threshold: int = DEFAULT_THRESHOLD, enabled: bool = True):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.enabled = enabled
        self.level = 0
        self.total_failures = 0
        self._consecutive = 0

    def record_failure(self) -> None:
        self.total_failures += 1
        self._consecutive += 1
        if self.enabled and self._consecutive >= self.threshold and self.level < 2:
            self.level += 1
            self._consecutive = 0

    def record_success(self) -> None:
        self._consecutive = 0

    @property
    def transfer_degraded(self) -> bool:
        """True once the breaker has tripped shm -> pickle (level >= 1)."""
        return self.level >= 1

    @property
    def inline_degraded(self) -> bool:
        """True once the breaker has tripped parallel -> inline (level 2)."""
        return self.level >= 2


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

#: Fault kinds applied inside the worker process, at chunk entry.
WORKER_FAULT_KINDS = ("worker_crash", "chunk_error", "stall")

#: Every schedulable fault kind.  ``shm_drop`` and ``consumer_stall``
#: are parent-side: the first unlinks a spec segment between submit and
#: the worker's read, the second delays outcome consumption so the
#: submission window fills and backpressure engages.
FAULT_KINDS = WORKER_FAULT_KINDS + ("shm_drop", "consumer_stall")

#: Seconds a ``stall``/``consumer_stall`` event sleeps when the spec
#: does not say otherwise.
DEFAULT_STALL_SECONDS = 0.5


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *kind* strikes *chunk* on *attempt*.

    ``attempt=None`` (spelled ``attempt=any`` in specs) fires on every
    attempt -- the fault is persistent, so only degradation can get the
    chunk through.  The default ``attempt=0`` fires on the first
    execution only, modelling a transient infrastructure failure that a
    retry heals.  Instances are frozen and picklable: worker-side
    events cross the pool pipe as-is.
    """

    kind: str
    chunk: int
    attempt: int | None = 0
    seconds: float = DEFAULT_STALL_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.chunk < 0:
            raise ValueError("chunk must be >= 0")
        if self.attempt is not None and self.attempt < 0:
            raise ValueError("attempt must be >= 0 or None (any)")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def matches(self, chunk: int, attempt: int) -> bool:
        return self.chunk == chunk and self.attempt in (None, attempt)

    def to_spec(self) -> str:
        """The compact spec form (parses back via :meth:`FaultPlan.parse`)."""
        parts = [f"chunk={self.chunk}"]
        if self.attempt is None:
            parts.append("attempt=any")
        elif self.attempt != 0:
            parts.append(f"attempt={self.attempt}")
        if self.seconds != DEFAULT_STALL_SECONDS:
            parts.append(f"seconds={self.seconds}")
        return f"{self.kind}:" + ",".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults for one run.

    Build one from a compact spec string::

        FaultPlan.parse("worker_crash:chunk=3")
        FaultPlan.parse("chunk_error:chunk=0,attempt=any;stall:chunk=2,seconds=1.5")

    Events are ``;``-separated; each is ``kind:key=value,...`` with keys
    ``chunk`` (required), ``attempt`` (an integer or ``any``; default 0,
    the first execution) and ``seconds`` (stall duration).  The plan is
    data, not behaviour: the session consults it per (chunk, attempt)
    and ships worker-side events to the pool, so the same plan against
    the same config reproduces the same failure sequence -- and, because
    chunks are pure, the same final fingerprint as a fault-free run.

    Where the session's outcome memo applies, a chunk is submitted only
    if it holds a miss: a behaviour key the memo neither stores nor has
    already sent to a worker.  A worker-side fault (``worker_crash``,
    ``chunk_error``, ``stall``) or an ``shm_drop`` aimed at a chunk with
    no misses therefore cannot fire.  ``consumer_stall`` still fires on
    every chunk: each takes its turn in the in-order consume loop.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultPlan events must be FaultEvent values, "
                    f"not {type(event).__name__}"
                )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-separated fault schedule spec (see class docs)."""
        if not isinstance(text, str) or not text.strip():
            raise ValueError("fault plan spec must be a non-empty string")
        events = []
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            kind, sep, body = raw.partition(":")
            kind = kind.strip()
            if not sep or not body.strip():
                raise ValueError(
                    f"bad fault event {raw!r}: expected 'kind:chunk=N[,key=value...]'"
                )
            fields: dict[str, object] = {}
            for pair in body.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise ValueError(
                        f"bad fault event field {pair.strip()!r} in {raw!r}: "
                        f"expected key=value"
                    )
                if key == "chunk":
                    fields["chunk"] = int(value)
                elif key == "attempt":
                    fields["attempt"] = None if value == "any" else int(value)
                elif key == "seconds":
                    fields["seconds"] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault event key {key!r} in {raw!r}; "
                        f"known: chunk, attempt, seconds"
                    )
            if "chunk" not in fields:
                raise ValueError(f"fault event {raw!r} is missing chunk=N")
            events.append(FaultEvent(kind=kind, **fields))
        if not events:
            raise ValueError("fault plan spec contains no events")
        return cls(events=tuple(events))

    @classmethod
    def random(
        cls,
        seed: int,
        chunks: int,
        kinds: tuple[str, ...] = ("worker_crash", "chunk_error", "shm_drop"),
        rate: float = 0.25,
    ) -> "FaultPlan":
        """A deterministic random schedule: each chunk draws one fault
        with probability *rate* from *kinds*.  Pure function of the
        arguments (the stream derives from the usual SHA-256 machinery),
        so CI chaos runs replay exactly.
        """
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")
        stream = random.Random(derive_seed(seed, f"resilience/faultplan/chunks={chunks}"))
        events = tuple(
            FaultEvent(kind=stream.choice(list(kinds)), chunk=index)
            for index in range(chunks)
            if stream.random() < rate
        )
        return cls(events=events)

    def to_spec(self) -> str:
        """The compact spec string (round-trips through :meth:`parse`)."""
        return ";".join(event.to_spec() for event in self.events)

    def worker_fault(self, chunk: int, attempt: int) -> FaultEvent | None:
        """The worker-side event to ship with (chunk, attempt), if any."""
        for event in self.events:
            if event.kind in WORKER_FAULT_KINDS and event.matches(chunk, attempt):
                return event
        return None

    def fires(self, kind: str, chunk: int, attempt: int) -> FaultEvent | None:
        """The matching event of *kind* for (chunk, attempt), if scheduled."""
        for event in self.events:
            if event.kind == kind and event.matches(chunk, attempt):
                return event
        return None


def apply_worker_fault(fault: FaultEvent | None) -> None:
    """Apply a worker-side fault at chunk entry (no-op for ``None``).

    Called by the chunk entry points *before* the spec segment is read,
    so a crashing worker leaves its segment behind exactly like a real
    mid-flight death would -- the parent's timeout/discard path has to
    clean it up, which is the point.
    """
    if fault is None:
        return
    if fault.kind == "worker_crash":
        # A hard kill, not an exception: the pool's result never
        # arrives and the parent must detect the loss via its chunk
        # timeout.  os._exit skips interpreter teardown like a real
        # SIGKILL'd worker.
        os._exit(17)
    if fault.kind == "chunk_error":
        raise InjectedFaultError(
            f"injected chunk error (chunk={fault.chunk}, "
            f"attempt={'any' if fault.attempt is None else fault.attempt})"
        )
    if fault.kind == "stall":
        clock.sleep(fault.seconds)
