"""The fleet experiment façade: config in, streamed outcomes out.

:class:`FleetSession` owns every moving part a fleet experiment needs --
the case-study builder (policy derived once), the warm
:class:`~repro.casestudy.builder.CarPool`, and the multiprocessing
worker pools -- behind three entry points:

* :meth:`FleetSession.run` -- execute the session's
  :class:`~repro.api.config.ExperimentConfig` and return the aggregate
  :class:`~repro.fleet.results.FleetResult`.
* :meth:`FleetSession.iter_outcomes` -- a generator yielding one
  :class:`~repro.fleet.results.VehicleOutcome` at a time, **in vehicle-id
  order**, as worker chunks complete.  Outcomes are folded into a
  :class:`~repro.fleet.results.StreamingFleetAggregator` and released,
  so a 10^5-vehicle run never materialises the outcome list; the final
  aggregate (:attr:`last_result`) is bit-identical to :meth:`run` and to
  the legacy batch path at any worker count.
* :meth:`FleetSession.run_matrix` -- run a sweep of configs through the
  *same* session, sharing the warm car pools and worker processes
  (policy derivation and car construction amortise across the sweep).

The data plane is lazy and columnar end to end: specs are generated one
vehicle at a time (:meth:`FleetSession.iter_vehicle_specs`), chunked
straight into worker submissions, and -- with the default
``spec_transfer="shm"`` -- packed into
:class:`~repro.fleet.transfer.SpecBlock` shared-memory segments whose
outcome batches return the same way, so the parent stays O(chunk) and
the worker pipe carries only ``(name, size)`` handles at any fleet
size.

Worker processes are kept alive across runs (one pool per worker
count) until :meth:`close` -- use the session as a context manager.
Every fingerprint the session produces is a function of the config's
experiment fields alone (:data:`~repro.api.config.EXPERIMENT_FIELDS`):
the same experiment reproduces the same fingerprint here, under any
execution settings, and from the shell via ``python -m repro fleet run``.

Vehicles that repeat a behaviour key are simulated once: in
``COUNTERS`` retention with compiled tables, the session's
:class:`~repro.fleet.runner.OutcomeMemo` is consulted before any spec
reaches a worker, and it is shared across chunks and runs.  A parallel
chunk sends only its misses; its hits and duplicates are joined back in
vehicle-id order, so the number of kernel runs depends on the
experiment, not on the worker count.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
from multiprocessing import resource_tracker
from collections import deque
from dataclasses import replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.casestudy.builder import CarPool, CaseStudyBuilder
from repro.fleet import runner as _fleet_runner
from repro.fleet.resilience import (
    ChunkFailedError,
    CircuitBreaker,
    FaultPlan,
    RetryPolicy,
)
from repro.fleet.results import FleetResult, StreamingFleetAggregator, VehicleOutcome
from repro.fleet.runner import (
    OutcomeMemo,
    _chunked,
    _init_worker,
    _process_builder,
    _process_pool,
    _simulate_chunk,
    _simulate_chunk_shm,
    memo_applies,
    simulate_vehicle,
)
from repro.obs import clock
from repro.obs import metrics as _obs_metrics
from repro.obs.export import MetricsSnapshot, merge_snapshots
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry, NoopRegistry
from repro.obs.spans import observe_phase, span
from repro.fleet.scenarios import FleetScenario, VehicleSpec, get_scenario
from repro.fleet.transfer import (
    SHM_AVAILABLE,
    OutcomeBlock,
    ShmHandle,
    SpecBlock,
    discard_segment,
    read_block,
    resolve_spec_transfer,
    write_block,
)

from repro.api.config import ExperimentConfig


class _ChunkAttempt:
    """One chunk's execution state across retries.

    ``specs`` are what the chunk sends to a worker: all of its specs, or
    only its memo misses when ``plan`` (from
    :meth:`~repro.fleet.runner.OutcomeMemo.split`) joins the rest back.
    The parallel loop keeps either that spec list (pickle transfer) or
    its encoded :class:`SpecBlock` bytes (shm transfer -- far smaller
    than the objects, keeping the parent O(encoded-chunk)) so a failed
    attempt can be re-queued without regenerating specs.  ``size`` is
    the number of specs to run; a chunk of size 0 is never submitted.
    ``attempt`` counts *failed* executions so far; ``result`` and
    ``spec_handle`` always describe the in-flight attempt, and both are
    cleared whenever that attempt is abandoned.
    """

    __slots__ = ("index", "specs", "size", "plan", "payload", "attempt", "result",
                 "spec_handle", "transfer", "last_error")

    def __init__(self, index: int, specs: list[VehicleSpec], plan: tuple | None = None):
        self.index = index
        self.specs: list[VehicleSpec] | None = specs
        self.size = len(specs)
        self.plan = plan
        self.payload: bytes | None = None
        self.attempt = 0
        self.result = None
        self.spec_handle: ShmHandle | None = None
        self.transfer = "pickle"
        self.last_error: BaseException | None = None

    def discard_spec_segment(self) -> None:
        """Unlink the in-flight attempt's spec segment, if one exists."""
        if self.spec_handle is not None:
            discard_segment(self.spec_handle.name)
            self.spec_handle = None

    def materialise_specs(self) -> list[VehicleSpec]:
        """The chunk's specs, decoding the retained block if needed."""
        if self.specs is not None:
            return self.specs
        assert self.payload is not None
        return SpecBlock.from_bytes(self.payload).decode()


class FleetSession:
    """Run fleet experiments described by :class:`ExperimentConfig` objects.

    Parameters
    ----------
    config:
        The experiment this session runs by default (:meth:`run`,
        :meth:`iter_outcomes`) and the base for :meth:`run_matrix`
        override sweeps.
    builder:
        Optional case-study builder to use instead of the shared
        per-process one.  Injecting a builder gives the session its own
        private :class:`~repro.casestudy.builder.CarPool`; by default
        the process-wide builder and pool are shared, so repeated
        sessions stay warm.
    telemetry:
        ``False`` (default) leaves the no-op registry in place -- the
        hot paths pay one attribute load and a branch.  ``True`` gives
        the session a fresh :class:`~repro.obs.metrics.MetricsRegistry`;
        passing a registry shares one across sessions.  The registry is
        activated for the duration of each run, worker chunk snapshots
        are merged as they arrive, and :meth:`metrics_snapshot` exposes
        the combined parent + worker view.  Telemetry is deliberately
        *not* part of :class:`ExperimentConfig`: enabling it changes no
        config hash, no fingerprint and no outcome bit.
    fault_plan:
        Optional :class:`~repro.fleet.resilience.FaultPlan` of injected
        failures for the session's parallel runs -- the chaos-testing
        hook behind ``--inject-faults``.  Like telemetry it is a
        *session* option, not a config field: a plan changes which
        attempts fail, never what the surviving run computes, so
        fingerprints are identical with or without one.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        builder: CaseStudyBuilder | None = None,
        telemetry: "bool | MetricsRegistry" = False,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not isinstance(config, ExperimentConfig):
            raise TypeError(
                f"config must be an ExperimentConfig, not {type(config).__name__}"
            )
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise TypeError(
                f"fault_plan must be a FaultPlan, not {type(fault_plan).__name__}"
            )
        self._fault_plan = fault_plan
        self.config = config
        self._builder = builder
        if telemetry is True:
            self._registry: MetricsRegistry | NoopRegistry = MetricsRegistry()
        elif telemetry is False or telemetry is None:
            self._registry = NOOP_REGISTRY
        elif isinstance(telemetry, (MetricsRegistry, NoopRegistry)):
            self._registry = telemetry
        else:
            raise TypeError(
                "telemetry must be a bool or a MetricsRegistry, "
                f"not {type(telemetry).__name__}"
            )
        #: Merged per-chunk worker snapshots (deltas), accumulated as
        #: chunks complete; empty for inline and telemetry-off runs.
        self._worker_snapshot = MetricsSnapshot()
        self._car_pool: CarPool | None = None
        #: Outcome memo of this session's runs, inline and parallel;
        #: never shared, so an injected builder's outcomes stay with
        #: the session that built them.
        self._memo = OutcomeMemo()
        self._mp_pools: dict[int, multiprocessing.pool.Pool] = {}
        self._last_result: FleetResult | None = None
        #: Async results abandoned mid-stream whose workers were still
        #: running: their OutcomeBlock segments are swept on the next
        #: parallel run and on close (see _discard_in_flight).
        self._orphan_results: list = []
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the session's worker processes (idempotent).

        Single-worker sessions hold no processes, so closing is optional
        for them; multiprocess sessions should be used as context
        managers.
        """
        self._sweep_orphans()
        for pool in self._mp_pools.values():
            pool.terminate()
            pool.join()
        self._mp_pools.clear()
        self._orphan_results.clear()
        self._closed = True

    @property
    def builder(self) -> CaseStudyBuilder:
        """The case-study builder backing inline simulation."""
        if self._builder is None:
            return _process_builder()
        return self._builder

    @property
    def last_result(self) -> FleetResult | None:
        """Aggregate of the most recently *completed* run or stream."""
        return self._last_result

    @property
    def metrics(self) -> "MetricsRegistry | NoopRegistry":
        """The session's parent-side registry (no-op when telemetry is off)."""
        return self._registry

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Parent registry state merged with every worker chunk snapshot.

        Worker snapshots are per-chunk deltas, so this is the exact
        fleet-wide total however many workers, chunks or runs
        contributed.  Empty (all-zero) when telemetry is off.
        """
        return merge_snapshots([self._registry.snapshot(), self._worker_snapshot])

    # -- spec materialisation -------------------------------------------------

    def scenario(self, config: ExperimentConfig | None = None) -> FleetScenario:
        """The resolved scenario (with any config parameter overrides)."""
        config = config or self.config
        scenario = get_scenario(config.scenario)
        if config.scenario_parameters:
            scenario = scenario.with_parameters(**dict(config.scenario_parameters))
        return scenario

    def iter_vehicle_specs(
        self, config: ExperimentConfig | None = None
    ) -> Iterator[VehicleSpec]:
        """Stream the config's fully explicit per-vehicle specs, lazily.

        The fleet is generated one spec at a time (any fleet-wide
        enforcement override is mapped over the stream), so the parent
        never holds more than the chunk being submitted -- the O(chunk)
        half of the 10^5-vehicle contract, alongside shared-memory
        transfer.
        """
        config = config or self.config
        stream = self.scenario(config).iter_vehicle_specs(
            config.vehicles, config.seed, first_vehicle_id=config.first_vehicle_id
        )
        if config.enforcement is not None:
            override = config.enforcement
            stream = (replace(spec, enforcement=override) for spec in stream)
        return stream

    def vehicle_specs(self, config: ExperimentConfig | None = None) -> list[VehicleSpec]:
        """:meth:`iter_vehicle_specs`, materialised as a list."""
        return list(self.iter_vehicle_specs(config))

    # -- execution ------------------------------------------------------------

    def run(self) -> FleetResult:
        """Run the session's config and return the fleet aggregate."""
        return self._drain(self.iter_outcomes())

    def run_config(self, config: ExperimentConfig) -> FleetResult:
        """Run an arbitrary config through this session's warm pools.

        The session-reuse hook behind the experiment service's drain
        workers (and anything else with a stream of heterogeneous
        configs): one long-lived session executes many configs while
        the builder, warm :class:`~repro.casestudy.builder.CarPool` and
        per-worker-count process pools amortise across all of them --
        ``run()`` is exactly ``run_config(self.config)``.  Results are a
        pure function of the config: fingerprints are bit-identical to a
        fresh single-config session at any worker count.
        """
        return self._drain(self.iter_outcomes_for(config))

    def iter_outcomes_for(self, config: ExperimentConfig) -> Iterator[VehicleOutcome]:
        """Stream an arbitrary config's outcomes through this session.

        The streaming half of the session-reuse hook (:meth:`run_config`
        is this generator, drained): identical semantics to
        :meth:`iter_outcomes`, for a config other than the session's
        own.
        """
        if not isinstance(config, ExperimentConfig):
            raise TypeError(
                f"config must be an ExperimentConfig, not {type(config).__name__}"
            )
        self._last_result = None
        return self._stream(
            config,
            self.iter_vehicle_specs(config),
            config.scenario,
            total=config.vehicles,
        )

    def iter_outcomes(self) -> Iterator[VehicleOutcome]:
        """Stream the config's outcomes one vehicle at a time, in id order.

        Outcomes are folded into the aggregate incrementally and handed
        to the caller without being retained; chunk submission is
        windowed, so buffered outcomes stay bounded by a few chunks
        regardless of fleet size or how slowly the caller consumes.
        After the generator is exhausted, :attr:`last_result` holds the
        finished :class:`FleetResult` -- bit-identical to :meth:`run`
        (which is this generator, drained).  :attr:`last_result` resets
        to ``None`` as soon as this method is called and stays ``None``
        if the stream is abandoned before the final vehicle.
        """
        return self.iter_outcomes_for(self.config)

    def run_specs(
        self, specs: Sequence[VehicleSpec], scenario_name: str
    ) -> FleetResult:
        """Run explicit specs (the custom-workload path)."""
        ordered = sorted(specs, key=lambda spec: spec.vehicle_id)
        return self._drain(
            self._stream(self.config, ordered, scenario_name, total=len(ordered))
        )

    def run_matrix(
        self, configs: Iterable[ExperimentConfig | dict]
    ) -> list[tuple[ExperimentConfig, FleetResult]]:
        """Run a config sweep through this session's warm pools.

        Each entry is either a full :class:`ExperimentConfig` or a dict
        of overrides applied to the session's base config, and runs
        through :meth:`run_config`: entries run sequentially but share
        the session's builder, car pools, worker processes and outcome
        memo, so the policy derivation and car construction cost is paid
        once for the whole sweep.  Returns ``(config, result)`` pairs in
        execution order.
        """
        results: list[tuple[ExperimentConfig, FleetResult]] = []
        for entry in configs:
            config = (
                self.config.with_overrides(**entry)
                if isinstance(entry, dict)
                else entry
            )
            if not isinstance(config, ExperimentConfig):
                raise TypeError(
                    "run_matrix entries must be ExperimentConfig objects or "
                    f"override dicts, not {type(entry).__name__}"
                )
            results.append((config, self.run_config(config)))
        return results

    # -- internals ------------------------------------------------------------

    def _drain(self, stream: Iterator[VehicleOutcome]) -> FleetResult:
        deque(stream, maxlen=0)
        assert self._last_result is not None
        return self._last_result

    def _stream(
        self,
        config: ExperimentConfig,
        specs: Iterable[VehicleSpec],
        scenario_name: str,
        total: int,
    ) -> Iterator[VehicleOutcome]:
        if self._closed:
            raise RuntimeError("session is closed")
        self._last_result = None
        registry = self._registry
        # Activate for the stream's lifetime so inline simulation and
        # parent-side instrumented paths (pool, shm transfer) report
        # here; the previous registry is restored even on abandonment.
        previous = _obs_metrics.activate(registry)
        try:
            wall_start = clock.wall()
            aggregator = StreamingFleetAggregator(scenario_name)
            if registry.enabled:
                registry.inc("session.runs")
                specs = self._timed_spec_stream(registry, specs)
            if config.workers == 1 or total <= 1:
                source = self._simulate_inline(config, specs)
            else:
                source = self._simulate_parallel(config, specs, total)
            if registry.enabled:
                for outcome in source:
                    fold_start = clock.wall()
                    aggregator.add(outcome)
                    observe_phase(registry, "run.aggregate", clock.wall() - fold_start)
                    yield outcome
                self._export_parent_state(registry)
                observe_phase(registry, "run.total", clock.wall() - wall_start)
            else:
                for outcome in source:
                    aggregator.add(outcome)
                    yield outcome
            self._last_result = aggregator.result(
                wall_seconds=clock.wall() - wall_start
            )
        finally:
            _obs_metrics.activate(previous)

    @staticmethod
    def _timed_spec_stream(
        registry: MetricsRegistry, specs: Iterable[VehicleSpec]
    ) -> Iterator[VehicleSpec]:
        """Time each pull from the lazy spec stream (``run.spec_gen``)."""
        iterator = iter(specs)
        while True:
            start = clock.wall()
            try:
                spec = next(iterator)
            except StopIteration:
                return
            observe_phase(registry, "run.spec_gen", clock.wall() - start)
            yield spec

    def _export_parent_state(self, registry: MetricsRegistry) -> None:
        """Export parent-side cache/pool state at end of a telemetry run.

        Only state that already exists is read: the process builder is
        never created (let alone its policy derived) just to report
        zeros, so telemetry stays invisible to cold-start behaviour.
        """
        builder = self._builder or _fleet_runner._PROCESS_BUILDER
        if builder is not None:
            for key, delta in builder.evaluator.metrics_delta().items():
                if delta:
                    registry.inc(f"policy.{key}", delta)
        pool = self._car_pool if self._builder is not None else _fleet_runner._PROCESS_POOL
        if pool is not None:
            registry.set_gauge("pool.size", float(len(pool)))

    def _kernel(self, config: ExperimentConfig):
        """In-process ``simulate_vehicle`` for *config*: one kernel run per call."""
        # Bound per run, so a wrapper installed on the module-level
        # simulate_vehicle between runs (perfbench's layer tracer) sees
        # every kernel run.
        return partial(
            simulate_vehicle,
            builder=self.builder,
            trace_level=config.trace_level,
            inbox_limit=config.inbox_limit,
            pool=self._inline_car_pool() if config.reuse_cars else None,
            compile_tables=config.compile_tables,
        )

    def _simulate_inline(
        self, config: ExperimentConfig, specs: Iterable[VehicleSpec]
    ) -> Iterator[VehicleOutcome]:
        simulate = self._kernel(config)
        if memo_applies(config.trace_level, config.compile_tables):
            return self._memo.outcomes(specs, simulate)
        return map(simulate, specs)

    def _simulate_parallel(
        self,
        config: ExperimentConfig,
        specs: Iterable[VehicleSpec],
        total: int,
    ) -> Iterator[VehicleOutcome]:
        self._sweep_orphans()
        chunk_size = config.effective_chunk_size(total)
        chunks = _chunked(specs, chunk_size)
        transfer = resolve_spec_transfer(config.spec_transfer)
        policy = config.retry_policy()
        faults = self._fault_plan
        breaker = CircuitBreaker(enabled=config.degrade)
        registry = self._registry
        # Workers get their own registry per chunk and ship back drained
        # snapshots; the telemetry flag rides in the worker kwargs, NOT
        # in the config -- fingerprints cannot see it.
        worker_kwargs = dict(
            trace_level=config.trace_level.value,
            inbox_limit=config.inbox_limit,
            reuse_cars=config.reuse_cars,
            compile_tables=config.compile_tables,
            telemetry=registry.enabled,
        )
        pool = self._mp_pool(config.workers)
        simulate_shm = partial(_simulate_chunk_shm, **worker_kwargs)
        simulate_pickle = partial(_simulate_chunk, **worker_kwargs)

        def submit(record: _ChunkAttempt) -> None:
            """(Re)submit one chunk attempt, honouring degradation.

            shm transfer packs the chunk into a SpecBlock segment the
            worker decodes (and unlinks); the encoded bytes are retained
            on the record so a retry re-writes a fresh segment without
            regenerating or re-encoding specs.  On any submit failure
            the segment is unlinked before the error propagates -- no
            worker will ever consume it.
            """
            mode = "pickle" if breaker.transfer_degraded else transfer
            if mode != transfer and registry.enabled:
                registry.inc("resilience.transfer_downgrades")
            fault = faults.worker_fault(record.index, record.attempt) if faults else None
            record.transfer = mode
            if mode == "shm":
                if record.payload is None:
                    with span("run.encode"):
                        record.payload = SpecBlock.encode(record.specs).to_bytes()
                    record.specs = None  # O(encoded-chunk), not O(objects)
                handle = write_block(record.payload)
                record.spec_handle = handle
                if faults is not None and faults.fires(
                    "shm_drop", record.index, record.attempt
                ):
                    # Injected infrastructure fault: the segment
                    # vanishes before the worker's read.  Unlinked
                    # before submitting, so no idle worker can win
                    # the race and read it first.
                    record.discard_spec_segment()
                try:
                    record.result = pool.apply_async(
                        simulate_shm, (handle,), {"fault": fault}
                    )
                except BaseException:
                    record.discard_spec_segment()
                    raise
            else:
                record.spec_handle = None
                record.result = pool.apply_async(
                    simulate_pickle, (record.materialise_specs(),), {"fault": fault}
                )

        def fail_attempt(record: _ChunkAttempt, error: BaseException, lost: bool) -> None:
            """Book one failed attempt and release everything it held."""
            record.discard_spec_segment()
            if lost and record.result is not None:
                # The worker is dead or merely hung -- indistinguishable
                # from here.  Park the stale result so a late outcome
                # segment from a survivor is swept (next run / close)
                # instead of leaking; a truly dead worker's result never
                # readies and the pool replaces the process itself.
                self._orphan_results.append(record.result)
            record.result = None
            record.attempt += 1
            record.last_error = error
            breaker.record_failure()
            if registry.enabled:
                registry.inc("resilience.chunk_failures")
                if lost:
                    registry.inc("resilience.worker_deaths")

        def run_inline(record: _ChunkAttempt) -> list[VehicleOutcome]:
            """Last rung of the degradation ladder: simulate in-parent.

            Bit-identical to a worker execution (location is invisible
            to outcomes), and immune to pool, pipe and shm failures.
            Injected worker faults deliberately do not apply here --
            they model infrastructure failures, and inline execution
            has no infrastructure left to fail.  The record's specs are
            its memo misses, already in flight: each runs the kernel
            directly rather than through the memo.
            """
            if registry.enabled:
                registry.inc("resilience.degraded_chunks")
            return list(map(self._kernel(config), record.materialise_specs()))

        def complete(record: _ChunkAttempt):
            """Drive one chunk to completion through retries.

            Returns ``(payload, outcomes)`` -- exactly one is set:
            a worker payload still to be consumed, or inline-fallback
            outcomes.  Raises :class:`ChunkFailedError` only when the
            attempt budget is spent and degradation is off.
            """
            while True:
                if record.result is None:
                    if record.attempt >= policy.max_attempts or breaker.inline_degraded:
                        if config.degrade:
                            return None, run_inline(record)
                        raise ChunkFailedError(
                            record.index, record.attempt, record.last_error
                        )
                    if record.attempt > 0:
                        delay = policy.backoff_delay(
                            config.seed, record.index, record.attempt
                        )
                        if registry.enabled:
                            registry.inc("resilience.retries")
                            registry.observe(
                                "resilience.backoff_delay_seconds", delay
                            )
                        if delay > 0:
                            clock.sleep(delay)
                    submit(record)
                try:
                    with span("run.wait"):
                        payload = record.result.get(config.chunk_timeout_s)
                except multiprocessing.TimeoutError:
                    fail_attempt(
                        record,
                        TimeoutError(
                            f"no result within chunk_timeout_s="
                            f"{config.chunk_timeout_s}: worker dead or hung"
                        ),
                        lost=True,
                    )
                    continue
                except Exception as error:
                    # The worker raised (or its spec segment vanished):
                    # the exception travelled back, so the worker
                    # itself is alive -- re-queue on the same pool.
                    fail_attempt(record, error, lost=False)
                    continue
                breaker.record_success()
                return payload, None

        def consume(record: _ChunkAttempt, payload) -> list[VehicleOutcome]:
            if record.transfer == "shm":
                handle, snapshot = payload
                self._fold_worker_snapshot(snapshot)
                with span("run.decode"):
                    return OutcomeBlock.from_bytes(
                        read_block(handle, unlink=True)
                    ).decode()
            outcomes, snapshot = payload
            self._fold_worker_snapshot(snapshot)
            return outcomes

        # Windowed submission with ordered consumption: at most
        # ``workers + 2`` chunks are in flight (running or finished but
        # unconsumed), and chunks are *completed* in submission order --
        # vehicle-id order -- so the stream is deterministic and the
        # incremental fold matches the batch sort-then-fold bit for
        # bit.  Retries preserve that invariant for free: a re-queued
        # chunk is a pure function of its specs, so whichever attempt
        # finally lands contributes identical bytes in an identical
        # position.  Unlike ``Pool.imap`` (which submits everything up
        # front and buffers completed chunks without limit), a consumer
        # slower than the workers exerts backpressure here: no new
        # chunk is submitted until one has been drained, keeping
        # buffered outcomes bounded by the window whatever the fleet
        # size.  Because ``chunks`` slices the lazy spec stream, specs
        # are also *generated* only as the window advances -- the
        # parent is O(chunk) end to end.  With the memo on, a chunk is
        # split as it enters the window and only its misses travel; a
        # chunk with none still takes its turn in the window, so
        # consumer-side faults fire on it as on any other.
        window: deque[_ChunkAttempt] = deque()
        next_index = 0
        current: _ChunkAttempt | None = None
        memo = None
        if memo_applies(config.trace_level, config.compile_tables):
            memo = self._memo
        # This stream's keys whose first occurrence is not joined yet.
        pending_keys: dict = {}

        def admit(chunk: list[VehicleSpec]) -> None:
            nonlocal next_index
            if memo is None:
                record = _ChunkAttempt(next_index, chunk)
            else:
                join_plan, misses = memo.split(chunk, pending_keys)
                record = _ChunkAttempt(next_index, misses, join_plan)
            next_index += 1
            if record.size:
                submit(record)
            window.append(record)

        try:
            for chunk in islice(chunks, config.workers + 2):
                admit(chunk)
            while window:
                current = window.popleft()
                payload, outcomes = complete(current) if current.size else (None, [])
                try:
                    # Pulling the next chunk runs scenario script code
                    # (the stream is lazy) and another write_block; if
                    # either fails, the outcome segment already handed
                    # back for this chunk must not be orphaned.
                    next_chunk = next(chunks, None)
                    if next_chunk is not None:
                        admit(next_chunk)
                except BaseException:
                    if payload is not None and current.transfer == "shm":
                        discard_segment(payload[0].name)
                    raise
                if faults is not None:
                    stall = faults.fires("consumer_stall", current.index, current.attempt)
                    if stall is not None:
                        clock.sleep(stall.seconds)
                if outcomes is None:
                    outcomes = consume(current, payload)
                if current.plan is not None:
                    outcomes = memo.join(current.plan, outcomes, pending_keys)
                current = None  # fully consumed: nothing left to reclaim
                yield from outcomes
        finally:
            leftovers = list(window)
            if current is not None:
                leftovers.append(current)
            if leftovers:
                self._discard_in_flight(leftovers)
            window.clear()

    def _discard_in_flight(self, records: "list[_ChunkAttempt]") -> None:
        """Cleanup of shm segments for an abandoned or failed stream.

        Spec segments whose worker never ran (or died) are unlinked
        here; workers that did run unlinked theirs already, which the
        discard treats as success.  Completed-but-unconsumed outcome
        segments are unlinked immediately; results whose worker is
        *still running* are parked on ``_orphan_results`` and their
        segments swept once finished -- at the next parallel run or at
        :meth:`close` -- rather than blocking the abandoning caller for
        up to a window of chunk simulations.  (Workers killed by
        ``close`` mid-write are reclaimed by the shared resource
        tracker at process shutdown.)
        """
        for record in records:
            record.discard_spec_segment()
            if record.result is None:
                continue
            if record.transfer != "shm":
                continue  # pickle payloads hold no segments
            if not self._discard_result_segment(record.result):
                self._orphan_results.append(record.result)

    def _fold_worker_snapshot(self, snapshot: dict | None) -> None:
        """Merge one chunk's drained worker metrics into the session total."""
        if snapshot is None:
            return
        self._worker_snapshot = merge_snapshots(
            [self._worker_snapshot, MetricsSnapshot.from_dict(snapshot)]
        )

    @staticmethod
    def _discard_result_segment(result) -> bool:
        """Discard a finished result's outcome segment; False if still running."""
        if not result.ready():
            return False
        try:
            outcome_handle, _snapshot = result.get(0)
        except Exception:
            return True  # worker failed: nothing was written back
        if isinstance(outcome_handle, ShmHandle):
            # Timed-out pickle-mode results ready with a plain outcome
            # list: nothing to unlink, draining the result sufficed.
            discard_segment(outcome_handle.name)
        return True

    def _sweep_orphans(self) -> None:
        """Unlink outcome segments of since-finished abandoned chunks."""
        self._orphan_results = [
            result
            for result in self._orphan_results
            if not self._discard_result_segment(result)
        ]

    def _inline_car_pool(self) -> CarPool:
        if self._builder is None:
            # Shared process-wide pool: stays warm across sessions.
            return _process_pool()
        if self._car_pool is None:
            self._car_pool = self._builder.pool()
        return self._car_pool

    def _mp_pool(self, workers: int) -> multiprocessing.pool.Pool:
        pool = self._mp_pools.get(workers)
        if pool is None:
            # Start the shared-memory resource tracker *before* forking
            # workers: forked children then inherit one tracker, so a
            # segment registered on create in one process and unlinked
            # in another books out cleanly instead of each side's
            # private tracker reporting it leaked at shutdown.  (Under
            # a spawn start method trackers stay per-process and the
            # shutdown sweep may warn; transfers are correct either
            # way -- double unlinks are ignored.)
            if SHM_AVAILABLE:
                resource_tracker.ensure_running()
            src_root = str(Path(__file__).resolve().parents[2])
            pool = multiprocessing.get_context().Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=([src_root],),
            )
            self._mp_pools[workers] = pool
        return pool


def run_experiment(config: ExperimentConfig) -> FleetResult:
    """One-shot convenience: run *config* in a fresh session and close it."""
    with FleetSession(config) as session:
        return session.run()
