"""Per-vehicle simulation and the worker-side fleet machinery.

:func:`simulate_vehicle` turns one fully explicit
:class:`~repro.fleet.scenarios.VehicleSpec` into a
:class:`~repro.fleet.results.VehicleOutcome`: the car is built (or
acquired warm) through the shared
:class:`~repro.casestudy.builder.CaseStudyBuilder`, the kernel replays
the scripted actions, and every outcome field is a pure function of the
spec.  The module also hosts the per-process worker plumbing (builder
and car-pool caches, the picklable chunk function) that
:class:`~repro.api.session.FleetSession` drives.

Orchestration lives in :mod:`repro.api`: build an
:class:`~repro.api.config.ExperimentConfig` and run it through a
:class:`~repro.api.session.FleetSession`.

Worker-count invariance: each vehicle's timeline is a pure function of
its spec (the kernel replays scripted actions at scripted times with
seeded RNG streams), and aggregation folds outcomes in vehicle-id order
-- so a 4-worker run is bit-identical to a 1-worker run with the same
seed, which the fleet benchmark asserts.

The same purity lets a fleet that repeats a script simulate it once:
on the fast path (``ExperimentConfig.reference`` off), the session's
:class:`OutcomeMemo` serves a repeated behaviour key from the outcome
its first vehicle produced.  :func:`cut_work_items` classifies every
spec of an inline or parallel stream against it before anything runs,
so workers have no memo: the chunk functions simulate exactly the specs
they receive, on the path ``reference`` names.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.attacks.dos import BusFloodAttack, TargetedDisableAttack
from repro.attacks.fuzzing import FuzzingAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.scenarios import scenario_by_threat_id
from repro.can.trace import TraceLevel
from repro.casestudy.builder import CarPool, CaseStudyBuilder
from repro.core.enforcement import EnforcementConfig
from repro.core.updates import PolicyUpdateBundle, PolicyUpdateClient
from repro.fleet.kernel import FleetKernel
from repro.fleet.resilience import FaultEvent, apply_worker_fault
from repro.fleet.results import VehicleOutcome
from repro.fleet.scenarios import VehicleAction, VehicleSpec
from repro.fleet.transfer import (
    OutcomeBlock,
    ShmHandle,
    SpecBlock,
    read_block,
    write_block,
)
from repro.obs import clock
from repro.obs import metrics as _obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import observe_phase, span
from repro.vehicle.car import ConnectedCar

#: Enforcement label -> configuration (``None`` = unprotected baseline).
CONFIG_BY_LABEL: dict[str, EnforcementConfig | None] = {
    "unprotected": None,
    "selinux-only": EnforcementConfig.software_only(),
    "hpe-only": EnforcementConfig.hardware_only(),
    "hpe+selinux": EnforcementConfig.full(),
}

#: Signing key for simulated staggered OTA policy rollouts.
_OTA_SIGNING_KEY = b"fleet-ota-rollout-key"

#: This process's signed OTA bundles, keyed by everything a bundle's
#: bytes depend on: the base policy's content digest and name and the
#: successor's description.  The OEM side signs one bundle per rollout
#: wave instead of one per vehicle; every vehicle still verifies and
#: applies it itself.  Bounded by :data:`_OTA_BUNDLE_LIMIT`, oldest
#: entry evicted first.
_OTA_BUNDLES: dict[tuple[str, str, str], PolicyUpdateBundle] = {}
_OTA_BUNDLE_LIMIT = 32

#: Per-node inbox retention used by the fleet hot path.  Generously
#: larger than any attack-primitive observation window (replay captures
#: ~0.1 s of traffic) while bounding retained frame *objects* per
#: vehicle.  (The compact per-delivery id log that backs
#: ``received_ids()`` still grows with the timeline -- 4-8 bytes per
#: delivered frame versus hundreds per retained frame object.)
DEFAULT_FLEET_INBOX_LIMIT = 512

#: :func:`simulate_vehicle` options of a fleet's reference path
#: (``ExperimentConfig.reference``): full traces, unbounded inboxes and
#: the approved-list object decision path, on a fresh car per vehicle
#: (no pool) and with no outcome memo.  The fast path takes the defaults
#: and a pool.
REFERENCE_OPTIONS = {
    "trace_level": TraceLevel.FULL,
    "inbox_limit": None,
    "compile_tables": False,
}


def config_for_label(label: str, compile_tables: bool = True) -> EnforcementConfig | None:
    """Resolve an enforcement label from a vehicle spec.

    ``compile_tables=False`` selects the approved-list object decision
    path instead of the compiled bitmask fast path (benchmark use;
    decisions are bit-identical either way).
    """
    try:
        config = CONFIG_BY_LABEL[label]
    except KeyError:
        raise KeyError(
            f"unknown enforcement label {label!r}; known: {sorted(CONFIG_BY_LABEL)}"
        ) from None
    if config is not None and config.compile_tables != compile_tables:
        config = replace(config, compile_tables=compile_tables)
    return config


class _AttackTally:
    """Running attack bookkeeping for one vehicle's timeline."""

    def __init__(self) -> None:
        self.attempted = 0
        self.mitigated = 0

    def record(self, mitigated: bool) -> None:
        self.attempted += 1
        if mitigated:
            self.mitigated += 1


def _advance_to(kernel: FleetKernel, car: ConnectedCar) -> None:
    """Bring the car's bus clock up to the kernel clock.

    Attack primitives advance the car internally (``car.run(0.05)``
    inside scenario bodies), so the bus may already be ahead; only the
    forward direction is meaningful.  An action whose time the car has
    already passed runs late, at the car's clock.  With telemetry on,
    each late action counts in ``simulate.late_actions`` and its lag in
    simulated seconds lands in ``simulate.late_action_lag_seconds``.
    """
    delta = kernel.now - car.scheduler.now
    if delta > 0:
        car.run(delta)
    elif delta < 0:
        registry = _obs_metrics.ACTIVE
        if registry.enabled:
            registry.inc("simulate.late_actions")
            registry.observe("simulate.late_action_lag_seconds", -delta)


def _do_drive(kernel: FleetKernel, car: ConnectedCar, action: VehicleAction) -> None:
    car.sensors.set_pedals(accel=int(action.param("accel", 60)), brake=0)
    car.sensors.set_gear(1)
    car.door_locks.set_motion(True)
    car.sync_enforcement()


def _do_park_and_arm(kernel: FleetKernel, car: ConnectedCar, action: VehicleAction) -> None:
    car.park_and_arm()


def _do_attack(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    scenario = scenario_by_threat_id(str(action.param("threat_id")))
    outcome = scenario.execute(car)
    tally.record(outcome.mitigated)


def _do_targeted_dos(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    attack = TargetedDisableAttack(
        car,
        target=str(action.param("target", "EV-ECU")),
        attacker_name="FleetDosNode",
    )
    result = attack.execute(repetitions=int(action.param("repetitions", 3)))
    tally.record(not result.target_disabled)


def _do_flood(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    attack = BusFloodAttack(
        car, flood_id=int(action.param("flood_id", 0)), attacker_name="FleetFloodNode"
    )
    result = attack.execute(
        frames=int(action.param("frames", 50)),
        window_s=float(action.param("window_s", 0.1)),
    )
    # A rogue node always reaches the bus; the storm counts as weathered
    # when legitimate traffic kept the majority of bus slots.
    tally.record(result.legitimate_delivery_ratio >= 0.5)


def _do_replay(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    messages = action.param("messages", ())
    capture_ids = {car.catalog.id_of(str(name)) for name in messages} or None
    attack = ReplayAttack(car, capture_ids=capture_ids)
    # Generate one legitimate command while stationary for the rogue
    # node to sniff (remote unlock from the telematics unit), capture,
    # then replay the recording once the vehicle is in motion.
    if messages:
        car.telematics.send_raw(car.catalog.id_of(str(messages[0])), b"\x01")
    attack.capture(float(action.param("capture_duration_s", 0.1)))
    hazards_before = len(car.door_locks.hazard_events)
    healthy_before = all(car.health().values())
    car.sensors.set_pedals(accel=50, brake=0)
    car.door_locks.set_motion(True)
    car.sync_enforcement()
    attack.replay()
    hazardous = len(car.door_locks.hazard_events) > hazards_before
    degraded = healthy_before and not all(car.health().values())
    tally.record(not (hazardous or degraded))


def _do_fuzz(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    attack = FuzzingAttack(car, rng=kernel.stream("fuzz"))
    result = attack.execute(frames=int(action.param("frames", 100)))
    tally.record(not result.components_disabled)


def _do_policy_update(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction
) -> bool:
    """Apply a version-bumped policy through the signed OTA update path.

    Unprotected vehicles have no coordinator and skip the update (they
    are exactly the population an OTA rollout cannot reach).  Returns
    whether an update was applied.
    """
    coordinator = getattr(car, "enforcement_coordinator", None)
    if coordinator is None:
        return False
    policy = coordinator.policy
    description = str(action.param("description", "fleet policy rollout"))
    key = (policy.digest, policy.name, description or policy.description)
    bundle = _OTA_BUNDLES.get(key)
    if bundle is None:
        bundle = PolicyUpdateBundle.create(policy.next_version(description), _OTA_SIGNING_KEY)
        if len(_OTA_BUNDLES) >= _OTA_BUNDLE_LIMIT:
            del _OTA_BUNDLES[next(iter(_OTA_BUNDLES))]
        _OTA_BUNDLES[key] = bundle
    PolicyUpdateClient(coordinator, _OTA_SIGNING_KEY).apply(bundle, car)
    return True


def _execute_action(
    kernel: FleetKernel, car: ConnectedCar, action: VehicleAction, tally: _AttackTally
) -> None:
    """Dispatch one scripted action against the live vehicle."""
    _advance_to(kernel, car)
    if action.kind == "drive":
        _do_drive(kernel, car, action)
    elif action.kind == "park_and_arm":
        _do_park_and_arm(kernel, car, action)
    elif action.kind == "attack":
        _do_attack(kernel, car, action, tally)
    elif action.kind == "targeted_dos":
        _do_targeted_dos(kernel, car, action, tally)
    elif action.kind == "flood":
        _do_flood(kernel, car, action, tally)
    elif action.kind == "replay":
        _do_replay(kernel, car, action, tally)
    elif action.kind == "fuzz":
        _do_fuzz(kernel, car, action, tally)
    elif action.kind == "policy_update":
        _do_policy_update(kernel, car, action)
    else:
        raise ValueError(f"unknown fleet action kind {action.kind!r}")


def simulate_vehicle(
    spec: VehicleSpec,
    builder: CaseStudyBuilder | None = None,
    trace_level: TraceLevel | str = TraceLevel.COUNTERS,
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT,
    pool: CarPool | None = None,
    compile_tables: bool = True,
) -> VehicleOutcome:
    """Simulate one vehicle's full timeline and report its outcome.

    The outcome's deterministic fields depend only on *spec*: the car is
    built fresh (or acquired pristine from *pool* -- a reset car's
    timeline is bit-identical to a fresh build's), the kernel replays
    the scripted actions at their scripted times, and all randomness
    comes from streams seeded by ``spec.seed``.  ``trace_level``
    selects the bus-trace retention -- every count that feeds the
    outcome comes from the trace's always-on O(1) counters, so outcomes
    are bit-identical across ``FULL``, ``RING`` and ``COUNTERS``.
    ``compile_tables`` selects the HPE decision path (bitmask fast path
    versus approved-list objects); decisions are identical either way.

    The outcome splits wall-clock into ``build_seconds`` (car
    construction or pool acquisition) and ``wall_seconds`` (pure
    simulation), so throughput metrics are not polluted by setup cost.
    """
    build_start = clock.wall()
    config = config_for_label(spec.enforcement, compile_tables=compile_tables)
    if pool is not None:
        car = pool.acquire(
            config,
            start_periodic_traffic=True,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
        )
    else:
        if builder is None:
            builder = _process_builder()
        car = builder.build_car(
            config,
            start_periodic_traffic=True,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
        )
    wall_start = clock.wall()
    build_seconds = wall_start - build_start
    kernel = FleetKernel(spec.seed)
    tally = _AttackTally()
    for action in spec.actions:
        kernel.schedule(
            action.time,
            lambda k, c, a=action: _execute_action(k, c, a, tally),
            label=action.kind,
        )
    kernel.run(context=car, until=spec.duration_s)
    remaining = spec.duration_s - car.scheduler.now
    if remaining > 0:
        car.run(remaining)

    coordinator = getattr(car, "enforcement_coordinator", None)
    hpe_decisions = coordinator.total_hpe_decisions() if coordinator else 0
    policy_pushes = coordinator.policy_pushes if coordinator else 0
    hpe_latency = (
        sum(engine.total_latency_s for engine in coordinator.engines.values())
        if coordinator
        else 0.0
    )
    # Count *policy* blocks only: firmware acceptance filters discard
    # non-subscribed broadcasts on every car, so including them would
    # mask what enforcement itself contributed.  Served by the trace's
    # O(1) counters -- no record scan, valid at every retention level.
    policy_blocks = car.bus.trace.policy_block_count()
    wall_seconds = clock.wall() - wall_start
    # Telemetry rides on readings already taken: the per-vehicle phase
    # samples reuse build/wall timings and the trace's O(1) counters,
    # so the enabled path adds no clock reads to the simulation itself
    # and the disabled path is this single branch.
    registry = _obs_metrics.ACTIVE
    if registry.enabled:
        registry.inc("vehicles.simulated")
        observe_phase(registry, "simulate.vehicle", wall_seconds)
        observe_phase(registry, "simulate.build", build_seconds)
        car.bus.trace.export_metrics(registry)
        registry.inc("bus.fanout.plans", car.bus.fanout_plans)
        registry.inc("bus.fanout.planned_frames", car.bus.fanout_planned_frames)
        registry.inc("bus.fanout.fused_frames", car.bus.fanout_fused_frames)
    return VehicleOutcome(
        vehicle_id=spec.vehicle_id,
        scenario=spec.scenario,
        enforcement=spec.enforcement,
        simulated_seconds=car.scheduler.now,
        frames_transmitted=car.bus.statistics.frames_transmitted,
        frames_delivered=car.bus.statistics.frames_delivered,
        frames_blocked=policy_blocks,
        hpe_decisions=hpe_decisions,
        policy_pushes=policy_pushes,
        attacks_attempted=tally.attempted,
        attacks_mitigated=tally.mitigated,
        mean_decision_latency_s=(hpe_latency / hpe_decisions if hpe_decisions else 0.0),
        healthy=all(car.health().values()),
        wall_seconds=wall_seconds,
        build_seconds=build_seconds,
    )


# ---------------------------------------------------------------------------
# Outcome memo
# ---------------------------------------------------------------------------

#: Most keys one :class:`OutcomeMemo` holds; classifying a new key past
#: it evicts the oldest.  Repeating fleets draw a few dozen distinct
#: keys, so the bound only matters for heterogeneous streams, where it
#: caps the memo at a few MiB.  Eviction happens as specs are
#: classified, so which specs run the kernel stays a function of the
#: stream (see :func:`cut_work_items`).
MEMO_LIMIT = 4096

#: Action kinds that draw from the vehicle's seeded kernel streams
#: (``fuzz`` fuzzes from ``kernel.stream("fuzz")``): a spec carrying one
#: has a seed-dependent outcome, so its seed joins its memo key.
SEEDED_ACTION_KINDS = frozenset({"fuzz"})


class _Cell:
    """One behaviour key's outcome, filled when its first occurrence joins.

    Every later occurrence classified while the key is in the memo holds
    the cell itself, so evicting the key cannot strand a duplicate that
    was classified before the eviction.  ``stream`` names the stream
    that classified the first occurrence: until the cell is filled, no
    other stream waits on it.
    """

    __slots__ = ("key", "stream", "outcome")

    def __init__(self, key: tuple, stream: object) -> None:
        self.key = key
        self.stream = stream
        self.outcome: VehicleOutcome | None = None


class OutcomeMemo:
    """Bounded memo of vehicle outcomes keyed by what determines them.

    A vehicle's deterministic outcome is a function of its behaviour key
    ``(scenario, enforcement, duration_s, actions)`` -- not of its id,
    not of the ECU inbox bound (only attack nodes read an inbox, and
    they keep every frame), and not of its seed unless an action draws
    from a seeded stream (:data:`SEEDED_ACTION_KINDS`).  The first
    vehicle with a key runs the kernel; every later one gets that
    outcome under its own id, with zeroed timings and ``memo_hit`` set,
    so :attr:`~repro.fleet.results.FleetResult.kernel_runs` counts only
    real simulations.

    One memo per session serves inline and parallel streams, shared
    across work items and runs, through one classifier:
    :func:`cut_work_items` cuts a stream into work items before anything
    runs, and :meth:`join` fills each item's cells from its kernel runs.
    A stream that ends before joining an item calls :meth:`discard` on
    it.  The memo stores its own copy of each outcome, so nothing it
    hands out stays reachable through it.  Outcomes hold only for the
    builder that produced them, so no memo is ever shared between
    sessions.
    """

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        #: Key -> cell, oldest classified first.
        self._cells: dict[tuple, _Cell] = {}

    @staticmethod
    def key(spec: VehicleSpec) -> tuple:
        """Everything *spec*'s deterministic outcome is a function of."""
        seeded = any(action.kind in SEEDED_ACTION_KINDS for action in spec.actions)
        return (
            spec.scenario,
            spec.enforcement,
            spec.duration_s,
            spec.actions,
            spec.seed if seeded else None,
        )

    def join(
        self, plan: tuple, outcomes: Sequence[VehicleOutcome]
    ) -> Iterator[VehicleOutcome]:
        """Fill a work item's cells; return its outcomes in vehicle-id order.

        *plan* comes from :func:`cut_work_items`, and *outcomes* are the
        kernel runs of the item's misses, in the order it cut them.  The
        cells are filled before this returns, so every later item can
        be served from them.
        """
        sources, pending = plan
        for cell, outcome in zip(pending, outcomes, strict=True):
            # The template is a copy, so the memo never pins an outcome
            # it handed to a caller (a streamed fleet releases each one).
            cell.outcome = replace(
                outcome, wall_seconds=0.0, build_seconds=0.0, memo_hit=True
            )
        return self._served(sources, outcomes)

    def discard(self, plan: tuple) -> None:
        """Forget the unfilled cells of an item its stream will never join."""
        cells = self._cells
        for cell in plan[1]:
            if cell.outcome is None and cells.get(cell.key) is cell:
                del cells[cell.key]

    def _served(
        self, sources: list, outcomes: Sequence[VehicleOutcome]
    ) -> Iterator[VehicleOutcome]:
        own = iter(outcomes)
        for vehicle_id, cell in sources:
            yield next(own) if cell is None else self._hit(cell.outcome, vehicle_id)

    @staticmethod
    def _hit(stored: VehicleOutcome, vehicle_id: int) -> VehicleOutcome:
        registry = _obs_metrics.ACTIVE
        if registry.enabled:
            registry.inc("simulate.memo_hits")
        # A field-for-field copy that skips replace()'s __init__ (the
        # template was validated when it was stored): a parent-side cost
        # paid once per served vehicle.  Assigning a fresh dict, rather
        # than filling the new instance's own, keeps attribute reads on
        # the copy (the aggregator's fold) as fast as on a built one.
        outcome = object.__new__(VehicleOutcome)
        object.__setattr__(outcome, "__dict__", {**vars(stored), "vehicle_id": vehicle_id})
        return outcome


def cut_work_items(
    specs: Iterable[VehicleSpec],
    chunk_size: int,
    max_misses: int,
    memo: OutcomeMemo | None = None,
) -> Iterator[tuple[int, list[VehicleSpec], tuple | None]]:
    """Cut a spec stream into work items, lazily: ``(vehicles, misses, plan)``.

    An item closes at *chunk_size* vehicles or at *max_misses* misses,
    whichever comes first, and pulls from *specs* only the vehicles it
    holds, so the parent holds one item's specs however long the stream
    is.  With a *memo*, every spec is classified in stream order: a
    spec whose key the memo holds is served from that key's cell, and
    any other spec is a miss whose key enters the memo (evicting the
    oldest key at :data:`MEMO_LIMIT`).  Only the misses run the kernel;
    *plan* is for :meth:`OutcomeMemo.join` (or
    :meth:`OutcomeMemo.discard`) and holds vehicle ids and cells, never
    the specs.  Without a memo every spec is a miss and *plan* is
    ``None``.

    Which specs miss is therefore a function of the stream and of the
    memo's keys when it starts -- not of the item sizes, the worker
    count or when items are joined -- so neither are the kernel runs.
    Cutting by misses spreads a repeating stream's first occurrences
    over several items (so over several workers) instead of leaving
    them all in the first id range.
    """
    iterator = iter(specs)
    if memo is None:
        size = min(chunk_size, max_misses)
        while misses := list(islice(iterator, size)):
            yield len(misses), misses, None
        return
    cells = memo._cells
    key_of = OutcomeMemo.key
    stream = object()
    while True:
        sources: list[tuple[int, _Cell | None]] = []
        pending: list[_Cell] = []
        misses: list[VehicleSpec] = []
        try:
            for spec in iterator:
                key = key_of(spec)
                cell = cells.get(key)
                if cell is None or (cell.outcome is None and cell.stream is not stream):
                    cell = _Cell(key, stream)
                    cells.pop(key, None)
                    if len(cells) >= MEMO_LIMIT:
                        del cells[next(iter(cells))]
                    cells[key] = cell
                    pending.append(cell)
                    misses.append(spec)
                    sources.append((spec.vehicle_id, None))
                else:
                    sources.append((spec.vehicle_id, cell))
                if len(sources) == chunk_size or len(misses) == max_misses:
                    break
        except BaseException:
            # The stream failed mid-item: nobody will join its cells.
            memo.discard((sources, pending))
            raise
        if not sources:
            return
        yield len(sources), misses, (sources, pending)


# ---------------------------------------------------------------------------
# Worker pool plumbing
# ---------------------------------------------------------------------------

#: Per-process builder cache: the policy derivation runs once per worker,
#: not once per vehicle (the fleet hot path the decision cache also serves).
_PROCESS_BUILDER: CaseStudyBuilder | None = None

#: Per-process vehicle pool: one warm car per enforcement configuration,
#: reset between vehicles instead of rebuilt (see
#: :class:`repro.casestudy.builder.CarPool`).
_PROCESS_POOL: CarPool | None = None


def _process_builder() -> CaseStudyBuilder:
    global _PROCESS_BUILDER
    if _PROCESS_BUILDER is None:
        _PROCESS_BUILDER = CaseStudyBuilder()
    return _PROCESS_BUILDER


def _process_pool() -> CarPool:
    global _PROCESS_POOL
    if _PROCESS_POOL is None:
        _PROCESS_POOL = _process_builder().pool()
    return _PROCESS_POOL


def _init_worker(extra_paths: list[str]) -> None:
    """Pool initializer: make ``src`` importable under spawn and pre-derive."""
    for path in extra_paths:
        if path not in sys.path:
            sys.path.insert(0, path)
    _process_builder()


#: Per-process worker registry (telemetry-enabled chunks only): created
#: once, activated for the chunk's duration, drained into the snapshot
#: that rides back with the chunk's outcomes.
_WORKER_REGISTRY: MetricsRegistry | None = None

#: Pool size already reported by this worker: snapshots carry the
#: *growth* since the previous drain, so the parent-side gauge sum over
#: all chunks equals the live pooled-car total across workers.
_POOL_SIZE_REPORTED = 0


def _begin_chunk_telemetry(telemetry: bool) -> MetricsRegistry | None:
    """Activate (or quiesce) this worker's registry for one chunk."""
    global _WORKER_REGISTRY
    if not telemetry:
        # A disabled run on a warm pool must pay no-op costs even if a
        # previous telemetry-enabled run left the registry active.
        if _obs_metrics.ACTIVE.enabled:
            _obs_metrics.activate(_obs_metrics.NOOP_REGISTRY)
        return None
    if _WORKER_REGISTRY is None:
        _WORKER_REGISTRY = MetricsRegistry()
    _obs_metrics.activate(_WORKER_REGISTRY)
    return _WORKER_REGISTRY


def _drain_chunk_telemetry(registry: MetricsRegistry | None) -> dict | None:
    """Export per-chunk cache/pool state, then drain the registry.

    The evaluator's lifetime hit/miss counters are exported as deltas
    (:meth:`~repro.core.policy_engine.PolicyEvaluator.metrics_delta`),
    so merging every chunk snapshot reproduces exact process totals.
    Returns the snapshot as a plain dict -- the only telemetry payload
    that crosses the worker pipe.
    """
    global _POOL_SIZE_REPORTED
    if registry is None:
        return None
    for key, delta in _process_builder().evaluator.metrics_delta().items():
        if delta:
            registry.inc(f"policy.{key}", delta)
    if _PROCESS_POOL is not None:
        size = len(_PROCESS_POOL)
        if size != _POOL_SIZE_REPORTED:
            registry.add_gauge("pool.size", float(size - _POOL_SIZE_REPORTED))
            _POOL_SIZE_REPORTED = size
    snapshot = registry.drain().to_dict()
    _obs_metrics.activate(_obs_metrics.NOOP_REGISTRY)
    return snapshot


def _simulate_specs(specs: Iterable[VehicleSpec], reference: bool) -> list[VehicleOutcome]:
    builder = _process_builder()
    if reference:
        simulate = partial(simulate_vehicle, builder=builder, **REFERENCE_OPTIONS)
    else:
        simulate = partial(simulate_vehicle, builder=builder, pool=_process_pool())
    return [simulate(spec) for spec in specs]


def _simulate_chunk(
    specs: Sequence[VehicleSpec],
    reference: bool = False,
    telemetry: bool = False,
    fault: "FaultEvent | None" = None,
) -> tuple[list[VehicleOutcome], dict | None]:
    """Simulate one pickled chunk; returns ``(outcomes, metrics snapshot)``.

    Every spec runs the kernel: the parent already served the chunk's
    memo hits and sends only its misses.
    """
    apply_worker_fault(fault)
    registry = _begin_chunk_telemetry(telemetry)
    with span("simulate"):
        outcomes = _simulate_specs(specs, reference)
    return outcomes, _drain_chunk_telemetry(registry)


def _simulate_chunk_shm(
    handle: ShmHandle,
    reference: bool = False,
    telemetry: bool = False,
    fault: "FaultEvent | None" = None,
) -> tuple[ShmHandle, dict | None]:
    """Worker entry point for shared-memory spec transfer.

    Decodes (and unlinks) the parent's :class:`SpecBlock` segment,
    simulates the chunk exactly as :func:`_simulate_chunk` would, and
    returns the outcomes as a fresh :class:`OutcomeBlock` segment --
    the only things crossing the pipe are two ``(name, size)`` handles
    plus (telemetry runs only) the chunk's drained metrics snapshot.
    Telemetry activates before the spec read and drains after the
    outcome write so the worker-side shm counters cover both segments.
    Injected faults strike *before* the spec read: a crashing worker
    leaves its segment behind for the parent's timeout path to reclaim,
    exactly like a real mid-flight death.
    """
    apply_worker_fault(fault)
    registry = _begin_chunk_telemetry(telemetry)
    with span("simulate.decode_specs"):
        specs = SpecBlock.from_bytes(read_block(handle, unlink=True)).decode()
    with span("simulate"):
        outcomes = _simulate_specs(specs, reference)
    with span("simulate.encode_outcomes"):
        out_handle = write_block(OutcomeBlock.encode(outcomes).to_bytes())
    return out_handle, _drain_chunk_telemetry(registry)
