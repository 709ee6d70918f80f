"""Fault-tolerant fleet execution: retry, recovery, degradation, injection.

The invariant everything here leans on: a chunk is a pure function of
its specs, so *any* recovery action -- a retry on a surviving worker, a
shm->pickle downgrade, an inline fallback in the parent -- produces
bit-identical outcomes, and the final :class:`FleetResult` fingerprint
matches the fault-free run exactly.  The fault-injection harness is
itself deterministic, so the chaos replays too.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.fleet.resilience import (
    FAULT_KINDS,
    ChunkFailedError,
    CircuitBreaker,
    FaultEvent,
    FaultPlan,
    InjectedFaultError,
    RetryPolicy,
    apply_worker_fault,
)
from repro.fleet.runner import OutcomeMemo
from repro.fleet.scenarios import FleetScenario, VehicleAction, temporary_scenario
from repro.fleet.transfer import SHM_AVAILABLE, shm_segment_names
from repro.obs import clock

#: Small-and-fast fault-test fleet: 48 cheap vehicles, cut into work
#: items of at most 6.
VEHICLES = 48
CHUNK = 6


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        scenario="baseline_cruise",
        vehicles=VEHICLES,
        seed=7,
        workers=4,
        chunk_size=CHUNK,
        chunk_timeout_s=2.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fingerprint(config: ExperimentConfig, plan: FaultPlan | None = None) -> str:
    with FleetSession(config, fault_plan=plan) as session:
        return session.run().fingerprint()


def _settle_orphans(session: FleetSession, rounds: int = 100) -> None:
    """Wait for straggler workers so their segments can be swept."""
    for _ in range(rounds):
        session._sweep_orphans()
        if not session._orphan_results:
            return
        clock.sleep(0.05)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        a = policy.backoff_delay(seed=3, chunk_index=5, attempt=2)
        b = policy.backoff_delay(seed=3, chunk_index=5, attempt=2)
        assert a == b

    def test_delay_varies_with_the_stream_name(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(3, 5, 2) != policy.backoff_delay(3, 6, 2)
        assert policy.backoff_delay(3, 5, 2) != policy.backoff_delay(4, 5, 2)

    def test_base_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5, jitter=0.0
        )
        assert policy.backoff_delay(0, 0, 1) == pytest.approx(0.1)
        assert policy.backoff_delay(0, 0, 2) == pytest.approx(0.2)
        assert policy.backoff_delay(0, 0, 4) == pytest.approx(0.5)  # capped

    def test_jitter_only_shrinks_the_delay(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        for attempt in range(1, 6):
            delay = policy.backoff_delay(11, 2, attempt)
            base = min(policy.backoff_max_s, 0.1 * 2.0 ** (attempt - 1))
            assert base * 0.5 <= delay <= base

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff_delay(0, 0, 0)


class TestCircuitBreaker:
    def test_escalates_one_level_per_threshold_burst(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.level == 1
        assert breaker.transfer_degraded and not breaker.inline_degraded
        for _ in range(3):
            breaker.record_failure()
        assert breaker.level == 2
        assert breaker.inline_degraded

    def test_success_resets_the_consecutive_count_not_the_level(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.level == 0
        breaker.record_failure()
        assert breaker.level == 1
        breaker.record_success()
        assert breaker.level == 1  # degradation is a ratchet within a run

    def test_disabled_breaker_counts_but_never_trips(self):
        breaker = CircuitBreaker(threshold=1, enabled=False)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.level == 0
        assert breaker.total_failures == 10


class TestFaultPlan:
    def test_parse_single_event(self):
        plan = FaultPlan.parse("worker_crash:chunk=3")
        assert plan.events == (FaultEvent(kind="worker_crash", chunk=3),)

    def test_parse_multiple_events_with_fields(self):
        plan = FaultPlan.parse(
            "chunk_error:chunk=0,attempt=any;stall:chunk=2,seconds=1.5"
        )
        assert plan.events[0] == FaultEvent("chunk_error", 0, attempt=None)
        assert plan.events[1] == FaultEvent("stall", 2, seconds=1.5)

    def test_spec_round_trips(self):
        spec = "chunk_error:chunk=0,attempt=any;stall:chunk=2,seconds=1.5"
        assert FaultPlan.parse(FaultPlan.parse(spec).to_spec()) == FaultPlan.parse(spec)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "worker_crash",
            "worker_crash:attempt=1",
            "meteor_strike:chunk=1",
            "worker_crash:chunk=1,phase=late",
            "worker_crash:chunk=",
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_attempt_matching(self):
        plan = FaultPlan.parse("chunk_error:chunk=2,attempt=1")
        assert plan.worker_fault(2, 1) is not None
        assert plan.worker_fault(2, 0) is None
        assert plan.worker_fault(3, 1) is None
        persistent = FaultPlan.parse("chunk_error:chunk=2,attempt=any")
        assert persistent.worker_fault(2, 0) and persistent.worker_fault(2, 9)

    def test_parent_side_kinds_never_ship_to_workers(self):
        plan = FaultPlan.parse("shm_drop:chunk=1;consumer_stall:chunk=1")
        assert plan.worker_fault(1, 0) is None
        assert plan.fires("shm_drop", 1, 0) is not None
        assert plan.fires("consumer_stall", 1, 0) is not None

    def test_random_plan_is_a_pure_function_of_its_arguments(self):
        a = FaultPlan.random(seed=5, chunks=20)
        b = FaultPlan.random(seed=5, chunks=20)
        assert a == b
        assert a != FaultPlan.random(seed=6, chunks=20)
        for event in a.events:
            assert event.kind in FAULT_KINDS

    def test_events_are_picklable(self):
        import pickle

        event = FaultEvent("worker_crash", 3)
        assert pickle.loads(pickle.dumps(event)) == event

    def test_apply_worker_fault(self):
        apply_worker_fault(None)  # no-op
        with pytest.raises(InjectedFaultError, match="chunk=4"):
            apply_worker_fault(FaultEvent("chunk_error", 4))
        apply_worker_fault(FaultEvent("stall", 0, seconds=0.0))  # returns


class TestSessionWiring:
    def test_fault_plan_must_be_a_fault_plan(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            FleetSession(_config(), fault_plan="worker_crash:chunk=1")

    def test_exhausted_retries_raise_chunk_failed_without_degrade(self):
        plan = FaultPlan.parse("chunk_error:chunk=1,attempt=any")
        config = _config(retry=1, degrade=False)
        with FleetSession(config, fault_plan=plan) as session:
            with pytest.raises(ChunkFailedError, match="chunk 1 failed after 2"):
                session.run()

    def test_transient_fault_heals_on_the_first_retry(self):
        plan = FaultPlan.parse("chunk_error:chunk=1")  # attempt=0 only
        config = _config(retry=1, degrade=False)
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            counters = dict(session.metrics_snapshot().counters)
        assert result.fingerprint() == _fingerprint(config)
        assert counters["resilience.retries"] == 1
        assert counters["resilience.chunk_failures"] == 1
        assert "resilience.degraded_chunks" not in counters

    def test_persistent_fault_degrades_to_inline(self):
        plan = FaultPlan.parse("chunk_error:chunk=1,attempt=any")
        config = _config(retry=1, degrade=True)
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            counters = dict(session.metrics_snapshot().counters)
        assert result.fingerprint() == _fingerprint(config)
        assert counters["resilience.degraded_chunks"] == 1

    def test_breaker_downgrades_transfer_under_repeated_failures(self):
        # Three persistent chunk errors: the breaker trips shm->pickle
        # while retries are still being submitted, then the attempt
        # budgets exhaust into inline fallbacks -- the whole ladder.
        plan = FaultPlan.parse(
            "chunk_error:chunk=0,attempt=any;"
            "chunk_error:chunk=1,attempt=any;"
            "chunk_error:chunk=2,attempt=any"
        )
        config = _config(retry=2, degrade=True, spec_transfer="shm")
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            counters = dict(session.metrics_snapshot().counters)
        assert result.fingerprint() == _fingerprint(config)
        assert counters["resilience.degraded_chunks"] == 3
        if SHM_AVAILABLE:
            assert counters.get("resilience.transfer_downgrades", 0) >= 1

    def test_backoff_delays_are_recorded(self):
        plan = FaultPlan.parse("chunk_error:chunk=0")
        with FleetSession(_config(), fault_plan=plan, telemetry=True) as session:
            session.run()
            snapshot = session.metrics_snapshot()
        histograms = dict(snapshot.histograms)
        assert "resilience.backoff_delay_seconds" in histograms


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("spec_transfer", ["shm", "pickle"])
@pytest.mark.parametrize(
    "spec",
    [
        "worker_crash:chunk=1",
        "chunk_error:chunk=2",
        "shm_drop:chunk=3",
        "stall:chunk=1,seconds=8.0",  # >> chunk_timeout_s: a hung worker
        "consumer_stall:chunk=2,seconds=0.2",
    ],
)
class TestFingerprintParityMatrix:
    """Every fault kind x worker count x transfer matches fault-free.

    ``workers=1`` runs take the inline path where infrastructure faults
    have nothing to strike -- included to pin that a FaultPlan never
    changes single-process results either.
    """

    def test_fingerprint_matches_fault_free(self, workers, spec_transfer, spec):
        config = _config(workers=workers, spec_transfer=spec_transfer)
        baseline = _fingerprint(config)
        assert _fingerprint(config, FaultPlan.parse(spec)) == baseline


class TestRandomSchedules:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_random_fault_schedules_preserve_the_fingerprint(self, seed):
        config = _config(vehicles=24, chunk_timeout_s=2.0)
        plan = FaultPlan.random(
            seed=seed,
            chunks=24 // CHUNK,
            kinds=("chunk_error", "shm_drop"),
            rate=0.5,
        )
        assert _fingerprint(config, plan) == _fingerprint(config)


@pytest.mark.skipif(not SHM_AVAILABLE, reason="POSIX shared memory unavailable")
class TestShmDrop:
    def test_drop_fires_however_slow_the_parent_is(self, monkeypatch):
        # A 1 s stall in the parent around the drop gives an idle
        # worker ample time to read the segment -- unless the segment
        # is unlinked before the chunk is submitted.
        fires = FaultPlan.fires

        def slow_fires(plan, kind, chunk, attempt):
            event = fires(plan, kind, chunk, attempt)
            if event is not None and kind == "shm_drop":
                clock.sleep(1.0)
            return event

        monkeypatch.setattr(FaultPlan, "fires", slow_fires)
        config = _config(vehicles=24, workers=2, chunk_size=4, spec_transfer="shm")
        plan = FaultPlan.parse("shm_drop:chunk=0")
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            counters = dict(session.metrics_snapshot().counters)
        assert counters["resilience.chunk_failures"] == 1
        assert counters["resilience.retries"] == 1
        assert result.fingerprint() == _fingerprint(config)


def _chunk_with_nothing_to_run(config: ExperimentConfig) -> int:
    """Index of the first work item whose every key an earlier item holds.

    Recomputed from the keys by the cutting rule: an item closes at
    ``chunk_size`` vehicles or at ``ceil(chunk_size / (workers + 2))``
    first occurrences, whichever comes first.
    """
    with FleetSession(config) as session:
        specs = session.vehicle_specs()
    size = config.chunk_size
    cap = -(-size // (config.workers + 2))
    seen: set = set()
    index, vehicles, misses = 0, 0, 0
    for spec in specs:
        key = OutcomeMemo.key(spec)
        if key not in seen:
            seen.add(key)
            misses += 1
        vehicles += 1
        if vehicles == size or misses == cap:
            if misses == 0:
                return index
            index, vehicles, misses = index + 1, 0, 0
    if vehicles and not misses:
        return index
    raise AssertionError("every work item holds a first occurrence")


class TestChunksWithNothingToRun:
    """The session's memo serves every vehicle of such a chunk, so it is
    never submitted: worker-side faults aimed at it cannot fire, while
    consumer-side ones still do."""

    def test_worker_fault_on_an_all_duplicate_chunk_cannot_fire(self):
        config = _config(chunk_size=2)
        chunk = _chunk_with_nothing_to_run(config)
        plan = FaultPlan.parse(f"chunk_error:chunk={chunk},attempt=any")
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("resilience.chunk_failures") == 0
        assert result.fingerprint() == _fingerprint(config)

    def test_consumer_stall_still_fires_on_it(self, monkeypatch):
        config = _config(chunk_size=2)
        chunk = _chunk_with_nothing_to_run(config)
        slept = []
        monkeypatch.setattr(clock, "sleep", slept.append)
        plan = FaultPlan.parse(f"consumer_stall:chunk={chunk},seconds=0.25")
        assert _fingerprint(config, plan) == _fingerprint(config)
        assert slept == [0.25]


@pytest.mark.skipif(not SHM_AVAILABLE, reason="POSIX shared memory unavailable")
class TestSegmentHygiene:
    def test_induced_failures_leak_no_segments(self):
        before = shm_segment_names()
        plan = FaultPlan.parse(
            "worker_crash:chunk=1;chunk_error:chunk=3,attempt=any;shm_drop:chunk=5"
        )
        config = _config(retry=1, degrade=True)
        with FleetSession(config, fault_plan=plan) as session:
            session.run()
            _settle_orphans(session)
        assert sorted(shm_segment_names() - before) == []

    def test_abandoned_stream_leaks_no_segments(self):
        before = shm_segment_names()
        with FleetSession(_config()) as session:
            stream = session.iter_outcomes()
            next(stream)
            stream.close()  # abandon with a full window in flight
            _settle_orphans(session)
        assert sorted(shm_segment_names() - before) == []

    def test_failed_run_leaks_no_segments(self):
        before = shm_segment_names()
        plan = FaultPlan.parse("chunk_error:chunk=2,attempt=any")
        config = _config(retry=0, degrade=False)
        with FleetSession(config, fault_plan=plan) as session:
            with pytest.raises(ChunkFailedError):
                session.run()
            _settle_orphans(session)
        assert sorted(shm_segment_names() - before) == []

    def test_a_script_failing_mid_stream_leaks_no_segments(self):
        # The parent cuts ahead while workers run: when the lazy spec
        # stream raises, submitted items -- finished or not -- hold
        # segments that the abandoned window must reclaim.
        def failing_script(index, rng, params):
            if index == 30:
                raise RuntimeError("script failed at vehicle 30")
            return (VehicleAction(0.0, "drive", {"accel": 30 + index}),)

        scenario = FleetScenario(
            name="failing_mid_stream",
            description="raises while the window is in flight",
            duration_s=0.05,
            mix=(("hpe+selinux", 1.0),),
            script=failing_script,
        )
        before = shm_segment_names()
        config = _config(scenario="failing_mid_stream", spec_transfer="shm")
        with temporary_scenario(scenario), FleetSession(config) as session:
            with pytest.raises(RuntimeError, match="vehicle 30"):
                session.run()
            _settle_orphans(session)
        assert sorted(shm_segment_names() - before) == []


class TestAcceptance:
    """The ISSUE's acceptance bar: a 4-worker, 500-vehicle run survives
    a mid-run worker crash with a bit-identical fingerprint and the
    recovery visible in ``resilience.*`` metrics."""

    def test_mid_run_worker_crash_recovers_bit_identically(self):
        config = ExperimentConfig(
            scenario="fleet_replay_storm",
            vehicles=500,
            seed=123,
            workers=4,
            chunk_timeout_s=3.0,
        )
        baseline = _fingerprint(config)
        plan = FaultPlan.parse("worker_crash:chunk=3")
        with FleetSession(config, fault_plan=plan, telemetry=True) as session:
            result = session.run()
            counters = dict(session.metrics_snapshot().counters)
        assert result.fingerprint() == baseline
        assert counters["resilience.worker_deaths"] >= 1
        assert counters["resilience.retries"] >= 1
        assert result.vehicles == 500


class TestTimeoutSemantics:
    def test_timeout_error_names_the_deadline(self):
        # A hung worker (stall >> timeout) with retries off and degrade
        # off surfaces as ChunkFailedError wrapping the timeout.
        plan = FaultPlan.parse("stall:chunk=0,seconds=8.0,attempt=any")
        config = _config(
            vehicles=12, chunk_timeout_s=0.5, retry=0, degrade=False
        )
        with FleetSession(config, fault_plan=plan) as session:
            with pytest.raises(ChunkFailedError, match="chunk_timeout_s"):
                session.run()

    def test_none_timeout_still_completes_fault_free(self):
        config = _config(chunk_timeout_s=None)
        assert _fingerprint(config) == _fingerprint(_config())
