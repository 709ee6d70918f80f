"""Tests for the service job store: schema, state machine, result cache."""

import json

import pytest

from repro.api.config import ExperimentConfig
from repro.fleet.results import FleetAggregator, FleetResult, VehicleOutcome
from repro.service.store import JOB_STATES, ServiceStore


class FakeClock:
    """A settable calendar clock so lease/gc arithmetic is deterministic."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.time = start

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    with ServiceStore(tmp_path / "svc.db", now=clock) as store:
        yield store


def config(**overrides) -> ExperimentConfig:
    values = dict(scenario="mixed_ev_dos", vehicles=5, seed=0)
    values.update(overrides)
    return ExperimentConfig(**values)


def make_result(scenario: str = "mixed_ev_dos", count: int = 3) -> FleetResult:
    aggregator = FleetAggregator(scenario)
    for i in range(count):
        aggregator.add(
            VehicleOutcome(
                vehicle_id=i,
                scenario=scenario,
                enforcement="hpe+selinux",
                simulated_seconds=0.3,
                frames_transmitted=100 + i,
                frames_delivered=90,
                frames_blocked=10,
                hpe_decisions=50,
                policy_pushes=2,
                attacks_attempted=1,
                attacks_mitigated=1,
                mean_decision_latency_s=1e-7,
                healthy=True,
            )
        )
    return aggregator.result(wall_seconds=0.5)


class TestSubmit:
    def test_submit_enqueues_with_config_hash(self, store, clock):
        cfg = config(seed=9)
        job, cached = store.submit(cfg)
        assert not cached
        assert job.state == "queued"
        assert job.config_hash == cfg.config_hash()
        assert job.config == cfg.to_dict()
        assert job.submitted_at == clock.time
        assert job.attempts == 0

    def test_submit_accepts_plain_dicts(self, store):
        job, _ = store.submit(config().to_dict())
        assert job.config_object() == config()

    def test_submit_rejects_other_types(self, store):
        with pytest.raises(TypeError, match="ExperimentConfig"):
            store.submit("not a config")

    def test_submit_rejects_bad_max_attempts(self, store):
        with pytest.raises(ValueError, match="max_attempts"):
            store.submit(config(), max_attempts=0)

    def test_cached_flag_reflects_result_cache(self, store):
        cfg = config()
        store.store_result(cfg.config_hash(), make_result())
        _, cached = store.submit(cfg)
        assert cached

    def test_duplicate_submissions_share_a_hash(self, store):
        a, _ = store.submit(config())
        b, _ = store.submit(config())
        assert a.id != b.id
        assert a.config_hash == b.config_hash

    def test_config_round_trips_through_the_store(self, store):
        cfg = config(scenario_parameters={"burst": (2, 5)}, reference=True)
        job, _ = store.submit(cfg)
        assert store.job(job.id).config_object() == cfg

    def test_a_job_stored_with_retired_execution_keys_loads(self, store):
        # A row written while trace_level, inbox_limit, reuse_cars and
        # compile_tables were fields: a ring trace ran without the memo.
        legacy = {
            key: value
            for key, value in config().to_dict().items()
            if key != "reference"
        }
        legacy.update(trace_level="ring", inbox_limit=None, reuse_cars=True,
                      compile_tables=True)
        with store.transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (config_hash, config, state, priority, "
                "max_attempts, submitted_at) VALUES (?, ?, 'queued', 0, 3, 0)",
                (config().config_hash(), json.dumps(legacy, sort_keys=True)),
            )
        (job,) = store.jobs()
        assert job.config_object() == config(reference=True)


class TestInspection:
    def test_job_returns_none_for_unknown_id(self, store):
        assert store.job(999) is None

    def test_jobs_newest_first_with_state_filter(self, store):
        a, _ = store.submit(config(seed=1))
        b, _ = store.submit(config(seed=2))
        store.cancel(a.id)
        assert [j.id for j in store.jobs()] == [b.id, a.id]
        assert [j.id for j in store.jobs(state="queued")] == [b.id]
        assert [j.id for j in store.jobs(state="cancelled")] == [a.id]

    def test_jobs_rejects_unknown_state(self, store):
        with pytest.raises(ValueError, match="unknown job state"):
            store.jobs(state="paused")

    def test_counts_cover_every_state(self, store):
        store.submit(config())
        counts = store.counts()
        assert set(counts) == set(JOB_STATES)
        assert counts["queued"] == 1
        assert counts["done"] == 0


class TestTransitions:
    def test_queued_to_leased_and_back(self, store):
        job, _ = store.submit(config())
        leased = store.transition(job.id, "leased", worker="w0")
        assert leased.state == "leased" and leased.worker == "w0"
        requeued = store.transition(job.id, "queued", worker=None)
        assert requeued.state == "queued"

    def test_illegal_transition_returns_none(self, store):
        job, _ = store.submit(config())
        # queued -> done is not a legal edge (must lease first).
        assert store.transition(job.id, "done") is None

    def test_terminal_states_are_sticky(self, store):
        job, _ = store.submit(config())
        store.cancel(job.id)
        assert store.transition(job.id, "leased") is None
        assert store.cancel(job.id) is None

    def test_unknown_state_rejected(self, store):
        job, _ = store.submit(config())
        with pytest.raises(ValueError, match="unknown job state"):
            store.transition(job.id, "paused")

    def test_protected_columns_rejected(self, store):
        job, _ = store.submit(config())
        with pytest.raises(ValueError, match="config_hash"):
            store.transition(job.id, "leased", config_hash="forged")

    def test_cancel_queued_sets_finished_at(self, store, clock):
        job, _ = store.submit(config())
        clock.advance(5.0)
        cancelled = store.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert cancelled.finished_at == clock.time


class TestResultCache:
    def test_store_and_decode_round_trip(self, store):
        result = make_result()
        assert store.store_result("h1", result)
        decoded = store.result_for("h1")
        assert decoded == result
        assert decoded.fingerprint() == result.fingerprint()
        assert decoded.to_dict() == result.to_dict()

    def test_first_write_wins(self, store):
        first = make_result(count=2)
        second = make_result(count=4)
        assert store.store_result("h1", first)
        assert not store.store_result("h1", second)
        assert store.result_for("h1") == first

    def test_miss_returns_none(self, store):
        assert store.result_for("absent") is None

    def test_hit_accounting(self, store):
        store.store_result("h1", make_result())
        store.record_cache_hit("h1")
        store.record_cache_hit("h1")
        assert store.cache_stats() == {"entries": 1, "hits": 2}

    def test_stored_json_is_canonical(self, store):
        # The stored bytes are sorted-key, separator-free JSON: stable
        # across processes, so dedup'd submissions see identical bytes.
        store.store_result("h1", make_result())
        with store._lock:
            raw = store._conn.execute(
                "SELECT result FROM results WHERE config_hash='h1'"
            ).fetchone()[0]
        assert raw == json.dumps(
            json.loads(raw), sort_keys=True, separators=(",", ":")
        )


class TestWorkerMetrics:
    def test_upsert_keeps_latest_snapshot(self, store):
        store.publish_worker_metrics("w0", '{"counters": {"a": 1}}')
        store.publish_worker_metrics("w0", '{"counters": {"a": 2}}')
        store.publish_worker_metrics("w1", '{"counters": {"a": 5}}')
        rows = store.worker_metrics()
        assert [worker for worker, _ in rows] == ["w0", "w1"]
        assert json.loads(rows[0][1]) == {"counters": {"a": 2}}


class TestGc:
    def test_collects_old_terminal_jobs_only(self, store, clock):
        done, _ = store.submit(config(seed=1))
        store.transition(done.id, "leased")
        store.transition(done.id, "done", finished_at=clock.time)
        queued, _ = store.submit(config(seed=2))
        clock.advance(100.0)
        fresh, _ = store.submit(config(seed=3))
        store.transition(fresh.id, "leased")
        store.transition(fresh.id, "done", finished_at=clock.time)
        deleted = store.gc(max_age_s=50.0)
        assert deleted == {"jobs": 1, "results": 0}
        assert store.job(done.id) is None
        assert store.job(queued.id) is not None
        assert store.job(fresh.id) is not None

    def test_rejects_non_terminal_states(self, store):
        with pytest.raises(ValueError, match="terminal"):
            store.gc(states=("queued",))

    def test_include_results_drops_unreferenced_entries(self, store, clock):
        cfg = config()
        job, _ = store.submit(cfg)
        store.transition(job.id, "leased")
        store.transition(job.id, "done", finished_at=clock.time)
        store.store_result(cfg.config_hash(), make_result())
        store.store_result("orphan", make_result())
        deleted = store.gc(include_results=True)
        assert deleted == {"jobs": 1, "results": 2}
        assert store.result_for(cfg.config_hash()) is None

    def test_results_kept_by_default(self, store, clock):
        cfg = config()
        job, _ = store.submit(cfg)
        store.transition(job.id, "leased")
        store.transition(job.id, "done", finished_at=clock.time)
        store.store_result(cfg.config_hash(), make_result())
        assert store.gc() == {"jobs": 1, "results": 0}
        assert store.result_for(cfg.config_hash()) is not None
