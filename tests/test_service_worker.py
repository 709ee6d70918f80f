"""Tests for drain workers: dedup, failure accounting, crash recovery.

The crash-recovery case is the service's headline resilience claim: a
worker SIGKILLed mid-job loses its lease, a survivor requeues and
re-executes, and -- because outcomes are pure functions of the config --
the final fingerprint is bit-identical to a foreground run.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.api.config import ExperimentConfig
from repro.api.session import FleetSession
from repro.obs import clock
from repro.obs.export import MetricsSnapshot, merge_snapshots
from repro.service.store import ServiceStore
from repro.service.worker import DrainWorker

CONFIG = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=5)
OTHER = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=6)


@pytest.fixture()
def store(tmp_path):
    with ServiceStore(tmp_path / "svc.db") as store:
        yield store


def foreground_fingerprint(config: ExperimentConfig) -> str:
    with FleetSession(config) as session:
        return session.run().fingerprint()


class TestDrain:
    def test_dedup_serves_identical_configs_from_cache(self, store):
        store.submit(CONFIG)
        store.submit(CONFIG)
        store.submit(OTHER)
        with DrainWorker(store, name="w0") as worker:
            assert worker.drain() == 3
        snapshot = worker.registry.snapshot()
        # Exactly one simulation per distinct config: 2 runs, 1 cache hit.
        assert snapshot.counter("service.runs") == 2
        assert snapshot.counter("service.cache_hits") == 1
        assert snapshot.counter("service.jobs_completed") == 3
        assert store.counts()["done"] == 3
        assert store.cache_stats() == {"entries": 2, "hits": 1}

    def test_presets_of_one_experiment_simulate_once(self, store):
        presets = [
            ExperimentConfig.preset(name, "mixed_ev_dos", 40, seed=2018)
            for name in ("throughput", "faithful")
        ]
        jobs = [store.submit(config)[0] for config in presets]
        with DrainWorker(store, name="w0") as worker:
            assert worker.drain() == 2
        snapshot = worker.registry.snapshot()
        assert snapshot.counter("service.runs") == 1
        assert snapshot.counter("service.cache_hits") == 1
        fingerprints = {store.result_for(job.config_hash).fingerprint() for job in jobs}
        assert fingerprints == {foreground_fingerprint(presets[-1])}

    def test_cached_result_is_bit_identical_to_foreground(self, store):
        store.submit(CONFIG)
        with DrainWorker(store, name="w0") as worker:
            worker.drain()
        cached = store.result_for(CONFIG.config_hash())
        assert cached.fingerprint() == foreground_fingerprint(CONFIG)

    def test_job_queued_with_a_retired_config_key_still_leases_and_runs(self, store):
        # A job row written before ``backend`` was retired: its stored
        # config (and the hash it was queued under) carry the old key.
        legacy = dict(CONFIG.to_dict(), backend="object")
        legacy_hash = "legacy-" + CONFIG.config_hash()
        with store.transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (config_hash, config, state, priority, "
                "max_attempts, submitted_at) VALUES (?, ?, 'queued', 0, 3, 0)",
                (legacy_hash, json.dumps(legacy, sort_keys=True)),
            )
        with DrainWorker(store, name="w0") as worker:
            assert worker.run_once() == "executed"
        assert store.counts()["done"] == 1
        cached = store.result_for(legacy_hash)
        assert cached.fingerprint() == foreground_fingerprint(CONFIG)

    def test_run_once_reports_how_the_job_was_served(self, store):
        store.submit(CONFIG)
        store.submit(CONFIG)
        with DrainWorker(store, name="w0") as worker:
            assert worker.run_once() == "executed"
            assert worker.run_once() == "cache_hit"
            assert worker.run_once() is None

    def test_failure_requeues_then_exhausts(self, store):
        bad = dict(CONFIG.to_dict(), scenario="no_such_scenario")
        job, _ = store.submit(bad, max_attempts=2)
        with DrainWorker(store, name="w0") as worker:
            assert worker.run_once() == "failed"
            assert store.job(job.id).state == "queued"
            # Deterministic backoff delays the requeue briefly.
            deadline = clock.wall() + 10.0
            while worker.run_once() is None:
                assert clock.wall() < deadline, "requeue never became leasable"
                clock.sleep(0.02)
        final = store.job(job.id)
        assert final.state == "failed"
        assert final.attempts == 2
        assert "no_such_scenario" in final.error
        assert worker.registry.snapshot().counter("service.jobs_failed") == 2

    def test_worker_publishes_metrics_to_the_store(self, store):
        store.submit(CONFIG)
        with DrainWorker(store, name="w0") as worker:
            worker.drain()
        rows = store.worker_metrics()
        assert [name for name, _ in rows] == ["w0"]
        merged = merge_snapshots(
            MetricsSnapshot.from_json(snapshot) for _, snapshot in rows
        )
        assert merged.counter("service.runs") == 1
        assert merged.histogram("service.job_latency_seconds").count == 1
        # The warm session's own telemetry rides in the same registry.
        assert merged.counter("session.runs") == 1

    def test_unknown_hooks_rejected(self, store):
        with pytest.raises(ValueError, match="unknown worker hooks"):
            DrainWorker(store, hooks={"after_job": lambda w, j: None})

    def test_warm_session_is_reused_across_jobs(self, store):
        store.submit(CONFIG)
        store.submit(OTHER)
        with DrainWorker(store, name="w0") as worker:
            worker.drain()
            session = worker._session
        assert session is not None
        snapshot = worker.registry.snapshot()
        assert snapshot.counter("session.runs") == 2


def _doomed_worker_main(db_path: str) -> None:
    """Lease a job, then stall inside the lease until SIGKILLed."""
    store = ServiceStore(db_path)
    worker = DrainWorker(
        store,
        name="doomed",
        lease_s=1.0,
        hooks={"after_lease": lambda w, j: clock.sleep(120.0)},
    )
    worker.run_once()


class TestCrashRecovery:
    def test_sigkilled_worker_job_completes_on_survivor(self, store):
        job, _ = store.submit(CONFIG)
        process = multiprocessing.Process(
            target=_doomed_worker_main, args=(store.path,)
        )
        process.start()
        try:
            # Wait for the doomed worker to take the lease.
            deadline = clock.wall() + 30.0
            while store.job(job.id).state != "leased":
                assert clock.wall() < deadline, "job was never leased"
                clock.sleep(0.02)
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10.0)
            assert process.exitcode == -signal.SIGKILL
            # The job is still leased by a dead process; nothing happens
            # until the lease (1s) lapses and a survivor sweeps it.
            assert store.job(job.id).state == "leased"
            with DrainWorker(store, name="survivor", lease_s=1.0) as survivor:
                deadline = clock.wall() + 30.0
                while store.job(job.id).state != "done":
                    assert clock.wall() < deadline, "survivor never finished the job"
                    if survivor.run_once() is None:
                        clock.sleep(0.05)
            final = store.job(job.id)
            assert final.worker == "survivor"
            assert final.attempts == 2  # doomed lease + surviving execution
            assert (
                survivor.registry.snapshot().counter("service.lease_expiries") == 1
            )
            # Determinism: the re-run equals a foreground run bit for bit.
            cached = store.result_for(CONFIG.config_hash())
            assert cached.fingerprint() == foreground_fingerprint(CONFIG)
        finally:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
