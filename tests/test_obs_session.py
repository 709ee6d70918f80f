"""Session-level telemetry: phases, worker merge, CLI flags.

The acceptance surface of the telemetry subsystem: a metrics-enabled
run produces phase histograms for every pipeline stage, pool and
policy-cache counters, shm byte counts merged across >= 2 workers --
and the CLI exposes it all behind ``--metrics`` without touching the
config or the fingerprint.
"""

import json

import pytest

from repro.api.cli import main as cli_main
from repro.api.config import ExperimentConfig
from repro.api.session import FleetSession
from repro.obs import metrics as obs_metrics
from repro.obs.export import MetricsSnapshot
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _noop_registry_after():
    yield
    obs_metrics.activate(obs_metrics.NOOP_REGISTRY)


def _run(config: ExperimentConfig, telemetry=True):
    with FleetSession(config, telemetry=telemetry) as session:
        result = session.run()
        return result, session.metrics_snapshot()


class TestSessionTelemetryApi:
    def test_disabled_by_default(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=3)
        with FleetSession(config) as session:
            assert session.metrics.enabled is False
            session.run()
            assert session.metrics_snapshot().empty

    def test_telemetry_true_gets_fresh_registry(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=3)
        with FleetSession(config, telemetry=True) as session:
            assert isinstance(session.metrics, MetricsRegistry)
            assert session.metrics.enabled

    def test_injected_registry_is_shared(self):
        registry = MetricsRegistry()
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=3)
        with FleetSession(config, telemetry=registry) as session:
            assert session.metrics is registry
            session.run()
        assert registry.counter("vehicles.simulated").value == 3

    def test_invalid_telemetry_rejected(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=3)
        with pytest.raises(TypeError):
            FleetSession(config, telemetry="yes")

    def test_active_registry_restored_after_run(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=3)
        before = obs_metrics.ACTIVE
        _run(config)
        assert obs_metrics.ACTIVE is before

    def test_active_registry_restored_on_abandoned_stream(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=6)
        before = obs_metrics.ACTIVE
        with FleetSession(config, telemetry=True) as session:
            stream = session.iter_outcomes()
            next(stream)
            stream.close()
        assert obs_metrics.ACTIVE is before


class TestInlinePhases:
    @pytest.fixture(scope="class")
    def snapshot(self):
        config = ExperimentConfig(
            scenario="fleet_replay_storm", vehicles=8, workers=1, seed=5
        )
        _, snapshot = _run(config)
        return snapshot

    def test_vehicle_counter(self, snapshot):
        assert snapshot.counter("vehicles.simulated") == 8
        assert snapshot.counter("session.runs") == 1

    def test_phase_histograms(self, snapshot):
        assert snapshot.histogram("phase.run.spec_gen.wall_seconds").count == 8
        assert snapshot.histogram("phase.run.aggregate.wall_seconds").count == 8
        assert snapshot.histogram("phase.simulate.vehicle.wall_seconds").count == 8
        assert snapshot.histogram("phase.simulate.build.wall_seconds").count == 8
        assert snapshot.histogram("phase.run.total.wall_seconds").count == 1

    def test_pool_counters(self, snapshot):
        # The process-wide pool may already be warm from earlier tests
        # (builds then being 0), but every vehicle is either a build or
        # a reuse and the pool holds at least one car afterwards.
        assert snapshot.counter("pool.builds") + snapshot.counter("pool.reuses") == 8
        assert snapshot.gauge("pool.size") >= 1.0
        reset_hist = snapshot.histogram("pool.reset_seconds")
        build_hist = snapshot.histogram("pool.build_seconds")
        timed = (reset_hist.count if reset_hist else 0) + (
            build_hist.count if build_hist else 0
        )
        assert timed == 8

    def test_policy_cache_counters(self, snapshot):
        assert snapshot.counter("policy.cache_hits") > 0
        assert snapshot.counter("policy.cache_misses") >= 0

    def test_bus_counters(self, snapshot):
        assert snapshot.counter("bus.events_total") > 0
        assert snapshot.counter("bus.events.delivered") > 0


class TestWorkerMerge:
    @pytest.fixture(scope="class")
    def merged(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=24, workers=2, seed=5,
            spec_transfer="shm",
        )
        result, snapshot = _run(config)
        return result, snapshot

    def test_vehicle_counter_spans_workers(self, merged):
        _, snapshot = merged
        assert snapshot.counter("vehicles.simulated") == 24

    def test_shm_byte_counts_present(self, merged):
        _, snapshot = merged
        # Parent writes spec segments, workers write outcome segments;
        # both directions land in the merged snapshot.
        assert snapshot.counter("shm.segments_written") >= 2
        assert snapshot.counter("shm.segments_read") == snapshot.counter(
            "shm.segments_written"
        )
        assert snapshot.counter("shm.bytes_written") > 0
        assert snapshot.counter("shm.bytes_read") == snapshot.counter(
            "shm.bytes_written"
        )

    def test_worker_side_phases_merged(self, merged):
        _, snapshot = merged
        assert snapshot.histogram("phase.simulate.wall_seconds").count >= 2
        assert snapshot.histogram("phase.simulate.vehicle.wall_seconds").count == 24

    def test_parent_side_phases_present(self, merged):
        _, snapshot = merged
        for phase in ("run.encode", "run.decode", "run.wait"):
            hist = snapshot.histogram(f"phase.{phase}.wall_seconds")
            assert hist is not None and hist.count >= 2, phase

    def test_policy_counters_merged_across_workers(self, merged):
        _, snapshot = merged
        # Hits accrue on every vehicle; misses can be zero when forked
        # workers inherit an already-warm evaluator cache.
        assert snapshot.counter("policy.cache_hits") > 0

    def test_pickle_transfer_merges_too(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=16, workers=2, seed=5,
            spec_transfer="pickle",
        )
        _, snapshot = _run(config)
        assert snapshot.counter("vehicles.simulated") == 16
        assert snapshot.counter("shm.segments_written") == 0

    def test_disabled_parallel_run_ships_no_snapshots(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=8, workers=2, seed=5
        )
        with FleetSession(config) as session:
            session.run()
            assert session.metrics_snapshot().empty

    def test_matrix_accumulates_across_runs(self):
        config = ExperimentConfig(
            scenario="fleet_replay_storm", vehicles=6, workers=2, seed=5
        )
        with FleetSession(config, telemetry=True) as session:
            session.run_matrix([{}, {"reference": True}])
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("session.runs") == 2
        assert snapshot.counter("vehicles.simulated") == 12


class TestCliMetrics:
    def _run_cli(self, tmp_path, *extra):
        out = tmp_path / "metrics.json"
        code = cli_main(
            [
                "fleet", "run", "--scenario", "fleet_replay_storm",
                "--vehicles", "8", "--workers", "2", "--seed", "5",
                "--metrics", str(out), *extra,
            ]
        )
        assert code == 0
        return out

    def test_metrics_json_written(self, tmp_path, capsys):
        out = self._run_cli(tmp_path)
        capsys.readouterr()
        snapshot = MetricsSnapshot.from_json(out.read_text())
        assert snapshot.counter("vehicles.simulated") == 8
        assert snapshot.histogram("phase.simulate.vehicle.wall_seconds").count == 8

    def test_metrics_prom_format(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = cli_main(
            [
                "fleet", "run", "--scenario", "fleet_replay_storm",
                "--vehicles", "4", "--seed", "5",
                "--metrics", str(out), "--metrics-format", "prom",
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert "repro_vehicles_simulated 4" in out.read_text()

    def test_fingerprint_identical_with_and_without_metrics(self, tmp_path, capsys):
        args = [
            "fleet", "run", "--scenario", "fleet_replay_storm",
            "--vehicles", "8", "--workers", "2", "--seed", "5", "--json",
        ]
        plain = tmp_path / "plain.json"
        with_metrics = tmp_path / "with_metrics.json"
        assert cli_main([*args, str(plain)]) == 0
        assert cli_main(
            [*args, str(with_metrics), "--metrics", str(tmp_path / "m.json")]
        ) == 0
        capsys.readouterr()
        assert (
            json.loads(plain.read_text())["fingerprint"]
            == json.loads(with_metrics.read_text())["fingerprint"]
        )

    def test_metrics_show_table(self, tmp_path, capsys):
        out = self._run_cli(tmp_path)
        capsys.readouterr()
        assert cli_main(["metrics", "show", str(out)]) == 0
        text = capsys.readouterr().out
        assert "counters:" in text
        assert "vehicles.simulated" in text

    def test_metrics_show_prom(self, tmp_path, capsys):
        out = self._run_cli(tmp_path)
        capsys.readouterr()
        assert cli_main(["metrics", "show", str(out), "--format", "prom"]) == 0
        assert "# TYPE repro_vehicles_simulated counter" in capsys.readouterr().out

    def test_metrics_show_json_round_trip(self, tmp_path, capsys):
        out = self._run_cli(tmp_path)
        capsys.readouterr()
        assert cli_main(["metrics", "show", str(out), "--format", "json"]) == 0
        rendered = capsys.readouterr().out
        assert MetricsSnapshot.from_json(rendered) == MetricsSnapshot.from_json(
            out.read_text()
        )

    def test_metrics_show_missing_file_errors(self, tmp_path, capsys):
        assert cli_main(["metrics", "show", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
