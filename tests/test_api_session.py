"""Tests for :class:`repro.api.session.FleetSession`: streaming outcomes,
stream/batch/explicit-spec equivalence, config sweeps and the session
lifecycle."""

import gc
import json
import weakref

import pytest

from repro.api import ExperimentConfig, FleetSession, run_experiment
from repro.api.cli import main as cli_main
from repro.fleet.scenarios import VehicleAction, VehicleSpec, get_scenario

SMALL_FLEET = 16


def _explicit_specs_result(config):
    """*config*'s fleet materialised up front and run as explicit specs."""
    specs = get_scenario(config.scenario).vehicle_specs(config.vehicles, config.seed)
    with FleetSession(config) as session:
        return session.run_specs(specs, config.scenario)


class TestRun:
    def test_run_matches_explicit_specs_at_one_and_four_workers(self):
        config = ExperimentConfig(scenario="mixed_ev_dos", vehicles=SMALL_FLEET, seed=42)
        serial = FleetSession(config).run()
        parallel_config = config.with_overrides(workers=4, chunk_size=2)
        with FleetSession(parallel_config) as session:
            parallel = session.run()
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.fingerprint() == _explicit_specs_result(config).fingerprint()
        assert serial.fingerprint() == _explicit_specs_result(parallel_config).fingerprint()
        assert serial.vehicles == SMALL_FLEET

    def test_run_experiment_one_shot(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=4, seed=1)
        assert run_experiment(config).fingerprint() == FleetSession(config).run().fingerprint()

    def test_config_type_is_checked(self):
        with pytest.raises(TypeError, match="ExperimentConfig"):
            FleetSession({"scenario": "x"})

    def test_unknown_scenario_surfaces_at_run_time(self):
        session = FleetSession(ExperimentConfig(scenario="not_registered", vehicles=2))
        with pytest.raises(KeyError, match="no registered scenario"):
            session.run()

    def test_scenario_parameters_reach_parameter_aware_scripts(self):
        from repro.fleet.scenarios import FleetScenario, temporary_scenario

        def scripted(index, rng, params):
            return (VehicleAction(0.0, "drive", {"accel": params["accel"]}),)

        scenario = FleetScenario(
            name="param_session_test",
            description="parameter-aware",
            duration_s=0.1,
            mix=(("hpe+selinux", 1.0),),
            script=scripted,
            parameters=(("accel", 30),),
        )
        base = ExperimentConfig(scenario="param_session_test", vehicles=3, seed=4)
        tuned = base.with_overrides(scenario_parameters={"accel": 90})
        with temporary_scenario(scenario):
            base_specs = FleetSession(base).vehicle_specs()
            tuned_specs = FleetSession(tuned).vehicle_specs()
        assert all(spec.actions[0].param("accel") == 30 for spec in base_specs)
        assert all(spec.actions[0].param("accel") == 90 for spec in tuned_specs)

    def test_enforcement_override_replaces_the_mix(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=8, seed=3, enforcement="unprotected"
        )
        result = FleetSession(config).run()
        assert result.enforcement_mix == {"unprotected": 8}
        assert result.hpe_decisions == 0

    def test_closed_session_refuses_to_run(self):
        session = FleetSession(ExperimentConfig(scenario="baseline_cruise", vehicles=2))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run()

    def test_run_specs_accepts_custom_specs(self):
        specs = [
            VehicleSpec(
                vehicle_id=i,
                scenario="custom-unit",
                enforcement="hpe+selinux",
                seed=100 + i,
                duration_s=0.1,
                actions=(VehicleAction(0.0, "drive", {"accel": 50}),),
            )
            for i in (3, 1, 2)
        ]
        config = ExperimentConfig(scenario="custom-unit", vehicles=3)
        session = FleetSession(config)
        result = session.run_specs(specs, "custom-unit")
        assert result.vehicles == 3
        assert result.scenario == "custom-unit"
        with FleetSession(config.with_overrides(workers=2, chunk_size=1)) as parallel:
            assert parallel.run_specs(specs, "custom-unit").fingerprint() == result.fingerprint()


class TestStreaming:
    def test_iter_outcomes_yields_in_vehicle_id_order(self):
        config = ExperimentConfig(
            scenario="fleet_replay_storm", vehicles=SMALL_FLEET, seed=5,
            workers=4, chunk_size=3,
        )
        with FleetSession(config) as session:
            ids = [outcome.vehicle_id for outcome in session.iter_outcomes()]
            streamed = session.last_result
        assert ids == list(range(SMALL_FLEET))
        assert streamed.vehicles == SMALL_FLEET
        assert streamed.fingerprint() == FleetSession(config.with_overrides(workers=1)).run().fingerprint()

    def test_last_result_is_none_until_the_stream_completes(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=4, seed=2)
        session = FleetSession(config)
        session.run()
        stream = session.iter_outcomes()
        next(stream)
        assert session.last_result is None  # reset for the new stream
        for _ in stream:
            pass
        assert session.last_result is not None

    def test_slow_consumer_gets_backpressure_not_a_buffered_fleet(self):
        """Chunk submission is windowed: a consumer slower than the
        workers must not cause completed outcomes to pile up in the
        parent (``Pool.imap`` would buffer them without limit)."""
        import time

        vehicles, chunk = 240, 8
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=vehicles, seed=6,
            workers=4, chunk_size=chunk,
        )
        refs, max_alive = [], 0
        with FleetSession(config) as session:
            for outcome in session.iter_outcomes():
                refs.append(weakref.ref(outcome))
                time.sleep(0.002)  # slower than the workers produce
                if outcome.vehicle_id % 40 == 0:
                    gc.collect()
                    max_alive = max(
                        max_alive, sum(1 for ref in refs if ref() is not None)
                    )
        # In-flight window is workers + 2 chunks; allow one extra chunk
        # of slack for references still on the stack.
        assert max_alive <= (config.workers + 3) * chunk

    def test_abandoned_stream_leaves_last_result_none(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=4, seed=2)
        session = FleetSession(config)
        session.run()
        assert session.last_result is not None
        stream = session.iter_outcomes()  # resets last_result eagerly
        assert session.last_result is None
        next(stream)
        stream.close()  # abandon mid-stream
        assert session.last_result is None

    def test_first_vehicle_id_offsets_the_stream(self):
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=4, seed=2, first_vehicle_id=100
        )
        ids = [o.vehicle_id for o in FleetSession(config).iter_outcomes()]
        assert ids == [100, 101, 102, 103]


class TestRunMatrix:
    def test_matrix_shares_the_session_and_matches_individual_runs(self):
        base = ExperimentConfig(scenario="baseline_cruise", vehicles=6, seed=9)
        with FleetSession(base) as session:
            results = session.run_matrix(
                [
                    {"scenario": "fleet_replay_storm"},
                    {"scenario": "fuzz_probe", "seed": 10},
                    base.with_overrides(vehicles=4),
                ]
            )
        assert [config.scenario for config, _ in results] == [
            "fleet_replay_storm",
            "fuzz_probe",
            "baseline_cruise",
        ]
        for config, result in results:
            assert result.vehicles == config.vehicles
            assert result.fingerprint() == FleetSession(config).run().fingerprint()

    def test_matrix_rejects_stray_entry_types(self):
        session = FleetSession(ExperimentConfig(scenario="baseline_cruise", vehicles=2))
        with pytest.raises(TypeError, match="run_matrix entries"):
            session.run_matrix(["baseline_cruise"])


class TestStreamingAcceptance:
    """A 2,000-vehicle ``fleet_replay_storm`` run streams with bounded
    memory and every surface -- streamed session at 1 and 4 workers,
    batch session, and the ``python -m repro`` CLI -- produces one
    bit-identical fingerprint."""

    SCENARIO = "fleet_replay_storm"
    VEHICLES = 2000
    SEED = 2018

    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(
            scenario=self.SCENARIO, vehicles=self.VEHICLES, seed=self.SEED,
            workers=4,
        )

    @pytest.fixture(scope="class")
    def streams(self, config):
        """Stream the fleet at a worker count (once per count), tracking
        how many yielded outcomes stay alive."""
        cache = {}

        def stream(workers):
            if workers in cache:
                return cache[workers]
            refs, max_alive, count = [], 0, 0
            with FleetSession(config.with_overrides(workers=workers)) as session:
                last_id = -1
                for outcome in session.iter_outcomes():
                    assert outcome.vehicle_id > last_id
                    last_id = outcome.vehicle_id
                    refs.append(weakref.ref(outcome))
                    count += 1
                    if count % 200 == 0:
                        gc.collect()
                        max_alive = max(
                            max_alive, sum(1 for ref in refs if ref() is not None)
                        )
                result = session.last_result
            cache[workers] = result, max_alive, count
            return cache[workers]

        return stream

    @pytest.fixture(scope="class")
    def streamed(self, config, streams):
        return streams(config.workers)

    @pytest.mark.parametrize("workers", [4, 1])
    def test_streams_every_vehicle_without_materialising_the_fleet(self, streams, workers):
        # Inline streams hold no window at all; the bound also catches a
        # memo that keeps the outcomes it yielded.
        result, max_alive, count = streams(workers)
        assert count == self.VEHICLES
        assert result.vehicles == self.VEHICLES
        # Bounded memory: at any sampled instant, only the chunk in
        # flight (default 2000/16 = 125 vehicles) plus pool-buffered
        # chunks are alive -- nowhere near the 2,000-outcome list the
        # batch aggregator used to hold.
        assert max_alive < self.VEHICLES // 4

    def test_stream_is_bit_identical_to_batch_at_one_and_four_workers(
        self, streamed, streams, config
    ):
        result, _, _ = streamed
        with FleetSession(config) as session:
            batch = session.run()
        assert result.fingerprint() == batch.fingerprint()
        assert result.fingerprint() == streams(1)[0].fingerprint()
        assert result.fingerprint() == streams(4)[0].fingerprint()

    def test_cli_reproduces_the_same_fingerprint(self, streamed, config, tmp_path, capsys):
        result, _, _ = streamed
        report = tmp_path / "fleet.json"
        exit_code = cli_main(config.cli_arguments() + ["--json", str(report)])
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["fingerprint"] == result.fingerprint()
        assert ExperimentConfig.from_dict(payload["config"]) == config
