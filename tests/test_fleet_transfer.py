"""Tests for :mod:`repro.fleet.transfer`: columnar codec exactness,
shared-memory transport, lazy spec streaming, and fingerprint parity
across ``spec_transfer`` modes, worker counts and spec paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.fleet.resilience import FaultPlan
from repro.fleet.results import OUTCOME_COLUMNS, VehicleOutcome
from repro.fleet.scenarios import (
    FleetScenario,
    VehicleAction,
    VehicleSpec,
    get_scenario,
    registered_scenarios,
    temporary_scenario,
)
from repro.fleet.transfer import (
    SHM_AVAILABLE,
    SPEC_TRANSFER_MODES,
    OutcomeBlock,
    ShmHandle,
    SpecBlock,
    discard_segment,
    read_block,
    resolve_spec_transfer,
    write_block,
)

SCENARIO_NAMES = [scenario.name for scenario in registered_scenarios()]

needs_shm = pytest.mark.skipif(not SHM_AVAILABLE, reason="no shared_memory here")


class TestSpecBlockRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(SCENARIO_NAMES),
        vehicles=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
        first_vehicle_id=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_registered_scenario_round_trips_exactly(
        self, name, vehicles, seed, first_vehicle_id
    ):
        """The ISSUE acceptance property: encode -> bytes -> decode is
        the identity on every registered scenario's specs."""
        specs = get_scenario(name).vehicle_specs(
            vehicles, seed, first_vehicle_id=first_vehicle_id
        )
        decoded = SpecBlock.from_bytes(SpecBlock.encode(specs).to_bytes()).decode()
        assert decoded == specs

    def test_lazy_stream_is_bit_identical_to_materialised_specs(self):
        for name in SCENARIO_NAMES:
            scenario = get_scenario(name)
            assert (
                list(scenario.iter_vehicle_specs(12, seed=3, first_vehicle_id=7))
                == scenario.vehicle_specs(12, seed=3, first_vehicle_id=7)
            )

    def test_blocks_compose_like_the_chunking_they_model(self):
        specs = get_scenario("mixed_ev_dos").vehicle_specs(10, seed=1)
        split = (
            SpecBlock.from_bytes(SpecBlock.encode(specs[:4]).to_bytes()).decode()
            + SpecBlock.from_bytes(SpecBlock.encode(specs[4:]).to_bytes()).decode()
        )
        assert split == specs

    def test_exotic_specs_survive_escape_and_pickle_paths(self):
        """Out-of-64-bit integers use the escape table and non-JSON
        params fall back to pickle; both must stay exact."""
        specs = [
            VehicleSpec(
                vehicle_id=2**70,  # beyond int64: escape table
                scenario="custom",
                enforcement="unprotected",
                seed=-5,  # negative: outside the uint64 column
                duration_s=0.25,
                actions=(
                    VehicleAction(0.0, "drive", {"blob": b"\x00\xff"}),  # pickle
                    VehicleAction(0.1, "drive", {"accel": 55}),  # json
                ),
            ),
            VehicleSpec(
                vehicle_id=-3,
                scenario="custom",
                enforcement="unprotected",
                seed=2**80,
                duration_s=0.5,
            ),
        ]
        block = SpecBlock.from_bytes(SpecBlock.encode(specs).to_bytes())
        assert block.decode() == specs
        assert block.escapes  # the escape table was actually exercised

    def test_int_valued_times_are_canonicalised_to_float(self):
        """Hand-built specs with int durations/times must be a fixed
        point of the codec (double columns), so pickle and shm modes
        carry identical specs and fingerprints cannot diverge."""
        spec = VehicleSpec(
            vehicle_id=1,
            scenario="custom",
            enforcement="unprotected",
            seed=2,
            duration_s=5,
            actions=(VehicleAction(0, "drive"),),
        )
        assert isinstance(spec.duration_s, float)
        assert isinstance(spec.actions[0].time, float)
        assert SpecBlock.from_bytes(SpecBlock.encode([spec]).to_bytes()).decode() == [spec]

    def test_interning_collapses_repeated_payloads(self):
        specs = get_scenario("baseline_cruise").vehicle_specs(50, seed=2)
        block = SpecBlock.encode(specs)
        # scenario + enforcement + action kind + a few dozen distinct
        # accel params -- nowhere near one entry per vehicle action.
        assert len(block.table) < len(specs)

    def test_empty_block_round_trips(self):
        assert SpecBlock.from_bytes(SpecBlock.encode([]).to_bytes()).decode() == []

    def test_magic_mismatch_is_rejected(self):
        payload = OutcomeBlock.encode([]).to_bytes()
        with pytest.raises(ValueError, match="SpecBlock"):
            SpecBlock.from_bytes(payload)


class TestOutcomeBlockRoundTrip:
    def _outcome(self, vehicle_id: int) -> VehicleOutcome:
        return VehicleOutcome(
            vehicle_id=vehicle_id,
            scenario="fleet_replay_storm",
            enforcement="hpe+selinux",
            simulated_seconds=0.1 + 0.2,  # a float with an awkward repr
            frames_transmitted=1234,
            frames_delivered=1200,
            frames_blocked=34,
            hpe_decisions=999,
            policy_pushes=2,
            attacks_attempted=3,
            attacks_mitigated=2,
            mean_decision_latency_s=1.25e-7,
            healthy=vehicle_id % 2 == 0,
            wall_seconds=0.0123,
            build_seconds=0.0004,
        )

    def test_round_trip_preserves_the_deterministic_tuple(self):
        outcomes = [self._outcome(i) for i in range(17)]
        decoded = OutcomeBlock.from_bytes(
            OutcomeBlock.encode(outcomes).to_bytes()
        ).decode()
        assert decoded == outcomes
        assert [o.deterministic_tuple() for o in decoded] == [
            o.deterministic_tuple() for o in outcomes
        ]

    def test_schema_covers_every_outcome_field(self):
        """Adding a VehicleOutcome field without extending
        OUTCOME_COLUMNS must fail here, not silently drop data."""
        import dataclasses

        assert [field.name for field in dataclasses.fields(VehicleOutcome)] == [
            name for name, _ in OUTCOME_COLUMNS
        ]


@needs_shm
class TestShmTransport:
    def test_write_read_round_trip_and_unlink(self):
        payload = SpecBlock.encode(
            get_scenario("fuzz_probe").vehicle_specs(3, seed=1)
        ).to_bytes()
        handle = write_block(payload)
        assert read_block(handle) == payload  # unlinks by default
        with pytest.raises(FileNotFoundError):
            read_block(handle)

    def test_discard_segment_is_idempotent(self):
        handle = write_block(b"x" * 32)
        discard_segment(handle.name)
        discard_segment(handle.name)  # second discard: silently nothing

    def test_handles_are_tiny_on_the_pipe(self):
        import pickle

        specs = get_scenario("fleet_replay_storm").vehicle_specs(200, seed=4)
        handle = write_block(SpecBlock.encode(specs).to_bytes())
        try:
            assert len(pickle.dumps(handle)) < 100 < len(pickle.dumps(specs))
        finally:
            discard_segment(handle.name)


class TestModeResolution:
    def test_known_modes_resolve(self):
        assert resolve_spec_transfer("pickle") == "pickle"
        expected = "shm" if SHM_AVAILABLE else "pickle"
        assert resolve_spec_transfer("shm") == expected

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="spec_transfer"):
            resolve_spec_transfer("carrier-pigeon")

    def test_config_validates_the_field(self):
        with pytest.raises(ValueError, match="spec_transfer"):
            ExperimentConfig(scenario="x", vehicles=1, spec_transfer="tcp")
        config = ExperimentConfig(scenario="x", vehicles=1)
        assert config.spec_transfer == "shm"
        assert "--spec-transfer" in config.cli_arguments()
        assert ExperimentConfig.from_dict(config.to_dict()) == config


class TestFingerprintParity:
    """The acceptance sweep: one fingerprint per (scenario, seed)
    regardless of spec_transfer mode, worker count, or whether specs
    were streamed or materialised."""

    SEED = 7
    VEHICLES = 10

    def test_modes_workers_and_spec_paths_agree_for_every_scenario(self):
        base = ExperimentConfig(
            scenario="baseline_cruise", vehicles=self.VEHICLES, seed=self.SEED
        )
        sweeps = [
            {"workers": 1},
            {"workers": 4, "chunk_size": 3, "spec_transfer": "pickle"},
            {"workers": 4, "chunk_size": 3, "spec_transfer": "shm"},
        ]
        with FleetSession(base) as session:
            for name in SCENARIO_NAMES:
                results = session.run_matrix(
                    [{"scenario": name, **sweep} for sweep in sweeps]
                )
                fingerprints = {result.fingerprint() for _, result in results}
                assert len(fingerprints) == 1, (name, fingerprints)
                # Materialised spec path (run_specs) matches the stream.
                specs = get_scenario(name).vehicle_specs(self.VEHICLES, self.SEED)
                materialised = session.run_specs(specs, name)
                assert materialised.fingerprint() in fingerprints, name

    def test_materialised_parallel_specs_match_the_shm_default(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=self.VEHICLES, seed=self.SEED,
            workers=4, chunk_size=3,
        )
        with FleetSession(config) as session:
            modern = session.run()
        specs = get_scenario("mixed_ev_dos").vehicle_specs(self.VEHICLES, self.SEED)
        with FleetSession(config) as session:
            materialised = session.run_specs(specs, "mixed_ev_dos")
        assert modern.fingerprint() == materialised.fingerprint()


class TestLazySessionStream:
    def test_iter_vehicle_specs_applies_enforcement_override_lazily(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos", vehicles=5, seed=3, enforcement="hpe-only"
        )
        stream = FleetSession(config).iter_vehicle_specs()
        assert iter(stream) is iter(stream)  # a true generator, not a list
        assert [spec.enforcement for spec in stream] == ["hpe-only"] * 5

    @needs_shm
    def test_abandoned_parallel_stream_leaves_no_segments_behind(self):
        """Abandoning a 4-worker shm stream mid-run must not strand
        OutcomeBlock segments: still-running chunks are parked and
        swept once finished (here: by close())."""
        import os
        import time

        def segments() -> set[str]:
            try:
                return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            except FileNotFoundError:  # non-Linux POSIX: skip the disk check
                return set()

        before = segments()
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=80, seed=1,
            workers=4, chunk_size=5,
        )
        with FleetSession(config) as session:
            stream = session.iter_outcomes()
            next(stream)
            stream.close()  # abandon with several chunks in flight
            time.sleep(1.0)  # let the in-flight workers finish
        assert segments() <= before

    def test_parallel_run_generates_specs_as_the_window_advances(self):
        """The parent must not materialise the fleet before submitting:
        with a window of (workers + 2) * chunk_size vehicles, the number
        of specs generated by the time the first outcome arrives is far
        below the fleet size."""
        generated = []

        def probe_script(index, rng, params):
            generated.append(index)
            return (VehicleAction(0.0, "drive", {"accel": 40}),)

        scenario = FleetScenario(
            name="lazy_window_probe",
            description="records generation order",
            duration_s=0.05,
            mix=(("unprotected", 1.0),),
            script=probe_script,
        )
        config = ExperimentConfig(
            scenario="lazy_window_probe", vehicles=120, seed=1,
            workers=2, chunk_size=10,
        )
        with temporary_scenario(scenario), FleetSession(config) as session:
            stream = session.iter_outcomes()
            next(stream)
            # The window holds (workers + 2) * chunk_size = 40 vehicles;
            # the item admitted last may overshoot it by less than one
            # item.
            assert len(generated) <= 5 * config.chunk_size
            remaining = sum(1 for _ in stream)
        assert remaining == config.vehicles - 1
        assert len(generated) == config.vehicles

    def test_parent_fills_the_window_while_the_head_item_runs(self):
        """While the head item is still running, the parent keeps
        generating and splitting specs until the window is full, then
        waits: it generates (workers + 2) * chunk_size vehicles, within
        one item, before the first outcome."""
        generated = []

        def probe_script(index, rng, params):
            generated.append(index)
            return (VehicleAction(0.0, "drive", {"accel": 40 + index % 7}),)

        scenario = FleetScenario(
            name="window_fill_probe",
            description="a repeating fleet that records generation order",
            duration_s=0.05,
            mix=(("unprotected", 1.0),),
            script=probe_script,
        )
        config = ExperimentConfig(
            scenario="window_fill_probe", vehicles=200, seed=1,
            workers=2, chunk_size=10,
        )
        window = (config.workers + 2) * config.chunk_size
        plan = FaultPlan.parse("stall:chunk=0,seconds=1")
        with temporary_scenario(scenario), FleetSession(config, fault_plan=plan) as session:
            stream = session.iter_outcomes()
            next(stream)
            assert window <= len(generated) < window + config.chunk_size
            assert sum(1 for _ in stream) == config.vehicles - 1
