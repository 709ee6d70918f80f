"""Tests for the fleet runner: per-vehicle simulation and worker invariance."""

from dataclasses import replace

import pytest

from repro.api import ExperimentConfig, FleetSession
from repro.casestudy.builder import CaseStudyBuilder
from repro.core.updates import PolicyUpdateBundle
from repro.fleet import runner
from repro.fleet.runner import config_for_label, simulate_vehicle
from repro.fleet.scenarios import VehicleAction, VehicleSpec

#: Small fleet sizes keep the multiprocessing tests fast while still
#: exercising chunking across several workers.
SMALL_FLEET = 12


def make_spec(vehicle_id=0, enforcement="hpe+selinux", actions=(), duration_s=0.2, seed=11):
    return VehicleSpec(
        vehicle_id=vehicle_id,
        scenario="unit-test",
        enforcement=enforcement,
        seed=seed,
        duration_s=duration_s,
        actions=tuple(actions),
    )


class TestConfigLabels:
    def test_all_labels_resolve(self):
        assert config_for_label("unprotected") is None
        assert config_for_label("hpe-only").use_hpe
        assert not config_for_label("hpe-only").use_selinux
        assert config_for_label("selinux-only").use_selinux
        full = config_for_label("hpe+selinux")
        assert full.use_hpe and full.use_selinux

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError, match="unknown enforcement label"):
            config_for_label("mystery")


class TestSimulateVehicle:
    def test_outcome_reflects_the_spec(self, builder):
        spec = make_spec(vehicle_id=3, actions=[VehicleAction(0.0, "drive", {"accel": 70})])
        outcome = simulate_vehicle(spec, builder)
        assert outcome.vehicle_id == 3
        assert outcome.scenario == "unit-test"
        assert outcome.enforcement == "hpe+selinux"
        assert outcome.simulated_seconds >= spec.duration_s
        assert outcome.frames_transmitted > 0
        assert outcome.hpe_decisions > 0
        assert outcome.healthy

    def test_unprotected_vehicle_reports_no_enforcement_activity(self, builder):
        spec = make_spec(enforcement="unprotected",
                         actions=[VehicleAction(0.0, "drive", {"accel": 70})])
        outcome = simulate_vehicle(spec, builder)
        assert outcome.hpe_decisions == 0
        assert outcome.frames_blocked == 0
        assert outcome.mean_decision_latency_s == 0.0

    def test_protection_decides_attack_outcome(self, builder):
        attack = [VehicleAction(0.05, "attack", {"threat_id": "T01"})]
        protected = simulate_vehicle(make_spec(actions=attack), builder)
        unprotected = simulate_vehicle(
            make_spec(enforcement="unprotected", actions=attack), builder
        )
        assert protected.attacks_attempted == unprotected.attacks_attempted == 1
        assert protected.attacks_mitigated == 1
        assert protected.healthy
        assert unprotected.attacks_mitigated == 0
        assert not unprotected.healthy

    def test_policy_update_action_bumps_enforced_version(self, builder):
        spec = make_spec(actions=[VehicleAction(0.05, "policy_update", {})])
        outcome = simulate_vehicle(spec, builder)
        # The OTA path re-syncs every engine after the version bump.
        assert outcome.policy_pushes >= 0
        assert outcome.healthy

    def test_unknown_action_kind_raises(self, builder):
        spec = make_spec(actions=[VehicleAction(0.0, "teleport", {})])
        with pytest.raises(ValueError, match="unknown fleet action"):
            simulate_vehicle(spec, builder)

    def test_same_spec_gives_identical_deterministic_outcome(self, builder):
        spec = make_spec(actions=[VehicleAction(0.05, "fuzz", {"frames": 40})])
        first = simulate_vehicle(spec, builder)
        second = simulate_vehicle(spec, builder)
        assert first.deterministic_tuple() == second.deterministic_tuple()


def _run(scenario, vehicles, seed, **execution):
    config = ExperimentConfig(scenario=scenario, vehicles=vehicles, seed=seed, **execution)
    with FleetSession(config) as session:
        return session.run()


class TestFleetRuns:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="baseline_cruise", vehicles=1, workers=0)

    def test_parallel_aggregates_are_bit_identical_to_serial(self):
        serial = _run("mixed_ev_dos", SMALL_FLEET, seed=42, workers=1)
        parallel = _run("mixed_ev_dos", SMALL_FLEET, seed=42, workers=4, chunk_size=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.frames_transmitted == parallel.frames_transmitted
        assert serial.frames_blocked == parallel.frames_blocked
        assert serial.latency_p99_s == parallel.latency_p99_s
        assert serial.enforcement_mix == parallel.enforcement_mix

    def test_wall_clock_throughput_is_reported(self):
        result = _run("baseline_cruise", SMALL_FLEET, seed=3)
        assert result.wall_seconds > 0
        assert result.frames_per_second > 0
        assert result.vehicles_per_second > 0


#: One action per attack that attaches a rogue node under a fixed name.
#: A script repeating one used to crash on the second attach.
REPEATED_ATTACKS = {
    "flood": VehicleAction(0.02, "flood", {"frames": 8, "window_s": 0.02, "flood_id": 0}),
    "targeted_dos": VehicleAction(0.02, "targeted_dos", {"target": "EV-ECU", "repetitions": 2}),
    "replay": VehicleAction(
        0.02, "replay", {"capture_duration_s": 0.02, "messages": ("DOOR_UNLOCK_CMD",)}
    ),
    "fuzz": VehicleAction(0.02, "fuzz", {"frames": 12}),
    "attack-T01": VehicleAction(0.02, "attack", {"threat_id": "T01"}),
    "attack-T03": VehicleAction(0.02, "attack", {"threat_id": "T03"}),
    "attack-T04": VehicleAction(0.02, "attack", {"threat_id": "T04"}),
    "attack-T15": VehicleAction(0.02, "attack", {"threat_id": "T15"}),
}


class TestRepeatedAttacks:
    @pytest.mark.parametrize("name", sorted(REPEATED_ATTACKS))
    @pytest.mark.parametrize("enforcement", ["unprotected", "hpe+selinux"])
    def test_repeated_attack_matches_faithful(self, name, enforcement):
        attack = REPEATED_ATTACKS[name]
        spec = make_spec(
            enforcement=enforcement,
            actions=(
                VehicleAction(0.0, "drive", {"accel": 60}),
                attack,
                replace(attack, time=attack.time + 0.1),
            ),
            duration_s=0.3,
        )
        faithful = ExperimentConfig.faithful("baseline_cruise", 1)
        outcome = simulate_vehicle(spec)
        reference = simulate_vehicle(
            spec,
            trace_level=faithful.trace_level,
            inbox_limit=faithful.inbox_limit,
            compile_tables=faithful.compile_tables,
        )
        assert outcome.attacks_attempted == 2
        assert outcome.deterministic_tuple() == reference.deterministic_tuple()


class TestOtaRollout:
    def test_a_rollout_signs_once_and_compiles_per_content(self, monkeypatch):
        """One signed bundle and one table set per process, not per vehicle,
        while every vehicle still verifies the bundle itself."""
        verified = []
        verify = PolicyUpdateBundle.verify

        def counting_verify(bundle, key):
            verified.append(bundle.version)
            return verify(bundle, key)

        monkeypatch.setattr(PolicyUpdateBundle, "verify", counting_verify)
        monkeypatch.setattr(runner, "_OTA_BUNDLES", {})
        config = ExperimentConfig(scenario="staggered_ota_rollout", vehicles=60, workers=1)
        with FleetSession(config, builder=CaseStudyBuilder(), telemetry=True) as session:
            result = session.run()
            compiles = session.metrics_snapshot().counter("policy.compile_misses")
        # At most 9 nodes x 3 distinct (policy, situation) pairs.
        assert compiles <= 27
        assert len(runner._OTA_BUNDLES) == 1
        assert len(verified) == result.kernel_runs > 0
        faithful = ExperimentConfig.faithful("staggered_ota_rollout", 60)
        with FleetSession(faithful) as session:
            assert session.run().fingerprint() == result.fingerprint()


class TestLateActions:
    """An action whose time an earlier attack's internal ``car.run()``
    already passed runs late, at the car's clock; telemetry counts it."""

    @pytest.mark.parametrize(
        "scenario, late, lag_s",
        [("staggered_ota_rollout", 12, 0.3576), ("fleet_replay_storm", 13, 0.244)],
    )
    def test_late_actions_and_their_lag_are_counted(self, scenario, late, lag_s):
        config = ExperimentConfig(scenario=scenario, vehicles=40, seed=0, workers=1)
        with FleetSession(config, telemetry=True) as session:
            result = session.run()
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("simulate.late_actions") == late
        lag = snapshot.histogram("simulate.late_action_lag_seconds")
        assert lag.count == late
        assert lag.sum == pytest.approx(lag_s)
        # Counting moves nothing, and telemetry off records nothing.
        with FleetSession(config) as session:
            assert session.run().fingerprint() == result.fingerprint()
            assert session.metrics_snapshot().counter("simulate.late_actions") == 0
