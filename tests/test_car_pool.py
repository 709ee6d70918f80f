"""Pooled vehicle reuse: a reset car is bit-identical to a fresh build.

The fleet hot path's biggest lifecycle saving -- one warm
:class:`~repro.vehicle.car.ConnectedCar` per enforcement configuration
per worker, rewound by :meth:`ConnectedCar.reset` between vehicles --
is only admissible if reuse is observationally invisible.  These tests
pin that contract: identical fleet fingerprints for fresh-built versus
pooled execution at 1 and 4 workers, pristine state after reset
(counters, inboxes, modes, rogue nodes, OTA'd policies), and the
:class:`~repro.casestudy.builder.CarPool` bookkeeping itself.
"""

import pytest

from repro.api import ExperimentConfig, FleetSession
from repro.attacks.attacker import MaliciousNode
from repro.can.trace import TraceLevel
from repro.casestudy.builder import CarPool, CaseStudyBuilder
from repro.core.enforcement import EnforcementConfig
from repro.vehicle.modes import CarMode

SEED = 99


@pytest.fixture(scope="module")
def builder():
    return CaseStudyBuilder()


class TestConnectedCarReset:
    def test_reset_restores_pristine_counters_and_clock(self, builder):
        car = builder.build_car(
            EnforcementConfig.full(), start_periodic_traffic=True,
            trace_level=TraceLevel.COUNTERS,
        )
        car.drive(duration=0.2)
        assert car.bus.statistics.frames_transmitted > 0
        car.reset()
        assert car.scheduler.now == 0.0
        assert car.bus.statistics.frames_transmitted == 0
        assert len(car.bus.trace) == 0
        for ecu in car.ecus():
            assert ecu.node.counters.sent == 0
            assert ecu.node.counters.received == 0
            assert not ecu.node.inbox
            assert ecu.node.received_ids() == []
            assert ecu.events == []
            assert ecu.operational

    def test_reset_reschedules_periodic_traffic_without_the_catalogue(
        self, builder, monkeypatch
    ):
        def queue(car):
            return sorted((t, s, task.label) for t, s, task in car.scheduler._queue)

        car = builder.build_car(EnforcementConfig.full(), start_periodic_traffic=True)
        fresh = queue(car)
        assert fresh

        def no_scan(*args, **kwargs):
            raise AssertionError("reset rescanned the message catalogue")

        monkeypatch.setattr(type(car.catalog), "produced_by", no_scan)
        car.run(0.2)
        car.reset()
        assert queue(car) == fresh

    def test_reset_detaches_rogue_nodes_and_restores_firmware(self, builder):
        car = builder.build_car(EnforcementConfig.full())
        MaliciousNode(car, name="Rogue")
        car.sensors.compromise_firmware()
        assert "Rogue" in car.bus.node_names()
        car.reset()
        assert "Rogue" not in car.bus.node_names()
        assert set(car.bus.node_names()) == set(car.node_names())
        assert not car.sensors.firmware_compromised

    def test_reset_restores_mode_and_vehicle_state(self, builder):
        car = builder.build_car(EnforcementConfig.full())
        car.drive(duration=0.05)
        car.modes.enter_fail_safe()
        car.safety.declare_crash("test")
        car.run(0.05)
        car.reset()
        assert car.mode is CarMode.NORMAL
        assert car.modes.history == [CarMode.NORMAL]
        assert not car.safety.failsafe_active
        assert not car.door_locks.vehicle_in_motion
        assert all(car.health().values())

    def test_reset_rolls_back_ota_policy(self, builder):
        car = builder.build_car(EnforcementConfig.full())
        coordinator = car.enforcement_coordinator
        fitted = coordinator.policy
        coordinator.apply_policy(fitted.next_version("test rollout"), car)
        assert coordinator.policy is not fitted
        car.reset()
        assert coordinator.policy is fitted
        assert coordinator.sync_count == 1
        assert coordinator.policy_pushes == len(coordinator.engines)

    def test_reset_clears_engine_counters_and_tamper_logs(self, builder):
        car = builder.build_car(
            EnforcementConfig.hardware_only(), start_periodic_traffic=True
        )
        car.drive(duration=0.1)
        coordinator = car.enforcement_coordinator
        assert coordinator.total_hpe_decisions() > 0
        car.reset()
        assert coordinator.total_hpe_decisions() == 0
        for engine in coordinator.engines.values():
            # One successful update from the post-reset sync, like a
            # fresh fit; nothing older survives.
            assert len(engine.tamper_log) == 1
            assert engine.compiled_table is not None

    def test_unprotected_car_resets_too(self, builder):
        car = builder.build_car(None, start_periodic_traffic=True)
        car.drive(duration=0.1)
        car.reset()
        assert car.scheduler.now == 0.0
        assert car.infotainment.enforcement_point is None


class TestCarPool:
    def test_builds_once_per_configuration(self, builder):
        pool = CarPool(builder)
        first = pool.acquire(EnforcementConfig.full())
        second = pool.acquire(EnforcementConfig.full())
        assert first is second
        assert pool.builds == 1
        assert pool.reuses == 1

    def test_distinct_configurations_get_distinct_cars(self, builder):
        pool = CarPool(builder)
        full = pool.acquire(EnforcementConfig.full())
        hardware = pool.acquire(EnforcementConfig.hardware_only())
        unprotected = pool.acquire(None)
        assert len({id(full), id(hardware), id(unprotected)}) == 3
        assert len(pool) == 3

    def test_trace_level_is_part_of_the_key(self, builder):
        pool = CarPool(builder)
        counters = pool.acquire(None, trace_level=TraceLevel.COUNTERS)
        full = pool.acquire(None, trace_level=TraceLevel.FULL)
        assert counters is not full

    def test_clear_drops_cars(self, builder):
        pool = CarPool(builder)
        pool.acquire(None)
        pool.clear()
        assert len(pool) == 0


def _run(scenario, vehicles, **execution):
    config = ExperimentConfig(scenario=scenario, vehicles=vehicles, seed=SEED, **execution)
    with FleetSession(config) as session:
        return session.run()


class TestPooledFleetDeterminism:
    @pytest.mark.parametrize("scenario", ["fleet_replay_storm", "mixed_ev_dos"])
    def test_pooled_matches_fresh_single_worker(self, scenario):
        fresh = _run(scenario, 24, workers=1, reuse_cars=False)
        pooled = _run(scenario, 24, workers=1, reuse_cars=True)
        assert fresh.fingerprint() == pooled.fingerprint()
        assert fresh.frames_transmitted == pooled.frames_transmitted
        assert fresh.frames_blocked == pooled.frames_blocked
        assert fresh.attacks_mitigated == pooled.attacks_mitigated

    def test_pooled_matches_fresh_across_worker_counts(self):
        reference = _run("fleet_replay_storm", 24, workers=1, reuse_cars=False)
        for workers in (1, 4):
            pooled = _run("fleet_replay_storm", 24, workers=workers, reuse_cars=True)
            assert pooled.fingerprint() == reference.fingerprint(), workers

    def test_compiled_and_object_paths_agree_pooled(self):
        compiled = _run(
            "staggered_ota_rollout", 16, workers=1, reuse_cars=True, compile_tables=True
        )
        object_path = _run(
            "staggered_ota_rollout", 16, workers=1, reuse_cars=True, compile_tables=False
        )
        assert compiled.fingerprint() == object_path.fingerprint()

    def test_build_seconds_split_out_of_wall_seconds(self):
        result = _run("baseline_cruise", 6, workers=1, reuse_cars=False)
        assert result.build_wall_seconds > 0.0
        assert result.simulation_wall_seconds > 0.0
        assert result.sim_vehicles_per_second >= result.vehicles_per_second
        assert 0.0 < result.build_fraction < 1.0
