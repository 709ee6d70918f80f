"""Tests for the enforcement coordinator and protected-car behaviour."""

import pytest

from repro.can.frame import CANFrame
from repro.core.enforcement import (
    EnforcementConfig,
    EnforcementCoordinator,
    build_protected_car,
)
from repro.core.policy import AccessRule, CarSituation, Direction, RuleEffect
from repro.hpe.engine import HardwarePolicyEngine
from repro.vehicle.messages import NODE_EV_ECU, NODE_INFOTAINMENT, NODE_SAFETY
from repro.vehicle.modes import CarMode


class TestEnforcementConfig:
    def test_labels(self):
        assert EnforcementConfig.none().label == "unprotected"
        assert EnforcementConfig.software_only().label == "selinux-only"
        assert EnforcementConfig.hardware_only().label == "hpe-only"
        assert EnforcementConfig.full().label == "hpe+selinux"


class TestFitting:
    def test_full_fit_installs_engines_and_selinux(self, builder):
        car = builder.build_car(EnforcementConfig.full())
        coordinator = car.enforcement_coordinator
        assert isinstance(coordinator, EnforcementCoordinator)
        assert set(coordinator.engines) == set(car.node_names())
        for ecu in car.ecus():
            assert isinstance(ecu.node.policy_engine, HardwarePolicyEngine)
        assert car.infotainment.enforcement_point is not None
        assert coordinator.policy_store is not None

    def test_software_only_fit_has_no_engines(self, builder):
        car = builder.build_car(EnforcementConfig.software_only())
        coordinator = car.enforcement_coordinator
        assert coordinator.engines == {}
        assert all(ecu.node.policy_engine is None for ecu in car.ecus())
        assert car.infotainment.enforcement_point is not None

    def test_hardware_only_fit_has_no_selinux(self, builder):
        car = builder.build_car(EnforcementConfig.hardware_only())
        assert car.infotainment.enforcement_point is None
        assert car.enforcement_coordinator.engines

    def test_build_protected_car_convenience(self, builder):
        car = build_protected_car(builder.model.policy)
        assert getattr(car, "enforcement_coordinator", None) is not None


class TestNormalOperationUnderEnforcement:
    def test_legitimate_traffic_still_flows(self, protected_car):
        protected_car.start_periodic_traffic()
        protected_car.drive(accel=90, duration=0.5)
        assert protected_car.ev_ecu.sensor_state["accel"] >= 90
        assert protected_car.engine.rpm > 800
        assert protected_car.infotainment.displayed_status["speed"] > 0
        # Every component remains healthy while policies are enforced.
        assert all(protected_car.health().values())

    def test_theft_protection_still_works_when_parked_and_armed(self, protected_car):
        protected_car.park_and_arm()
        assert protected_car.door_locks.locked
        assert not protected_car.ev_ecu.propulsion_available

    def test_crash_response_still_works_in_fail_safe(self, protected_car):
        car = protected_car
        car.modes.enter_fail_safe()
        car.safety.declare_crash("integration test")
        car.run(0.05)
        assert not car.door_locks.locked
        assert car.telematics.emergency_calls_placed >= 1

    def test_system_updater_can_still_install_software(self, protected_car):
        infotainment = protected_car.infotainment
        assert infotainment.install_software(
            "oem-map-update", initiated_from=infotainment.SUBJECT_SYSTEM_UPDATER
        )
        assert not infotainment.install_software("sideloaded-app")


class TestSynchronisation:
    def test_mode_change_triggers_sync(self, protected_car):
        coordinator = protected_car.enforcement_coordinator
        before = coordinator.sync_count
        protected_car.modes.enter_fail_safe()
        assert coordinator.sync_count == before + 1

    def test_sync_reprograms_engines_through_authorised_channel(self, protected_car):
        coordinator = protected_car.enforcement_coordinator
        catalog = protected_car.catalog
        engine = coordinator.engines[NODE_EV_ECU]
        disable_id = catalog.id_of("ECU_DISABLE")
        assert not engine.permit_read(CANFrame(can_id=disable_id))
        protected_car.modes.enter_fail_safe()
        assert engine.permit_read(CANFrame(can_id=disable_id))
        assert engine.tamper_log.unauthorised_successes() == []
        assert coordinator.policy_pushes > 0

    def test_situation_observation(self, protected_car):
        situation = protected_car.enforcement_coordinator.sync(protected_car)
        assert isinstance(situation, CarSituation)
        assert situation.mode is protected_car.mode

    def test_motion_changes_doorlock_policy(self, protected_car):
        car = protected_car
        coordinator = car.enforcement_coordinator
        unlock_id = car.catalog.id_of("DOOR_UNLOCK_CMD")
        engine = coordinator.engines["DoorLocks"]
        assert engine.permit_read(CANFrame(can_id=unlock_id))
        car.door_locks.set_motion(True)
        coordinator.sync(car)
        assert not engine.permit_read(CANFrame(can_id=unlock_id))


class TestPolicyUpdates:
    def test_apply_policy_requires_newer_version(self, builder):
        car = builder.build_car(EnforcementConfig.full())
        coordinator = car.enforcement_coordinator
        stale = builder.model.policy  # same version as currently enforced
        with pytest.raises(ValueError):
            coordinator.apply_policy(stale, car)
        newer = builder.model.policy.next_version()
        coordinator.apply_policy(newer, car)
        assert coordinator.policy.version == newer.version

    def test_sync_after_an_in_place_rule_swap_reprograms_the_engine(self, builder):
        car = builder.build_car(EnforcementConfig.hardware_only())
        coordinator = car.enforcement_coordinator
        engine = coordinator.engines[NODE_EV_ECU]
        base_reads = engine.approved_read_ids
        assert base_reads
        # A private successor: the builder's policy is shared by every car.
        policy = coordinator.policy.next_version()
        coordinator.apply_policy(policy, car)
        policy.add_rule(
            AccessRule("SWAP-1", RuleEffect.DENY, NODE_EV_ECU, Direction.READ, ("*",))
        )
        coordinator.sync(car)
        assert engine.approved_read_ids == frozenset()
        # Same rule count as the denial, different content.
        policy.remove_rule("SWAP-1")
        policy.add_rule(
            AccessRule("SWAP-2", RuleEffect.DENY, NODE_SAFETY, Direction.READ, ("*",))
        )
        coordinator.sync(car)
        assert engine.approved_read_ids == base_reads
        assert engine.compiled_table.read_ids() == base_reads

    def test_counters(self, protected_car):
        coordinator = protected_car.enforcement_coordinator
        protected_car.start_periodic_traffic()
        protected_car.run(0.2)
        assert coordinator.total_hpe_decisions() > 0
        assert coordinator.tamper_rejections() == 0

    def test_install_app_module_requires_selinux(self, builder):
        car = builder.build_car(EnforcementConfig.hardware_only())
        with pytest.raises(RuntimeError):
            car.enforcement_coordinator.install_app_module(
                builder.model.derivation.selinux_module
            )
