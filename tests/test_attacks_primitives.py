"""Tests for the attack primitives (attacker node, spoofing, tampering, DoS,
replay, fuzzing, firmware attacks) against unprotected and protected cars."""

import pytest

from repro.attacks.attacker import MaliciousNode, compromise_ecu
from repro.core.enforcement import EnforcementConfig
from repro.attacks.dos import BusFloodAttack, TargetedDisableAttack
from repro.attacks.firmware import FirmwareModificationAttack
from repro.attacks.fuzzing import FuzzingAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.spoofing import SpoofingAttack
from repro.attacks.tampering import SensorTamperingAttack, StatusTamperingAttack


class TestMaliciousNode:
    def test_inject_reaches_unprotected_applications(self, unprotected_car):
        attacker = MaliciousNode(unprotected_car)
        assert attacker.inject_message("ECU_DISABLE", b"\x01")
        unprotected_car.run(0.05)
        assert not unprotected_car.ev_ecu.propulsion_available
        assert attacker.frames_injected == 1

    def test_sniffing_broadcast_traffic(self, unprotected_car):
        attacker = MaliciousNode(unprotected_car)
        unprotected_car.start_periodic_traffic()
        unprotected_car.run(0.2)
        assert len(attacker.observed_frames()) > 0

    def test_detach(self, unprotected_car):
        attacker = MaliciousNode(unprotected_car)
        attacker.detach()
        assert attacker.name not in unprotected_car.bus.node_names()

    def test_same_name_reuses_the_attached_rogue_node(self, unprotected_car):
        first = MaliciousNode(unprotected_car, name="Rogue")
        second = MaliciousNode(unprotected_car, name="Rogue")
        assert second.node is first.node
        assert unprotected_car.bus.node_names().count("Rogue") == 1

    def test_ecu_name_clash_still_raises(self, unprotected_car):
        with pytest.raises(ValueError, match="already attached"):
            MaliciousNode(unprotected_car, name="EV-ECU")

    def test_compromise_ecu_helper(self, unprotected_car):
        ecu = compromise_ecu(unprotected_car.sensors)
        assert ecu.firmware_compromised


class TestSpoofing:
    def test_outside_spoof_succeeds_without_enforcement(self, unprotected_car):
        result = SpoofingAttack(unprotected_car, "ECU_DISABLE").from_malicious_node()
        assert result.reached_bus
        assert not unprotected_car.ev_ecu.propulsion_available

    def test_outside_spoof_blocked_by_hpe(self, protected_car):
        protected_car.drive(accel=50, duration=0.05)
        result = SpoofingAttack(protected_car, "ECU_DISABLE").from_malicious_node()
        # The rogue node has no HPE, so the frame reaches the bus, but the
        # EV-ECU's read filter refuses it.
        assert result.reached_bus
        assert protected_car.ev_ecu.propulsion_available

    def test_inside_spoof_blocked_at_write_filter(self, protected_car):
        protected_car.drive(accel=50, duration=0.05)
        result = SpoofingAttack(protected_car, "ECU_DISABLE").from_compromised_ecu(
            protected_car.sensors
        )
        assert not result.reached_bus
        assert protected_car.ev_ecu.propulsion_available

    def test_inside_spoof_succeeds_without_enforcement(self, unprotected_car):
        result = SpoofingAttack(unprotected_car, "ECU_DISABLE").from_compromised_ecu(
            unprotected_car.sensors
        )
        assert result.reached_bus
        assert not unprotected_car.ev_ecu.propulsion_available


class TestTampering:
    def test_sensor_tampering_misleads_engine(self, unprotected_car):
        result = SensorTamperingAttack(unprotected_car, "SENSOR_BRAKE", 255).execute()
        assert result.reached_bus
        assert unprotected_car.safety.last_brake == 255

    def test_status_tampering(self, unprotected_car):
        unprotected_car.infotainment.displayed_status["speed"] = 77
        result = StatusTamperingAttack(unprotected_car, forged_speed=0).execute_from("Sensors")
        assert result.reached_bus
        assert unprotected_car.infotainment.displayed_status["speed"] == 0


class TestDenialOfService:
    def test_targeted_disable_unprotected(self, unprotected_car):
        result = TargetedDisableAttack(unprotected_car, "EV-ECU").execute()
        assert result.target_disabled

    def test_targeted_disable_blocked_by_hpe(self, protected_car):
        protected_car.drive(accel=40, duration=0.05)
        result = TargetedDisableAttack(protected_car, "EV-ECU").execute()
        assert not result.target_disabled

    def test_unknown_target_rejected(self, unprotected_car):
        with pytest.raises(ValueError):
            TargetedDisableAttack(unprotected_car, "Nothing")

    def test_bus_flood_reduces_legitimate_share(self, builder):
        car = builder.build_car(None, start_periodic_traffic=True)
        car.run(0.1)
        result = BusFloodAttack(car).execute(frames=300, window_s=0.3)
        assert result.frames_on_bus == 300
        assert result.legitimate_delivery_ratio < 1.0


class TestReplay:
    def test_capture_and_replay(self, builder):
        car = builder.build_car(None, start_periodic_traffic=True)
        attack = ReplayAttack(car)
        captured = attack.capture(duration_s=0.3)
        assert captured > 0
        result = attack.replay()
        assert result.frames_replayed == captured
        assert result.reached_bus


class TestFuzzing:
    def test_fuzzing_is_contained_by_enforcement(self, builder):
        unprotected = builder.build_car(None)
        protected = builder.build_car(EnforcementConfig.full())
        unprotected_result = FuzzingAttack(unprotected, seed=99).execute(frames=150)
        protected_result = FuzzingAttack(protected, seed=99).execute(frames=150)
        assert unprotected_result.frames_sent == protected_result.frames_sent == 150
        # Whitelist enforcement delivers strictly less junk to applications.
        assert (
            protected_result.frames_delivered_to_applications
            < unprotected_result.frames_delivered_to_applications
        )
        assert protected_result.delivery_rate <= unprotected_result.delivery_rate

    def test_fuzzing_is_deterministic_per_seed(self, builder):
        first = FuzzingAttack(builder.build_car(None), seed=5).execute(frames=60)
        second = FuzzingAttack(builder.build_car(None), seed=5).execute(frames=60)
        assert first.distinct_ids_delivered == second.distinct_ids_delivered


class TestFirmwareAttacks:
    def test_radio_privacy_attack_blocked_by_selinux(self, protected_car):
        result = FirmwareModificationAttack(protected_car).radio_privacy_attack()
        assert not result.foothold_gained
        assert not result.objective_achieved

    def test_radio_privacy_attack_succeeds_unprotected(self, unprotected_car):
        result = FirmwareModificationAttack(unprotected_car).radio_privacy_attack()
        assert result.foothold_gained
        assert result.objective_achieved

    def test_infotainment_escalation_cannot_reconfigure_hpe(self, protected_car):
        result = FirmwareModificationAttack(protected_car).infotainment_escalation()
        assert result.foothold_gained           # the browser exploit itself works
        assert not result.hpe_reconfigured      # the HPE resists reconfiguration
        assert not result.objective_achieved    # and blocks the control frame
        assert protected_car.ev_ecu.propulsion_available

    def test_unauthorised_install_blocked_only_with_selinux(self, builder):
        protected = builder.build_car(EnforcementConfig.full())
        hardware_only = builder.build_car(EnforcementConfig.hardware_only())
        assert not FirmwareModificationAttack(protected).unauthorised_install().objective_achieved
        assert FirmwareModificationAttack(hardware_only).unauthorised_install().objective_achieved
