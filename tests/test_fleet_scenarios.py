"""Tests for the fleet scenario registry and spec materialisation."""

import hashlib
import json
import random

import pytest

from repro.fleet.runner import simulate_vehicle
from repro.fleet.scenarios import (
    FleetScenario,
    VehicleAction,
    VehicleSpec,
    get_scenario,
    register_scenario,
    registered_scenarios,
    temporary_scenario,
    unregister_scenario,
)

BUILTIN_NAMES = {
    "baseline_cruise",
    "fleet_replay_storm",
    "staggered_ota_rollout",
    "mixed_ev_dos",
    "fuzz_probe",
}


def _noop_script(index: int, rng: random.Random, params: dict):
    return (VehicleAction(0.0, "drive", {"accel": rng.randint(30, 90)}),)


def make_scenario(name: str = "custom_test_scenario") -> FleetScenario:
    return FleetScenario(
        name=name,
        description="test scenario",
        duration_s=0.1,
        mix=(("hpe+selinux", 0.5), ("unprotected", 0.5)),
        script=_noop_script,
        parameters=(("frames", 10),),
    )


class TestRegistry:
    def test_builtin_workloads_are_registered(self):
        names = {scenario.name for scenario in registered_scenarios()}
        assert BUILTIN_NAMES <= names

    def test_register_get_unregister_round_trip(self):
        scenario = make_scenario()
        register_scenario(scenario)
        try:
            assert get_scenario(scenario.name) is scenario
            assert scenario.name in {s.name for s in registered_scenarios()}
        finally:
            removed = unregister_scenario(scenario.name)
        assert removed is scenario
        with pytest.raises(KeyError):
            get_scenario(scenario.name)

    def test_duplicate_registration_rejected_unless_replacing(self):
        scenario = make_scenario()
        register_scenario(scenario)
        try:
            with pytest.raises(ValueError):
                register_scenario(make_scenario())
            replacement = make_scenario()
            register_scenario(replacement, replace_existing=True)
            assert get_scenario(scenario.name) is replacement
        finally:
            unregister_scenario(scenario.name)

    def test_unknown_scenario_error_names_known_ones(self):
        with pytest.raises(KeyError, match="baseline_cruise"):
            get_scenario("no_such_workload")


class TestDecoratorRegistration:
    def test_decorator_builds_and_registers_the_scenario(self):
        @register_scenario(
            name="decorated_test_scenario",
            duration_s=0.1,
            mix=(("hpe+selinux", 1.0),),
            parameters={"accel": 55},
        )
        def decorated_script(index, rng, params):
            """Decorated steady driving."""
            return (VehicleAction(0.0, "drive", {"accel": params["accel"]}),)

        try:
            assert isinstance(decorated_script, FleetScenario)
            assert get_scenario("decorated_test_scenario") is decorated_script
            # The docstring's first line became the description.
            assert decorated_script.description == "Decorated steady driving."
            assert dict(decorated_script.parameters) == {"accel": 55}
            specs = decorated_script.vehicle_specs(3, seed=1)
            assert all(spec.actions[0].param("accel") == 55 for spec in specs)
        finally:
            unregister_scenario("decorated_test_scenario")

    def test_explicit_description_beats_the_docstring(self):
        @register_scenario(
            name="described_test_scenario",
            description="explicit wins",
            duration_s=0.1,
            mix=(("unprotected", 1.0),),
        )
        def scripted(index, rng, params):
            """Docstring loses."""
            return ()

        try:
            assert scripted.description == "explicit wins"
        finally:
            unregister_scenario("described_test_scenario")

    def test_decorator_form_requires_the_scenario_fields(self):
        with pytest.raises(TypeError, match="name=, duration_s= and mix="):
            register_scenario(name="incomplete")

    def test_positional_argument_must_be_a_scenario(self):
        with pytest.raises(TypeError, match="FleetScenario"):
            register_scenario(_noop_script)


class TestParameterAwareScripts:
    def test_three_argument_script_receives_parameter_overrides(self):
        @register_scenario(
            name="param_aware_test",
            duration_s=0.1,
            mix=(("hpe+selinux", 1.0),),
            parameters={"accel": 40},
        )
        def scripted(index, rng, params):
            """Parameter-aware steady driving."""
            return (VehicleAction(0.0, "drive", {"accel": params["accel"]}),)

        try:
            base = scripted.vehicle_specs(2, seed=1)
            assert all(spec.actions[0].param("accel") == 40 for spec in base)
            tuned = scripted.with_parameters(accel=90).vehicle_specs(2, seed=1)
            assert all(spec.actions[0].param("accel") == 90 for spec in tuned)
        finally:
            unregister_scenario("param_aware_test")

    @pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
    def test_builtin_scripts_read_their_declared_parameter(self, name):
        override = {
            "baseline_cruise": {"accel_range": (1, 2)},
            "fleet_replay_storm": {"replay_messages": ("DOOR_LOCK_CMD",)},
            "staggered_ota_rollout": {"update_window_s": (0.30, 0.34)},
            "mixed_ev_dos": {"dos_targets": ("EPS",)},
            "fuzz_probe": {"frames_range": (5, 10)},
        }[name]
        scenario = get_scenario(name)
        assert set(override) == set(dict(scenario.parameters))
        overridden = scenario.with_parameters(**override)
        assert overridden.vehicle_specs(20, seed=3) != scenario.vehicle_specs(20, seed=3)

    def test_undeclared_parameter_is_refused_naming_the_declared_ones(self):
        scenario = get_scenario("staggered_ota_rollout")
        with pytest.raises(ValueError, match=r"no_such_knob.*update_window_s"):
            scenario.with_parameters(no_such_knob=1)

    def test_update_window_bounds_the_policy_update_times(self):
        scenario = get_scenario("staggered_ota_rollout").with_parameters(
            update_window_s=[0.30, 0.34]
        )
        for spec in scenario.vehicle_specs(20, seed=3):
            (update,) = [a for a in spec.actions if a.kind == "policy_update"]
            assert 0.30 <= update.time <= 0.34

    def test_a_window_that_times_attacks_past_the_duration_is_refused(self):
        # Each vehicle's T05 attack follows its update by 0.05 s, which
        # a [0.40, 0.44] window puts past the 0.45 s duration.
        scenario = get_scenario("staggered_ota_rollout").with_parameters(
            update_window_s=[0.40, 0.44]
        )
        with pytest.raises(ValueError, match=r"vehicle 0: 'attack' action at 0\.4\d+ s"):
            scenario.vehicle_specs(20, seed=3)


#: SHA-256 over the canonical JSON of the first 200 specs of each
#: registered scenario at seed 2018, one spec a line.  A script change
#: that moves any default draw moves its digest.
PINNED_SPEC_STREAMS = {
    "baseline_cruise": "1ad176427af4679d36cfb118e142100695093b7575ad5bf1fbef9b68a7686b26",
    "fleet_replay_storm": "07ce39f5774d4f08548f15107c4ec0e3088550da446962fc49fd450e292dffde",
    "fuzz_probe": "d5cf9e994066e709435dcca8d88e5993813b3d8723b300b0301f1cef47ba3a95",
    "mixed_ev_dos": "4e6e66e2e66c73ae1465d0bda0d5f621c939fb3e04e780d79a300935f4c912cd",
    "staggered_ota_rollout": "ed60a4c025fa34a12317d9b51f5964dce203a335577a5581308150d8e2cdaa3a",
}


class TestPinnedSpecStreams:
    @pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
    def test_default_spec_stream_is_unchanged(self, name):
        digest = hashlib.sha256()
        for spec in get_scenario(name).iter_vehicle_specs(200, seed=2018):
            digest.update(
                json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode()
            )
            digest.update(b"\n")
        assert digest.hexdigest() == PINNED_SPEC_STREAMS[name]


class TestTemporaryScenario:
    def test_registers_for_the_block_only(self):
        scenario = make_scenario("temp_test_scenario")
        with temporary_scenario(scenario) as active:
            assert active is scenario
            assert get_scenario("temp_test_scenario") is scenario
        with pytest.raises(KeyError):
            get_scenario("temp_test_scenario")

    def test_shadows_and_restores_an_existing_scenario(self):
        builtin = get_scenario("baseline_cruise")
        shadow = make_scenario("baseline_cruise")
        with temporary_scenario(shadow):
            assert get_scenario("baseline_cruise") is shadow
        assert get_scenario("baseline_cruise") is builtin

    def test_restores_even_when_the_block_raises(self):
        scenario = make_scenario("temp_raises_scenario")
        with pytest.raises(RuntimeError):
            with temporary_scenario(scenario):
                raise RuntimeError("boom")
        with pytest.raises(KeyError):
            get_scenario("temp_raises_scenario")


class TestScenarioValidation:
    def test_rejects_unknown_enforcement_label(self):
        with pytest.raises(ValueError, match="enforcement label"):
            FleetScenario(
                name="bad",
                description="",
                duration_s=0.1,
                mix=(("tinfoil", 1.0),),
                script=_noop_script,
            )

    def test_rejects_nonpositive_duration_and_weights(self):
        with pytest.raises(ValueError):
            FleetScenario(
                name="bad", description="", duration_s=0.0,
                mix=(("unprotected", 1.0),), script=_noop_script,
            )
        with pytest.raises(ValueError):
            FleetScenario(
                name="bad", description="", duration_s=0.1,
                mix=(("unprotected", 0.0),), script=_noop_script,
            )

    def test_with_parameters_records_overrides(self):
        scenario = make_scenario().with_parameters(frames=99)
        assert dict(scenario.parameters)["frames"] == 99


class TestSpecMaterialisation:
    def test_same_seed_materialises_identical_specs(self):
        scenario = get_scenario("mixed_ev_dos")
        assert scenario.vehicle_specs(20, seed=5) == scenario.vehicle_specs(20, seed=5)

    def test_different_seeds_differ(self):
        scenario = get_scenario("mixed_ev_dos")
        assert scenario.vehicle_specs(20, seed=5) != scenario.vehicle_specs(20, seed=6)

    def test_specs_cover_the_declared_mix(self):
        scenario = get_scenario("mixed_ev_dos")
        specs = scenario.vehicle_specs(200, seed=1)
        labels = {spec.enforcement for spec in specs}
        assert labels == {label for label, _ in scenario.mix}

    def test_batched_materialisation_composes_with_combined(self):
        scenario = get_scenario("mixed_ev_dos")
        combined = scenario.vehicle_specs(8, seed=4)
        batched = scenario.vehicle_specs(4, seed=4) + scenario.vehicle_specs(
            4, seed=4, first_vehicle_id=4
        )
        assert batched == combined

    def test_vehicle_ids_are_sequential_from_first_id(self):
        specs = get_scenario("baseline_cruise").vehicle_specs(5, seed=1, first_vehicle_id=100)
        assert [spec.vehicle_id for spec in specs] == [100, 101, 102, 103, 104]

    def test_actions_are_time_sorted(self):
        for spec in get_scenario("staggered_ota_rollout").vehicle_specs(10, seed=3):
            times = [action.time for action in spec.actions]
            assert times == sorted(times)

    def test_fleet_size_must_be_positive(self):
        with pytest.raises(ValueError):
            get_scenario("baseline_cruise").vehicle_specs(0, seed=1)


class TestLateActions:
    """An action is timed within its vehicle's duration, or refused."""

    @staticmethod
    def _spec(attack_at: float) -> VehicleSpec:
        return VehicleSpec(
            vehicle_id=7,
            scenario="hand-built",
            enforcement="hpe+selinux",
            seed=1,
            duration_s=0.3,
            actions=(
                VehicleAction(0.0, "drive", {"accel": 50}),
                VehicleAction(attack_at, "attack", {"threat_id": "T01"}),
            ),
        )

    def test_an_action_after_the_duration_is_refused(self):
        with pytest.raises(ValueError) as excinfo:
            self._spec(0.35)
        message = str(excinfo.value)
        for part in ("vehicle 7", "'attack' action at 0.35 s", "duration of 0.3 s"):
            assert part in message

    def test_a_late_action_is_refused_through_from_dict(self):
        data = self._spec(0.3).to_dict()
        data["actions"][1]["time"] = 0.31
        with pytest.raises(ValueError, match="vehicle 7"):
            VehicleSpec.from_dict(data)

    def test_an_action_at_exactly_the_duration_runs(self):
        assert simulate_vehicle(self._spec(0.3)).attacks_attempted == 1


class TestSerialisationRoundTrip:
    def test_action_round_trips_through_dict(self):
        action = VehicleAction(0.25, "flood", {"frames": 50, "window_s": 0.1})
        rebuilt = VehicleAction.from_dict(action.to_dict())
        assert rebuilt == action
        assert rebuilt.param("frames") == 50
        assert rebuilt.param("missing", "fallback") == "fallback"

    def test_spec_round_trips_through_dict(self):
        for spec in get_scenario("fleet_replay_storm").vehicle_specs(5, seed=9):
            assert VehicleSpec.from_dict(spec.to_dict()) == spec

    def test_spec_round_trips_through_actual_json(self):
        import json

        for spec in get_scenario("fleet_replay_storm").vehicle_specs(5, seed=9):
            rebuilt = VehicleSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec
            assert all(hash(action) is not None for action in rebuilt.actions)

    def test_action_params_are_canonically_sorted(self):
        a = VehicleAction(0.1, "drive", {"b": 2, "a": 1})
        b = VehicleAction(0.1, "drive", {"a": 1, "b": 2})
        assert a == b
        assert a.params == (("a", 1), ("b", 2))

    def test_action_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown VehicleAction key\(s\) \['knid'\]"):
            VehicleAction.from_dict({"time": 0.1, "kind": "drive", "knid": "typo"})

    def test_action_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required VehicleAction"):
            VehicleAction.from_dict({"time": 0.1})

    def test_spec_rejects_unknown_keys(self):
        data = get_scenario("baseline_cruise").vehicle_specs(1, seed=1)[0].to_dict()
        data["enforcment"] = data.pop("enforcement")
        with pytest.raises(ValueError, match="enforcment"):
            VehicleSpec.from_dict(data)

    def test_spec_rejects_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required VehicleSpec"):
            VehicleSpec.from_dict({"vehicle_id": 1, "scenario": "x"})
