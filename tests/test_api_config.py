"""Tests for :class:`repro.api.config.ExperimentConfig`: validation,
presets, serialisation round trips and the CLI-equivalence surface."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cli import build_parser
from repro.api.config import EXPERIMENT_FIELDS, PRESETS, ExperimentConfig
from repro.can.trace import TraceLevel
from repro.core.enforcement import EnforcementConfig
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT
from repro.fleet.scenarios import ENFORCEMENT_LABELS


class TestValidation:
    def test_defaults_are_the_fast_path(self):
        config = ExperimentConfig(scenario="fleet_replay_storm", vehicles=10)
        assert config.trace_level is TraceLevel.COUNTERS
        assert config.inbox_limit == DEFAULT_FLEET_INBOX_LIMIT
        assert config.reuse_cars and config.compile_tables
        assert config.workers == 1

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"vehicles": 0}, "vehicles"),
            ({"workers": 0}, "workers"),
            ({"first_vehicle_id": -1}, "first_vehicle_id"),
            ({"enforcement": "tinfoil"}, "enforcement label"),
            ({"inbox_limit": 0}, "inbox_limit"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"retry": -1}, "retry"),
            ({"chunk_timeout_s": 0}, "chunk_timeout_s"),
            ({"chunk_timeout_s": -2.5}, "chunk_timeout_s"),
        ],
    )
    def test_bad_fields_raise(self, overrides, match):
        kwargs = {"scenario": "fleet_replay_storm", "vehicles": 10, **overrides}
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    def test_empty_scenario_raises(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig(scenario="  ", vehicles=1)

    def test_bad_trace_level_raises(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="x", vehicles=1, trace_level="verbose")

    def test_dict_valued_parameters_stay_hashable(self):
        config = ExperimentConfig(
            scenario="x", vehicles=1, scenario_parameters={"mix": {"b": 2, "a": 1}}
        )
        assert hash(config) is not None
        assert config.scenario_parameters == (("mix", (("a", 1), ("b", 2))),)
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_scenario_parameters_canonicalise(self):
        from_dict = ExperimentConfig(
            scenario="x", vehicles=1, scenario_parameters={"b": [1, 2], "a": 3}
        )
        from_pairs = ExperimentConfig(
            scenario="x", vehicles=1, scenario_parameters=(("a", 3), ("b", (1, 2)))
        )
        assert from_dict == from_pairs
        assert hash(from_dict) == hash(from_pairs)

    def test_with_overrides_revalidates(self):
        config = ExperimentConfig(scenario="x", vehicles=4)
        assert config.with_overrides(workers=4).workers == 4
        with pytest.raises(ValueError):
            config.with_overrides(workers=0)

    def test_resilience_defaults(self):
        config = ExperimentConfig(scenario="x", vehicles=4)
        assert config.retry == 2
        assert config.chunk_timeout_s is None
        assert config.degrade is True

    def test_chunk_timeout_coerces_to_float(self):
        config = ExperimentConfig(scenario="x", vehicles=4, chunk_timeout_s=30)
        assert isinstance(config.chunk_timeout_s, float)
        assert config.chunk_timeout_s == 30.0

    def test_retry_policy_counts_the_first_attempt(self):
        assert ExperimentConfig(
            scenario="x", vehicles=4, retry=2
        ).retry_policy().max_attempts == 3
        assert ExperimentConfig(
            scenario="x", vehicles=4, retry=0
        ).retry_policy().max_attempts == 1


class TestPresets:
    def test_debug_is_fully_inspectable(self):
        config = ExperimentConfig.debug("fleet_replay_storm", 5)
        assert config.workers == 1
        assert config.trace_level is TraceLevel.FULL
        assert config.inbox_limit is None
        assert not config.reuse_cars

    def test_throughput_is_the_fast_path(self):
        config = ExperimentConfig.throughput("fleet_replay_storm", 5)
        assert config.workers == 4
        assert config.trace_level is TraceLevel.COUNTERS
        assert config.reuse_cars and config.compile_tables

    def test_faithful_uses_the_object_decision_path(self):
        config = ExperimentConfig.faithful("fleet_replay_storm", 5)
        assert not config.compile_tables
        assert not config.reuse_cars
        assert config.trace_level is TraceLevel.FULL

    def test_preset_accepts_overrides(self):
        config = ExperimentConfig.preset("throughput", "x", 5, workers=2, seed=9)
        assert config.workers == 2
        assert config.seed == 9

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown preset"):
            ExperimentConfig.preset("warp", "x", 5)

    def test_preset_registry_names(self):
        assert set(PRESETS) == {"debug", "throughput", "faithful"}

    def test_resilience_posture_per_preset(self):
        # Debug and faithful want failures loud; throughput heals them.
        assert ExperimentConfig.debug("x", 5).retry == 0
        assert ExperimentConfig.debug("x", 5).degrade is False
        assert ExperimentConfig.faithful("x", 5).retry == 0
        throughput = ExperimentConfig.throughput("x", 5)
        assert throughput.retry == 2
        assert throughput.chunk_timeout_s == 120.0
        assert throughput.degrade is True


class TestSerialisation:
    def test_dict_round_trip(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos",
            vehicles=42,
            seed=7,
            enforcement="hpe-only",
            scenario_parameters={"frames": (30, 80)},
            trace_level="ring",
            inbox_limit=None,
            workers=4,
            chunk_size=5,
            reuse_cars=False,
            compile_tables=False,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip_restores_tuples(self):
        config = ExperimentConfig(
            scenario="x", vehicles=3, scenario_parameters={"window": (0.1, 0.2)}
        )
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt == config
        assert rebuilt.scenario_parameters == (("window", (0.1, 0.2)),)

    def test_unknown_keys_rejected(self):
        data = ExperimentConfig(scenario="x", vehicles=3).to_dict()
        data["vehicels"] = 5
        with pytest.raises(ValueError, match="vehicels"):
            ExperimentConfig.from_dict(data)

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            ExperimentConfig.from_dict({"scenario": "x"})

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="object"):
            ExperimentConfig.from_json("[1, 2]")

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
        ),
        vehicles=st.integers(min_value=1, max_value=10**6),
        seed=st.integers(min_value=-(2**31), max_value=2**31),
        first_vehicle_id=st.integers(min_value=0, max_value=10**6),
        enforcement=st.sampled_from((None,) + ENFORCEMENT_LABELS),
        params=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=12),
                st.booleans(),
                st.lists(st.integers(min_value=0, max_value=99), max_size=4),
            ),
            max_size=4,
        ),
        trace_level=st.sampled_from(list(TraceLevel)),
        inbox_limit=st.one_of(st.none(), st.integers(min_value=1, max_value=10**5)),
        workers=st.integers(min_value=1, max_value=16),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
        reuse_cars=st.booleans(),
        compile_tables=st.booleans(),
        retry=st.integers(min_value=0, max_value=5),
        chunk_timeout_s=st.one_of(
            st.none(), st.floats(min_value=0.001, max_value=3600.0)
        ),
        degrade=st.booleans(),
    )
    def test_property_round_trips(self, scenario, vehicles, seed, first_vehicle_id,
                                  enforcement, params, trace_level, inbox_limit,
                                  workers, chunk_size, reuse_cars, compile_tables,
                                  retry, chunk_timeout_s, degrade):
        config = ExperimentConfig(
            scenario=scenario,
            vehicles=vehicles,
            seed=seed,
            first_vehicle_id=first_vehicle_id,
            enforcement=enforcement,
            scenario_parameters=params,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
            workers=workers,
            chunk_size=chunk_size,
            reuse_cars=reuse_cars,
            compile_tables=compile_tables,
            retry=retry,
            chunk_timeout_s=chunk_timeout_s,
            degrade=degrade,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert ExperimentConfig.from_json(config.to_json()) == config
        assert ExperimentConfig.from_json(
            json.dumps(json.loads(config.to_json()))
        ) == config


#: One override per experiment field (each must move the hash) ...
EXPERIMENT_OVERRIDES = [
    {"scenario": "fuzz_probe"},
    {"scenario_parameters": {"frames": 9}},
    {"vehicles": 11},
    {"seed": 1},
    {"first_vehicle_id": 5},
    {"enforcement": "hpe-only"},
]

#: ... and one per execution field (none may).
EXECUTION_OVERRIDES = [
    {"trace_level": "full"},
    {"inbox_limit": None},
    {"workers": 2},
    {"chunk_size": 3},
    {"spec_transfer": "pickle"},
    {"reuse_cars": False},
    {"compile_tables": False},
    {"retry": 0},
    {"chunk_timeout_s": 30.0},
    {"degrade": False},
]


class TestConfigHash:
    """The service's dedup key: the experiment fields only, canonical,
    order-blind, round-trip stable."""

    def test_hash_is_sha256_hex(self):
        digest = ExperimentConfig(scenario="x", vehicles=3).config_hash()
        assert len(digest) == 64
        assert int(digest, 16) >= 0  # valid hex

    def test_equal_configs_hash_equal(self):
        a = ExperimentConfig(scenario="mixed_ev_dos", vehicles=10, seed=4)
        b = ExperimentConfig(scenario="mixed_ev_dos", vehicles=10, seed=4)
        assert a.config_hash() == b.config_hash()

    def test_every_field_is_an_experiment_or_an_execution_field(self):
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        experiment = {name for override in EXPERIMENT_OVERRIDES for name in override}
        execution = {name for override in EXECUTION_OVERRIDES for name in override}
        assert experiment == set(EXPERIMENT_FIELDS)
        assert experiment | execution == fields
        assert not experiment & execution

    @pytest.mark.parametrize("override", EXPERIMENT_OVERRIDES, ids=lambda o: next(iter(o)))
    def test_each_experiment_field_moves_the_hash(self, override):
        base = ExperimentConfig(scenario="mixed_ev_dos", vehicles=10)
        assert base.with_overrides(**override).config_hash() != base.config_hash()

    @pytest.mark.parametrize("override", EXECUTION_OVERRIDES, ids=lambda o: next(iter(o)))
    def test_no_execution_field_moves_the_hash(self, override):
        base = ExperimentConfig(scenario="mixed_ev_dos", vehicles=10)
        other = base.with_overrides(**override)
        assert other != base
        assert other.config_hash() == base.config_hash()

    def test_presets_of_one_experiment_share_one_hash(self):
        configs = [
            ExperimentConfig.preset(name, "mixed_ev_dos", 40, seed=2018) for name in PRESETS
        ]
        assert len({config.canonical_json() for config in configs}) == len(PRESETS)
        assert len({config.config_hash() for config in configs}) == 1

    def test_hash_invariant_to_dict_key_order(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos",
            vehicles=7,
            seed=2,
            scenario_parameters={"b": 1, "a": 2},
        )
        data = config.to_dict()
        reversed_data = dict(reversed(list(data.items())))
        assert list(reversed_data) != list(data)
        assert (
            ExperimentConfig.from_dict(reversed_data).config_hash()
            == config.config_hash()
        )

    def test_hash_invariant_to_parameter_order(self):
        a = ExperimentConfig(
            scenario="x", vehicles=3, scenario_parameters={"p": 1, "q": 2}
        )
        b = ExperimentConfig(
            scenario="x", vehicles=3, scenario_parameters={"q": 2, "p": 1}
        )
        assert a.config_hash() == b.config_hash()

    def test_hash_stable_across_serialisation_round_trips(self):
        config = ExperimentConfig(
            scenario="mixed_ev_dos",
            vehicles=5,
            scenario_parameters={"window": (0.25, 0.5), "tags": ["a", "b"]},
            trace_level="ring",
        )
        once = ExperimentConfig.from_dict(config.to_dict())
        twice = ExperimentConfig.from_json(once.to_json())
        assert once.config_hash() == config.config_hash()
        assert twice.config_hash() == config.config_hash()

    def test_canonical_json_has_sorted_keys_and_no_whitespace(self):
        text = ExperimentConfig(scenario="x", vehicles=3).canonical_json()
        assert ": " not in text and ", " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        params=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(10**6), max_value=10**6),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=12),
                st.booleans(),
            ),
            max_size=4,
        ),
    )
    def test_property_hash_survives_round_trip(self, seed, params):
        config = ExperimentConfig(
            scenario="x", vehicles=3, seed=seed, scenario_parameters=params
        )
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt.config_hash() == config.config_hash()


class TestCliEquivalence:
    def test_cli_arguments_parse_back_to_the_same_config(self):
        config = ExperimentConfig(
            scenario="fleet_replay_storm",
            vehicles=25,
            seed=3,
            first_vehicle_id=100,
            enforcement="unprotected",
            scenario_parameters={"frames": (30, 80), "note": "sweep"},
            trace_level="ring",
            inbox_limit=None,
            workers=2,
            chunk_size=4,
            reuse_cars=False,
            compile_tables=False,
            retry=4,
            chunk_timeout_s=45.0,
            degrade=False,
        )
        from repro.api.cli import _resolve_config

        args = build_parser().parse_args(config.cli_arguments())
        assert _resolve_config(args) == config

    def test_cli_command_names_the_module(self):
        config = ExperimentConfig(scenario="x", vehicles=1)
        assert config.cli_command().startswith("python -m repro fleet run ")

    def test_cli_command_shell_quoting_survives_sequence_params(self):
        import shlex

        from repro.api.cli import _resolve_config

        config = ExperimentConfig(
            scenario="x",
            vehicles=2,
            scenario_parameters={"burst": (1, 2), "note": "two words"},
        )
        # The printed command, split exactly as a shell would split it,
        # must parse back to the identical config.
        argv = shlex.split(config.cli_command())[3:]  # drop python -m repro
        args = build_parser().parse_args(argv)
        assert _resolve_config(args) == config


class TestEnforcementFromLabel:
    @pytest.mark.parametrize("label", ENFORCEMENT_LABELS)
    def test_round_trips_every_label(self, label):
        assert EnforcementConfig.from_label(label).label == label

    def test_named_constructors_round_trip(self):
        for config in (
            EnforcementConfig.none(),
            EnforcementConfig.software_only(),
            EnforcementConfig.hardware_only(),
            EnforcementConfig.full(),
        ):
            assert EnforcementConfig.from_label(config.label) == config

    def test_compile_tables_toggle(self):
        assert not EnforcementConfig.from_label("hpe-only", compile_tables=False).compile_tables

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown enforcement label"):
            EnforcementConfig.from_label("hpe+guesswork")
