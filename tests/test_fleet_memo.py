"""Tests for the outcome memo (:class:`repro.fleet.runner.OutcomeMemo`).

The memo's contract is outcome-exactness: every deterministic field of
every outcome it serves equals what the kernel produces for the same
spec, so fleet fingerprints cannot tell whether it was on.  These tests
assert that on random spec streams from every registered scenario and
on hand-built streams, pin the seed rule (``fuzz`` specs key on their
seed, everything else shares one kernel run across seeds), pin the
memo's scope (one per session, consulted before any spec reaches a
worker; workers keep none), and check that throughput and telemetry
count kernel runs, not vehicles.
"""

import dataclasses
import gc
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.can.trace import TraceLevel
from repro.casestudy.builder import CaseStudyBuilder
from repro.fleet import runner
from repro.fleet.resilience import FaultPlan
from repro.fleet.runner import OutcomeMemo, memo_applies, simulate_vehicle
from repro.fleet.scenarios import (
    ENFORCEMENT_LABELS,
    VehicleAction,
    VehicleSpec,
    get_scenario,
    registered_scenarios,
)
from repro.fleet.transfer import (
    SPEC_TRANSFER_MODES,
    OutcomeBlock,
    SpecBlock,
    read_block,
    write_block,
)

SCENARIO_NAMES = [scenario.name for scenario in registered_scenarios()]

SRC = Path(__file__).resolve().parents[1] / "src"


def _tuples(outcomes):
    return [outcome.deterministic_tuple() for outcome in outcomes]


def _object_tuples(specs):
    return _tuples(simulate_vehicle(spec) for spec in specs)


class _CountingSimulate:
    """``simulate_vehicle`` with a call counter: the memo's kernel runs."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        return simulate_vehicle(spec)


def _memo_run(specs, memo=None):
    memo = OutcomeMemo() if memo is None else memo
    simulate = _CountingSimulate()
    outcomes = list(memo.outcomes(specs, simulate))
    return outcomes, simulate.calls


def _spec(vehicle_id, actions, enforcement="hpe+selinux", duration_s=0.1, seed=7):
    return VehicleSpec(
        vehicle_id=vehicle_id,
        scenario="hand-built",
        enforcement=enforcement,
        seed=seed,
        duration_s=duration_s,
        actions=tuple(actions),
    )


def _fingerprint(config: ExperimentConfig) -> str:
    with FleetSession(config) as session:
        return session.run().fingerprint()


class TestSeedRule:
    def test_equal_actions_with_distinct_seeds_share_one_kernel_run(self):
        actions = [VehicleAction(0.0, "drive", {"accel": 60})]
        specs = [_spec(i, actions, seed=i * 977 + 5) for i in range(6)]
        outcomes, kernel_runs = _memo_run(specs)
        assert kernel_runs == 1
        assert _tuples(outcomes) == _object_tuples(specs)
        assert [o.memo_hit for o in outcomes] == [False] + [True] * 5
        assert [o.vehicle_id for o in outcomes] == list(range(6))

    def test_fuzz_specs_with_distinct_seeds_each_run_the_kernel(self):
        # Fuzzing draws frames from the seeded kernel stream, so sharing
        # one run across seeds would serve wrong outcomes: the expected
        # rows really do differ by seed.
        actions = [VehicleAction(0.0, "fuzz", {"frames": 40})]
        specs = [_spec(i, actions, seed=100 + i) for i in range(6)]
        expected = _object_tuples(specs)
        assert len({row[3:] for row in expected}) > 1
        outcomes, kernel_runs = _memo_run(specs)
        assert kernel_runs == 6
        assert _tuples(outcomes) == expected

    def test_fuzz_specs_with_equal_seeds_share_one_kernel_run(self):
        actions = [VehicleAction(0.0, "fuzz", {"frames": 40})]
        specs = [_spec(i, actions, seed=11) for i in range(4)]
        outcomes, kernel_runs = _memo_run(specs)
        assert kernel_runs == 1
        assert _tuples(outcomes) == _object_tuples(specs)

    def test_inbox_limit_is_not_part_of_the_key(self):
        # Inbox retention cannot move an outcome (the inbox-limit probes
        # in test_fleet_trace_levels.py), so runs at different bounds
        # share one session's memo.
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=12, seed=2018)
        with FleetSession(config) as session:
            bounded = session.run_config(config.with_overrides(inbox_limit=1))
            unbounded = session.run_config(config.with_overrides(inbox_limit=None))
        assert bounded.kernel_runs > 0
        assert unbounded.kernel_runs == 0
        assert unbounded.fingerprint() == bounded.fingerprint()


class TestKey:
    def test_vehicle_id_is_not_part_of_the_key(self):
        actions = [VehicleAction(0.0, "drive", {"accel": 60})]
        assert OutcomeMemo.key(_spec(0, actions)) == OutcomeMemo.key(_spec(41, actions))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scenario", "another-scenario"),
            ("enforcement", "unprotected"),
            ("duration_s", 0.2),
            ("actions", (VehicleAction(0.0, "drive", {"accel": 61}),)),
        ],
        ids=["scenario", "enforcement", "duration_s", "actions"],
    )
    def test_each_behaviour_field_splits_the_key(self, field, value):
        base = _spec(0, [VehicleAction(0.0, "drive", {"accel": 60})])
        assert getattr(base, field) != value
        other = dataclasses.replace(base, vehicle_id=1, **{field: value})
        assert OutcomeMemo.key(base) != OutcomeMemo.key(other)
        outcomes, kernel_runs = _memo_run([base, other])
        assert kernel_runs == 2
        assert _tuples(outcomes) == _object_tuples([base, other])

    def test_int_valued_hand_built_specs_key_like_their_decoded_copies(self):
        # Int durations/times canonicalise to floats on construction, so
        # a spec and its SpecBlock round trip share one key.
        specs = [
            _spec(i, [VehicleAction(0, "park_and_arm", {})], duration_s=1)
            for i in range(4)
        ]
        decoded = SpecBlock.from_bytes(SpecBlock.encode(specs).to_bytes()).decode()
        assert {OutcomeMemo.key(spec) for spec in specs + decoded} == {
            OutcomeMemo.key(specs[0])
        }
        outcomes, kernel_runs = _memo_run(specs + decoded)
        assert kernel_runs == 1
        assert _tuples(outcomes) == _object_tuples(specs + decoded)


class TestHits:
    def test_hits_zero_their_timings_and_the_miss_keeps_its_own(self):
        actions = [VehicleAction(0.0, "drive", {"accel": 45})]
        specs = [_spec(i, actions, seed=i) for i in range(3)]
        outcomes, _ = _memo_run(specs)
        first, *hits = outcomes
        assert not first.memo_hit
        assert first.wall_seconds > 0.0
        for hit in hits:
            assert hit.memo_hit
            assert (hit.wall_seconds, hit.build_seconds) == (0.0, 0.0)


def _reseeded_fleet(name):
    """A scenario's fleet followed by a re-seeded copy of every vehicle."""
    specs = get_scenario(name).vehicle_specs(6, seed=2018)
    copies = [
        dataclasses.replace(spec, vehicle_id=len(specs) + i, seed=spec.seed + 7919)
        for i, spec in enumerate(specs)
    ]
    return specs, copies


def _check_worker_chunk(specs, outcomes):
    """Outcome-exact, in order, and a kernel run for every spec."""
    assert _tuples(outcomes) == _object_tuples(specs)
    assert [o.vehicle_id for o in outcomes] == [s.vehicle_id for s in specs]
    assert not any(o.memo_hit for o in outcomes)


class TestWorkerChunks:
    """Workers keep no memo: a chunk function runs every spec it gets."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_spec_list_path_is_outcome_exact(self, name):
        specs, copies = _reseeded_fleet(name)
        outcomes, snapshot = runner._simulate_chunk(specs + copies)
        assert snapshot is None
        _check_worker_chunk(specs + copies, outcomes)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_columnar_block_path_is_outcome_exact(self, name):
        # The shm entry point decodes a SpecBlock and returns an
        # OutcomeBlock; repeated keys still each run the kernel.
        specs, copies = _reseeded_fleet(name)
        handle = write_block(SpecBlock.encode(specs + copies).to_bytes())
        out_handle, _ = runner._simulate_chunk_shm(handle)
        outcomes = OutcomeBlock.from_bytes(read_block(out_handle)).decode()
        _check_worker_chunk(specs + copies, outcomes)

    def test_chunk_snapshot_counts_every_spec_as_a_kernel_run(self):
        specs, copies = _reseeded_fleet("baseline_cruise")
        outcomes, snapshot = runner._simulate_chunk(specs + copies, telemetry=True)
        counters = snapshot["counters"]
        assert counters["vehicles.simulated"] == len(outcomes) == len(specs + copies)
        assert "simulate.memo_hits" not in counters

    def test_worker_module_has_no_memo(self):
        assert not any(
            isinstance(value, OutcomeMemo) for value in vars(runner).values()
        )


def _split_run(memo, chunks):
    """Split every chunk first, then join each with real kernel runs.

    Returns the joined outcomes and the number of kernel runs -- the
    parallel path's order of operations with every chunk in flight at
    once.
    """
    in_flight = {}
    planned = [memo.split(chunk, in_flight) for chunk in chunks]
    outcomes, kernel_runs = [], 0
    for plan, misses in planned:
        kernel_runs += len(misses)
        ran = [simulate_vehicle(spec) for spec in misses]
        outcomes.extend(memo.join(plan, ran, in_flight))
    assert in_flight == {}
    return outcomes, kernel_runs


class TestSplitJoin:
    """The parent-side half of the memo: plan a chunk, join it back."""

    def test_misses_are_the_first_occurrence_of_each_key(self):
        specs = []
        for i in range(9):
            if i % 3 == 2:
                actions = [VehicleAction(0.0, "fuzz", {"frames": 10})]
            else:
                actions = [VehicleAction(0.0, "drive", {"accel": 40 + 10 * (i % 2)})]
            specs.append(_spec(i, actions, seed=100 + i))
        _, misses = OutcomeMemo().split(specs, {})
        assert [spec.vehicle_id for spec in misses] == [0, 1, 2, 5, 8]
        outcomes, kernel_runs = _split_run(OutcomeMemo(), [specs])
        assert kernel_runs == 5
        assert _tuples(outcomes) == _object_tuples(specs)
        assert [o.memo_hit for o in outcomes] == [
            False, False, False, True, True, False, True, True, False
        ]

    def test_memo_is_shared_across_chunks_and_streams(self):
        specs, copies = _reseeded_fleet("baseline_cruise")
        memo = OutcomeMemo()
        _split_run(memo, [specs])
        plan, misses = memo.split(copies, {})
        assert misses == []
        outcomes = list(memo.join(plan, [], {}))
        assert all(o.memo_hit for o in outcomes)
        assert _tuples(outcomes) == _object_tuples(copies)

    def test_duplicates_of_an_in_flight_key_are_served_from_its_first_run(self):
        specs, copies = _reseeded_fleet("baseline_cruise")
        # Both chunks are split before either is joined: the copies find
        # every key in flight, so their chunk has nothing to run.
        outcomes, kernel_runs = _split_run(OutcomeMemo(), [specs, copies])
        distinct = {OutcomeMemo.key(s) for s in specs}
        assert kernel_runs == len(distinct)
        assert _tuples(outcomes) == _object_tuples(specs + copies)
        assert all(o.memo_hit for o in outcomes[len(specs):])

    def test_eviction_cannot_strand_an_in_flight_duplicate(self, monkeypatch):
        monkeypatch.setattr(runner, "MEMO_LIMIT", 1)
        first = [
            _spec(i, [VehicleAction(0.0, "drive", {"accel": 40 + i})]) for i in range(3)
        ]
        again = [dataclasses.replace(spec, vehicle_id=3 + i) for i, spec in enumerate(first)]
        # Joining the first chunk stores three keys into a one-entry
        # memo; the second chunk was planned against their cells.
        outcomes, kernel_runs = _split_run(OutcomeMemo(), [first, again])
        assert kernel_runs == 3
        assert _tuples(outcomes) == _object_tuples(first + again)

    def test_the_memo_pins_no_outcome_it_hands_out(self):
        specs, copies = _reseeded_fleet("baseline_cruise")
        memo = OutcomeMemo()
        handed = _split_run(memo, [specs])[0]
        handed += memo.outcomes(copies, simulate_vehicle)
        unseen = [dataclasses.replace(spec, scenario="unseen") for spec in specs]
        handed += memo.outcomes(unseen, simulate_vehicle)  # inline misses
        refs = [weakref.ref(outcome) for outcome in handed]
        del handed
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestBound:
    def test_oldest_entries_are_evicted_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(runner, "MEMO_LIMIT", 3)
        specs = [
            _spec(i, [VehicleAction(0.0, "drive", {"accel": 40 + i})])
            for i in range(5)
        ]
        memo = OutcomeMemo()
        _, kernel_runs = _memo_run(specs, memo)
        assert kernel_runs == 5
        # The three newest keys are kept, the two oldest were dropped.
        assert _memo_run(specs[2:], memo)[1] == 0
        outcomes, kernel_runs = _memo_run(specs[:1], memo)
        assert kernel_runs == 1
        assert _tuples(outcomes) == _object_tuples(specs[:1])


class TestRegime:
    def test_memo_applies_only_to_counters_with_compiled_tables(self):
        assert memo_applies("counters", True)
        assert not memo_applies("counters", False)
        assert not memo_applies("full", True)
        assert not memo_applies("ring", True)

    def test_faithful_preset_runs_every_vehicle(self):
        config = ExperimentConfig.faithful("baseline_cruise", 24, seed=2018)
        with FleetSession(config) as session:
            result = session.run()
        assert result.kernel_runs == result.vehicles == 24

    @pytest.mark.parametrize(
        "trace_level, compile_tables",
        [("full", True), ("ring", True), ("counters", False)],
    )
    def test_parallel_runs_outside_the_regime_bypass_the_memo(
        self, trace_level, compile_tables
    ):
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=24, seed=2018, workers=2,
            trace_level=trace_level, compile_tables=compile_tables,
        )
        with FleetSession(config) as session:
            result = session.run()
            assert result.kernel_runs == result.vehicles == 24
            # Nothing was stored either: a memo-regime run starts cold.
            cold = session.run_config(config.with_overrides(trace_level="counters",
                                                            compile_tables=True))
        assert cold.kernel_runs > 0


class TestEscapeParameters:
    def test_params_beyond_64_bits_key_exactly_through_shm_blocks(self):
        # Params above the codec's 64-bit columns ride the escape table;
        # decoded specs must key exactly as the originals did.
        big = 2**80 + 17
        specs = [
            _spec(0, [VehicleAction(0.0, "drive", {"accel": 50, "band": big})]),
            _spec(1, [VehicleAction(0.0, "drive", {"accel": 50, "band": big})]),
            _spec(2, [VehicleAction(0.0, "drive", {"accel": 50, "band": big + 1})]),
            _spec(3, [VehicleAction(0.0, "drive", {"accel": 50})]),
        ]
        decoded = SpecBlock.from_bytes(SpecBlock.encode(specs).to_bytes()).decode()
        outcomes, kernel_runs = _memo_run(decoded)
        assert kernel_runs == 3
        assert _tuples(outcomes) == _object_tuples(specs)
        config = ExperimentConfig(
            scenario="hand-built", vehicles=4, workers=2, chunk_size=2
        )
        with FleetSession(config) as session:
            memo_on = session.run_specs(specs, "hand-built").fingerprint()
        faithful = ExperimentConfig.faithful("hand-built", 4)
        with FleetSession(faithful) as session:
            assert session.run_specs(specs, "hand-built").fingerprint() == memo_on


def _benign_action():
    drive = st.builds(
        lambda accel: VehicleAction(0.0, "drive", {"accel": accel}),
        st.integers(min_value=30, max_value=90),
    )
    park = st.just(VehicleAction(0.0, "park_and_arm", {}))
    update = st.just(VehicleAction(0.0, "policy_update", {"description": "sweep"}))
    return st.one_of(drive, park, update)


def _attack_action():
    # Attack primitives attach named rogue nodes, so the kernel allows
    # at most one per vehicle timeline -- the strategy mirrors that.
    attack = st.builds(
        lambda tid: VehicleAction(0.05, "attack", {"threat_id": tid}),
        st.sampled_from(["T01", "T05", "T13"]),
    )
    dos = st.builds(
        lambda target: VehicleAction(
            0.05, "targeted_dos", {"target": target, "repetitions": 1}
        ),
        st.sampled_from(["EV-ECU", "Engine", "EPS"]),
    )
    flood = st.builds(
        lambda frames: VehicleAction(
            0.05, "flood", {"frames": frames, "window_s": 0.05}
        ),
        st.integers(min_value=5, max_value=15),
    )
    replay = st.just(
        VehicleAction(
            0.05,
            "replay",
            {"messages": ("DOOR_UNLOCK_CMD",), "capture_duration_s": 0.05},
        )
    )
    fuzz = st.builds(
        lambda frames: VehicleAction(0.05, "fuzz", {"frames": frames}),
        st.integers(min_value=5, max_value=15),
    )
    return st.one_of(attack, dos, flood, replay, fuzz)


@st.composite
def _hand_built_stream(draw):
    """A few distinct behaviours spread over many seeds, so keys repeat."""
    behaviours = draw(
        st.lists(
            st.tuples(
                st.none() | _benign_action(),
                st.none() | _attack_action(),
                st.sampled_from(ENFORCEMENT_LABELS),
            ),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(behaviours) - 1),
                st.integers(min_value=0, max_value=2**32),
            ),
            min_size=1,
            max_size=6,
        )
    )
    specs = []
    for vehicle_id, (pick, seed) in enumerate(picks):
        benign, attacky, enforcement = behaviours[pick]
        actions = [action for action in (benign, attacky) if action is not None]
        specs.append(_spec(vehicle_id, actions, enforcement=enforcement, seed=seed))
    return specs


@st.composite
def _scenario_stream(draw, name):
    """A registered scenario's fleet plus re-seeded copies of some vehicles."""
    specs = get_scenario(name).vehicle_specs(
        draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    repeats = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(specs) - 1),
                st.integers(min_value=0, max_value=2**32),
            ),
            max_size=3,
        )
    )
    for index, seed in repeats:
        specs.append(
            dataclasses.replace(specs[index], vehicle_id=len(specs), seed=seed)
        )
    return specs


class TestMemoOnEqualsMemoOff:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_random_scenario_streams(self, name, data):
        specs = data.draw(_scenario_stream(name))
        outcomes, kernel_runs = _memo_run(specs)
        assert _tuples(outcomes) == _object_tuples(specs)
        assert kernel_runs == len(
            {OutcomeMemo.key(spec) for spec in specs}
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=_hand_built_stream())
    def test_random_hand_built_streams(self, specs):
        outcomes, _ = _memo_run(specs)
        assert _tuples(outcomes) == _object_tuples(specs)


@pytest.fixture(scope="module")
def faithful_fingerprints():
    return {
        name: _fingerprint(ExperimentConfig.faithful(name, 24, seed=2018))
        for name in SCENARIO_NAMES
    }


class TestSessions:
    @pytest.mark.parametrize("transfer", ["shm", "pickle"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fingerprints_equal_faithful_on_every_scenario(
        self, faithful_fingerprints, workers, transfer
    ):
        # One session runs every scenario, so its memo carries entries
        # from one scenario into the next.
        base = ExperimentConfig(
            scenario=SCENARIO_NAMES[0],
            vehicles=24,
            seed=2018,
            workers=workers,
            spec_transfer=transfer,
        )
        with FleetSession(base) as session:
            for name in SCENARIO_NAMES:
                result = session.run_config(base.with_overrides(scenario=name))
                assert result.fingerprint() == faithful_fingerprints[name], (
                    name,
                    workers,
                    transfer,
                )

    def test_honest_accounting_on_baseline_cruise(self, faithful_fingerprints):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=24, seed=2018)
        with FleetSession(config, telemetry=True) as session:
            result = session.run()
            snapshot = session.metrics_snapshot()
        hits = snapshot.counter("simulate.memo_hits")
        assert hits > 0
        assert result.kernel_runs == snapshot.counter("vehicles.simulated")
        assert result.kernel_runs + hits == result.vehicles == 24
        assert result.fingerprint() == faithful_fingerprints["baseline_cruise"]
        assert result.sim_vehicles_per_second == pytest.approx(
            result.kernel_runs / result.simulation_wall_seconds
        )
        assert result.summary()["kernel_runs"] == result.kernel_runs
        assert result.to_dict()["kernel_runs"] == result.kernel_runs

    def test_fresh_parallel_session_counts_every_vehicle_once(self):
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=48, seed=2018, workers=2
        )
        with FleetSession(config, telemetry=True) as session:
            result = session.run()
            snapshot = session.metrics_snapshot()
        simulated = snapshot.counter("vehicles.simulated")
        hits = snapshot.counter("simulate.memo_hits")
        assert hits > 0
        assert simulated + hits == 48
        assert result.kernel_runs == simulated

    def test_fuzz_probe_runs_one_kernel_per_distinct_key(self, faithful_fingerprints):
        config = ExperimentConfig(scenario="fuzz_probe", vehicles=24, seed=2018)
        with FleetSession(config) as session:
            specs = session.vehicle_specs()
            result = session.run()
        distinct = {OutcomeMemo.key(spec) for spec in specs}
        assert result.kernel_runs == len(distinct)
        assert result.fingerprint() == faithful_fingerprints["fuzz_probe"]

    def test_throughput_preset_consults_the_memo(self, faithful_fingerprints):
        config = ExperimentConfig.throughput("baseline_cruise", 24, seed=2018, workers=2)
        with FleetSession(config) as session:
            result = session.run()
        assert 0 < result.kernel_runs < result.vehicles == 24
        assert result.fingerprint() == faithful_fingerprints["baseline_cruise"]

    def test_debug_preset_runs_every_vehicle(self, faithful_fingerprints):
        config = ExperimentConfig.debug("baseline_cruise", 24, seed=2018)
        with FleetSession(config) as session:
            result = session.run()
        assert result.kernel_runs == result.vehicles == 24
        assert result.fingerprint() == faithful_fingerprints["baseline_cruise"]

    def test_session_memo_persists_across_runs(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=12, seed=2018)
        with FleetSession(config) as session:
            first = session.run()
            second = session.run()
        assert first.kernel_runs > 0
        assert second.kernel_runs == 0
        assert second.fingerprint() == first.fingerprint()

    def test_injected_builder_session_never_serves_another_sessions_entries(self):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=12, seed=2018)
        with FleetSession(config) as warm:
            reference = warm.run()
        with FleetSession(config, builder=CaseStudyBuilder()) as session:
            result = session.run()
        assert result.kernel_runs == reference.kernel_runs > 0
        assert result.fingerprint() == reference.fingerprint()


#: A repeating fleet: 48 vehicles over 36 distinct behaviour keys.
REPEATING = dict(scenario="baseline_cruise", vehicles=48, seed=2018)


def _first_occurrences_per_chunk(config):
    """How many never-seen keys each of the config's chunks holds."""
    with FleetSession(config) as session:
        specs = session.vehicle_specs()
    size = config.effective_chunk_size()
    seen, counts = set(), []
    for start in range(0, len(specs), size):
        keys = {OutcomeMemo.key(spec) for spec in specs[start:start + size]}
        counts.append(len(keys - seen))
        seen |= keys
    return counts


@pytest.fixture(scope="module")
def repeating():
    """The repeating fleet's faithful fingerprint and distinct key count."""
    config = ExperimentConfig(**REPEATING)
    return (
        _fingerprint(ExperimentConfig.faithful(**REPEATING)),
        sum(_first_occurrences_per_chunk(config)),
    )


#: All ten execution fields.  Chunk timeouts are off or far above any
#: chunk's runtime, so no drawn plan can fail a run.
EXECUTION_PLANS = st.fixed_dictionaries(
    {
        "trace_level": st.sampled_from(list(TraceLevel)),
        "inbox_limit": st.sampled_from([1, runner.DEFAULT_FLEET_INBOX_LIMIT, None]),
        "workers": st.sampled_from([1, 2, 4]),
        "chunk_size": st.sampled_from([4, None]),
        "spec_transfer": st.sampled_from(SPEC_TRANSFER_MODES),
        "reuse_cars": st.booleans(),
        "compile_tables": st.booleans(),
        "retry": st.integers(min_value=0, max_value=2),
        "chunk_timeout_s": st.sampled_from([None, 600.0]),
        "degrade": st.booleans(),
    }
)


class TestOneMemoPerSession:
    """Parallel runs consult the session's memo before dispatch, so the
    kernel runs are one per distinct key at any worker count."""

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(SCENARIO_NAMES),
        plan=EXECUTION_PLANS,
        other_plan=EXECUTION_PLANS,
    )
    def test_kernel_runs_and_fingerprint_are_invariant_under_execution_plans(
        self, faithful_fingerprints, name, plan, other_plan
    ):
        # The fleet fingerprint is a function of the experiment alone,
        # and so is the config hash.
        configs = [
            ExperimentConfig(scenario=name, vehicles=24, seed=2018, **execution)
            for execution in (plan, other_plan)
        ]
        assert configs[0].config_hash() == configs[1].config_hash()
        for config in configs:
            with FleetSession(config) as session:
                specs = session.vehicle_specs()
                result = session.run()
            assert result.fingerprint() == faithful_fingerprints[name]
            if memo_applies(config.trace_level, config.compile_tables):
                assert result.kernel_runs == len({OutcomeMemo.key(spec) for spec in specs})
            else:
                assert result.kernel_runs == result.vehicles

    def test_eviction_cannot_break_a_parallel_stream(self, repeating, monkeypatch):
        monkeypatch.setattr(runner, "MEMO_LIMIT", 1)
        config = ExperimentConfig(**REPEATING, workers=2, chunk_size=4)
        with FleetSession(config) as session:
            result = session.run()
        assert result.fingerprint() == repeating[0]

    def test_chunks_with_nothing_to_run_never_reach_a_worker(self):
        config = ExperimentConfig(
            scenario="baseline_cruise", vehicles=48, seed=7, workers=2, chunk_size=2
        )
        counts = _first_occurrences_per_chunk(config)
        assert 0 in counts
        with FleetSession(config, telemetry=True) as session:
            session.run()
            snapshot = session.metrics_snapshot()
        simulated = snapshot.histogram("phase.simulate.wall_seconds")
        assert simulated.count == sum(1 for count in counts if count)
        assert snapshot.counter("vehicles.simulated") == sum(counts)
        assert snapshot.counter("simulate.memo_hits") == 48 - sum(counts)

    @pytest.mark.parametrize(
        "overrides, recovery",
        [
            (dict(retry=2), "resilience.retries"),
            (dict(retry=0, degrade=True), "resilience.degraded_chunks"),
        ],
        ids=["retry", "degrade"],
    )
    def test_a_failed_chunk_still_runs_each_key_once(
        self, repeating, overrides, recovery
    ):
        fingerprint, distinct = repeating
        config = ExperimentConfig(**REPEATING, workers=2, chunk_size=4, **overrides)
        plan = FaultPlan.parse("chunk_error:chunk=0")
        with FleetSession(config, telemetry=True, fault_plan=plan) as session:
            result = session.run()
            snapshot = session.metrics_snapshot()
        assert snapshot.counter("resilience.chunk_failures") == 1
        assert snapshot.counter(recovery) == 1
        assert result.kernel_runs == distinct
        assert result.fingerprint() == fingerprint


@pytest.mark.parametrize("module", ["numpy", "networkx"])
def test_fleet_processes_never_import(module):
    """Neither the parent nor a worker of a fleet session loads *module*.

    numpy left with the lockstep backend.  networkx is needed only by
    ``ConnectedCar.topology()`` and ``AssetRegistry.dependency_graph()``,
    which no fleet calls.
    """
    loaded = f"{module!r} in __import__('sys').modules"
    code = f"""
import dataclasses
from repro.api import ExperimentConfig, FleetSession

inline = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=3)
with FleetSession(inline) as session:
    session.run()
parallel = dataclasses.replace(inline, workers=2)
with FleetSession(parallel) as session:
    assert session.run().kernel_runs > 0
    in_worker = session._mp_pools[2].apply(eval, ({loaded!r},))
print({loaded}, in_worker)
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "False"]
