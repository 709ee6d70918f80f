"""Compiled decision tables: bit-identical to the object decision path.

The compiled fast path (``core/compiled.py`` + the HPE bitmask probe +
the fused bus delivery loop) is only admissible because its decisions
are provably identical to the authoritative approved-list object path.
These tests prove it three ways:

* structurally -- a table decompiles back to exactly the effective
  identifier sets it was lowered from, over every operating situation
  (all mode/flag combinations, covering the sixteen Table I rows);
* behaviourally -- a :class:`HardwarePolicyEngine` with a table
  installed grants/blocks exactly like one without, for every standard
  identifier and a sample of extended ones, with identical counters;
* property-based -- random policies fuzz the same equivalence.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can import fanout
from repro.can.frame import MAX_STANDARD_ID, CANFrame
from repro.core.compiled import CompiledDecisionTable, build_mask, mask_to_ids
from repro.core.policy import (
    AccessRule,
    CarSituation,
    Direction,
    PolicyCondition,
    RuleEffect,
    SecurityPolicy,
)
from repro.core.policy_engine import PolicyEvaluator
from repro.casestudy.builder import CaseStudyBuilder
from repro.hpe.engine import HardwarePolicyEngine
from repro.vehicle.messages import ALL_NODES, standard_catalog
from repro.vehicle.modes import CarMode

CATALOG = standard_catalog()

#: Every operating situation the policy model distinguishes: three car
#: modes x motion x alarm x accident.  Table I's sixteen rows all map
#: into this grid, so equivalence over the grid covers every row's
#: situation.
ALL_SITUATIONS = [
    CarSituation(mode=mode, in_motion=motion, alarm_armed=alarm, accident=accident)
    for mode, motion, alarm, accident in product(
        list(CarMode), (False, True), (False, True), (False, True)
    )
]

#: Identifiers probed in behavioural checks: the whole standard space
#: would be slow per case, so probe every catalogue id, their
#: neighbours, the bitset edges and a few extended ids.
PROBE_IDS = sorted(
    {m.can_id for m in CATALOG}
    | {m.can_id + 1 for m in CATALOG}
    | {0, 1, 7, 8, MAX_STANDARD_ID - 1, MAX_STANDARD_ID, 0x800, 0x1234, 0x1FFFFFFF}
)


@pytest.fixture(scope="module")
def case_study():
    builder = CaseStudyBuilder()
    return builder.model.policy, builder.evaluator


class TestMaskPrimitives:
    def test_round_trip(self):
        ids = {0, 1, 7, 8, 0x100, MAX_STANDARD_ID}
        assert mask_to_ids(build_mask(ids)) == frozenset(ids)

    def test_extended_ids_excluded_from_mask(self):
        assert mask_to_ids(build_mask({0x800, 5})) == frozenset({5})

    def test_empty(self):
        assert mask_to_ids(build_mask(())) == frozenset()


class TestCompiledVsEffective:
    def test_tables_decompile_to_effective_sets_in_every_situation(self, case_study):
        policy, evaluator = case_study
        for situation in ALL_SITUATIONS:
            for node in CATALOG.nodes():
                effective = evaluator.effective_for_node(node, policy, situation)
                table = evaluator.compile_for_node(node, policy, situation)
                assert table.read_ids() == effective.read_ids, (node, str(situation))
                assert table.write_ids() == effective.write_ids, (node, str(situation))

    def test_may_read_write_match_effective(self, case_study):
        policy, evaluator = case_study
        for situation in ALL_SITUATIONS:
            for node in CATALOG.nodes():
                effective = evaluator.effective_for_node(node, policy, situation)
                table = evaluator.compile_for_node(node, policy, situation)
                for can_id in PROBE_IDS:
                    assert table.may_read(can_id) == effective.may_read(can_id)
                    assert table.may_write(can_id) == effective.may_write(can_id)

    def test_compile_cache_hits(self, case_study):
        policy, evaluator = case_study
        situation = CarSituation()
        evaluator.compile_for_node("EV-ECU", policy, situation)
        misses = evaluator.compile_misses
        again = evaluator.compile_for_node("EV-ECU", policy, situation)
        assert evaluator.compile_misses == misses
        assert again is evaluator.compile_for_node("EV-ECU", policy, situation)

    def test_invalidate_clears_compiled_cache(self, case_study):
        policy, evaluator = case_study
        evaluator.compile_for_node("EV-ECU", policy, CarSituation())
        evaluator.invalidate()
        assert len(evaluator._compiled) == 0


def _table(read_ids, write_ids) -> CompiledDecisionTable:
    return CompiledDecisionTable(
        node="n",
        read_mask=build_mask(read_ids),
        write_mask=build_mask(write_ids),
        read_overflow=frozenset(i for i in read_ids if i > MAX_STANDARD_ID),
        write_overflow=frozenset(i for i in write_ids if i > MAX_STANDARD_ID),
    )


def _engine_pair(read_ids, write_ids):
    """One engine with a compiled table installed, one without."""
    plain = HardwarePolicyEngine("n", read_ids, write_ids)
    fast = HardwarePolicyEngine("n", read_ids, write_ids)
    fast.install_compiled_table(_table(read_ids, write_ids))
    return plain, fast


def _assert_paths_agree(engine: HardwarePolicyEngine, probes) -> None:
    """The engine decides as its authoritative approved lists do."""
    for can_id in probes:
        frame = CANFrame(can_id=can_id)
        assert engine.permit_read(frame) == engine.read_filter.approved.approves(can_id)
        assert engine.permit_write(frame) == engine.write_filter.approved.approves(can_id)


class TestEngineEquivalence:
    def test_case_study_decisions_identical_in_every_situation(self, case_study):
        policy, evaluator = case_study
        for situation in ALL_SITUATIONS:
            for node in ("EV-ECU", "Telematics", "Gateway"):
                effective = evaluator.effective_for_node(node, policy, situation)
                plain, fast = _engine_pair(
                    effective.sorted_read_ids, effective.sorted_write_ids
                )
                for can_id in PROBE_IDS:
                    frame = CANFrame(can_id=can_id, extended=can_id > MAX_STANDARD_ID)
                    assert plain.permit_read(frame) == fast.permit_read(frame)
                    assert plain.permit_write(frame) == fast.permit_write(frame)
                # Counter parity: the fast path accounts decisions,
                # grants, blocks and latency exactly like the object path.
                assert plain.decisions_made == fast.decisions_made
                assert plain.frames_blocked == fast.frames_blocked
                assert plain.total_latency_s == fast.total_latency_s

    def test_update_policy_drops_stale_table(self):
        plain, fast = _engine_pair((0x10, 0x20), (0x30,))
        assert fast.compiled_table is not None
        assert fast.update_policy((0x40,), (0x50,), key=0xC0FFEE)
        assert fast.compiled_table is None
        # Post-update decisions come from the (authoritative) new lists.
        assert fast.permit_read(CANFrame(can_id=0x40))
        assert not fast.permit_read(CANFrame(can_id=0x10))

    def test_failed_update_keeps_table(self):
        plain, fast = _engine_pair((0x10,), (0x30,))
        assert not fast.update_policy((0x40,), (0x50,), key=0xBAD)
        assert fast.compiled_table is not None
        assert fast.permit_read(CANFrame(can_id=0x10))

    def test_refused_push_changes_nothing_and_is_logged(self):
        # The write list's -1 is refused; the read list must not have
        # been replaced by then, or the kept table would deny 0x40 while
        # the authoritative list grants it.
        plain, fast = _engine_pair((0x10,), (0x30,))
        table = fast.compiled_table
        with pytest.raises(ValueError, match="-1"):
            fast.update_policy((0x40,), (-1,), key=0xC0FFEE)
        assert fast.approved_read_ids == {0x10}
        assert fast.approved_write_ids == {0x30}
        assert fast.compiled_table is table
        assert fast.read_filter.approved.locked and fast.write_filter.approved.locked
        (attempt,) = fast.tamper_log.attempts()
        assert not attempt.succeeded
        _assert_paths_agree(fast, (0x10, 0x30, 0x40))

    def test_unchanged_update_keeps_table_and_epoch(self):
        plain, fast = _engine_pair((0x10, 0x20), (0x30,))
        table, epoch = fast.compiled_table, fanout.epoch
        assert fast.update_policy([0x20, 0x10], (0x30,), key=0xC0FFEE)
        assert fast.compiled_table is table
        assert fanout.epoch == epoch
        assert fast.tamper_log.attempts()[-1].description == (
            "policy update: 2 read ids, 1 write ids"
        )

    def test_only_a_read_side_change_moves_the_epoch(self):
        plain, fast = _engine_pair((0x10,), (0x30,))
        epoch = fanout.epoch
        fast.install_compiled_table(
            CompiledDecisionTable("n", build_mask((0x10,)), build_mask((0x31,)))
        )
        assert fanout.epoch == epoch
        assert fast.permit_write(CANFrame(can_id=0x31))
        fast.install_compiled_table(
            CompiledDecisionTable("n", build_mask((0x11,)), build_mask((0x31,)))
        )
        assert fanout.epoch > epoch
        epoch = fanout.epoch
        fast.install_compiled_table(
            CompiledDecisionTable(
                "n", build_mask((0x11,)), build_mask((0x31,)), read_overflow=frozenset({0x1000})
            )
        )
        assert fanout.epoch > epoch


@given(
    read_ids=st.frozensets(st.integers(min_value=0, max_value=MAX_STANDARD_ID), max_size=40),
    write_ids=st.frozensets(st.integers(min_value=0, max_value=MAX_STANDARD_ID), max_size=40),
    probes=st.lists(
        st.integers(min_value=0, max_value=MAX_STANDARD_ID), min_size=1, max_size=30
    ),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_engine_equivalence(read_ids, write_ids, probes):
    plain, fast = _engine_pair(tuple(read_ids), tuple(write_ids))
    for can_id in probes:
        frame = CANFrame(can_id=can_id)
        assert plain.permit_read(frame) == fast.permit_read(frame)
        assert plain.permit_write(frame) == fast.permit_write(frame)
    assert plain.decisions_made == fast.decisions_made
    assert plain.frames_blocked == fast.frames_blocked


#: A push: read ids, write ids (each may hold an id no list can hold),
#: the right key or not, and whether the coordinator then re-installs a
#: table for the new lists.
PUSHES = st.lists(
    st.tuples(
        *[st.lists(st.integers(min_value=-2, max_value=0x40), max_size=4)] * 2,
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@given(pushes=PUSHES)
@settings(max_examples=60, deadline=None)
def test_fuzzed_pushes_keep_compiled_and_object_paths_alike(pushes):
    """Each push is logged once, a refused one changes nothing, and the
    compiled path never disagrees with the approved lists."""
    _, engine = _engine_pair((0x10,), (0x30,))
    for reads, writes, right_key, reinstall in pushes:
        before = (engine.approved_read_ids, engine.approved_write_ids, engine.compiled_table)
        logged = len(engine.tamper_log)
        try:
            accepted = engine.update_policy(reads, writes, key=0xC0FFEE if right_key else 0)
        except ValueError:
            assert right_key and min(reads + writes) < 0
            accepted = False
        assert len(engine.tamper_log) == logged + 1
        assert engine.tamper_log.attempts()[-1].succeeded is accepted
        if accepted:
            assert (engine.approved_read_ids, engine.approved_write_ids) == (set(reads), set(writes))
            if reinstall and engine.compiled_table is None:
                engine.install_compiled_table(_table(reads, writes))
        else:
            assert (engine.approved_read_ids, engine.approved_write_ids, engine.compiled_table) == before
        _assert_paths_agree(engine, range(0x42))


@given(
    rule_messages=st.lists(
        st.sampled_from([m.name for m in CATALOG]), min_size=1, max_size=3, unique=True
    ),
    effect=st.sampled_from(list(RuleEffect)),
    direction=st.sampled_from(list(Direction)),
    node=st.sampled_from(list(ALL_NODES)),
    situation=st.builds(
        CarSituation,
        mode=st.sampled_from(list(CarMode)),
        in_motion=st.booleans(),
        alarm_armed=st.booleans(),
        accident=st.booleans(),
    ),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_policy_compilation_matches_evaluation(
    rule_messages, effect, direction, node, situation
):
    """Random single-rule policies compile to their evaluated effective sets."""
    evaluator = PolicyEvaluator(CATALOG)
    policy = SecurityPolicy(name="fuzz")
    policy.add_rule(
        AccessRule(
            rule_id="P-FUZZ-1",
            effect=effect,
            node=node,
            direction=direction,
            messages=tuple(rule_messages),
            condition=PolicyCondition.always(),
        )
    )
    effective = evaluator.effective_for_node(node, policy, situation)
    table = evaluator.compile_for_node(node, policy, situation)
    assert table.read_ids() == effective.read_ids
    assert table.write_ids() == effective.write_ids
