"""Tests for the policy evaluator (effective approved lists)."""

import pytest

from repro.core.policy import (
    AccessRule,
    CarSituation,
    Direction,
    PolicyCondition,
    RuleEffect,
    SecurityPolicy,
)
from repro.core.policy_engine import PolicyEvaluator
from repro.vehicle.messages import (
    NODE_DOOR_LOCKS,
    NODE_EV_ECU,
    NODE_SAFETY,
    NODE_SENSORS,
    standard_catalog,
)
from repro.vehicle.modes import CarMode


@pytest.fixture(scope="module")
def evaluator():
    return PolicyEvaluator(standard_catalog())


def empty_policy() -> SecurityPolicy:
    return SecurityPolicy("empty")


DENY_EV_ECU_READS = AccessRule(
    "P-1", RuleEffect.DENY, NODE_EV_ECU, Direction.READ, ("*",)
)


def swap_ev_ecu_rule(policy: SecurityPolicy, replacement_id: str) -> None:
    """Swap the EV-ECU read denial for a rule that leaves EV-ECU alone.

    The rule count stays the same, so only the policy's revision tells
    the two states apart.
    """
    policy.remove_rule(DENY_EV_ECU_READS.rule_id)
    policy.add_rule(
        AccessRule(replacement_id, RuleEffect.DENY, NODE_SAFETY, Direction.READ, ("*",))
    )


class TestBaseAllowance:
    def test_base_write_ids_follow_catalogue(self, evaluator, catalog):
        effective = evaluator.effective_for_node(
            NODE_SENSORS, empty_policy(), CarSituation()
        )
        assert catalog.id_of("SENSOR_ACCEL") in effective.write_ids
        assert catalog.id_of("ECU_DISABLE") not in effective.write_ids
        assert effective.may_write(catalog.id_of("SENSOR_BRAKE"))

    def test_base_read_ids_are_mode_scoped(self, evaluator, catalog):
        normal = evaluator.effective_for_node(
            NODE_EV_ECU, empty_policy(), CarSituation(mode=CarMode.NORMAL)
        )
        failsafe = evaluator.effective_for_node(
            NODE_EV_ECU, empty_policy(), CarSituation(mode=CarMode.FAIL_SAFE)
        )
        disable_id = catalog.id_of("ECU_DISABLE")
        assert disable_id not in normal.read_ids
        assert disable_id in failsafe.read_ids
        assert catalog.id_of("SENSOR_ACCEL") in normal.read_ids

    def test_diagnostic_messages_only_in_diagnostic_mode(self, evaluator, catalog):
        normal = evaluator.effective_for_node(
            NODE_EV_ECU, empty_policy(), CarSituation(mode=CarMode.NORMAL)
        )
        diagnostic = evaluator.effective_for_node(
            NODE_EV_ECU, empty_policy(), CarSituation(mode=CarMode.REMOTE_DIAGNOSTIC)
        )
        assert catalog.id_of("DIAG_REQUEST") not in normal.read_ids
        assert catalog.id_of("DIAG_REQUEST") in diagnostic.read_ids
        assert catalog.id_of("FIRMWARE_UPDATE") in diagnostic.read_ids


class TestRuleApplication:
    def test_deny_rule_removes_message(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule("P-1", RuleEffect.DENY, NODE_SAFETY, Direction.WRITE, ("ECU_DISABLE",))
        )
        failsafe = CarSituation(mode=CarMode.FAIL_SAFE)
        effective = evaluator.effective_for_node(NODE_SAFETY, policy, failsafe)
        assert catalog.id_of("ECU_DISABLE") not in effective.write_ids
        # Other fail-safe messages remain.
        assert catalog.id_of("AIRBAG_DEPLOY") in effective.write_ids

    def test_allow_rule_adds_situational_exception(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule(
                "P-1", RuleEffect.ALLOW, NODE_DOOR_LOCKS, Direction.WRITE, ("ECU_DISABLE",),
                condition=PolicyCondition(in_motion=False, alarm_armed=True),
            )
        )
        armed = CarSituation(in_motion=False, alarm_armed=True)
        driving = CarSituation(in_motion=True, alarm_armed=False)
        assert catalog.id_of("ECU_DISABLE") in evaluator.effective_for_node(
            NODE_DOOR_LOCKS, policy, armed
        ).write_ids
        assert catalog.id_of("ECU_DISABLE") not in evaluator.effective_for_node(
            NODE_DOOR_LOCKS, policy, driving
        ).write_ids

    def test_deny_wins_over_allow(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule("P-A", RuleEffect.ALLOW, NODE_EV_ECU, Direction.READ, ("ECU_DISABLE",))
        )
        policy.add_rule(
            AccessRule("P-D", RuleEffect.DENY, NODE_EV_ECU, Direction.READ, ("ECU_DISABLE",))
        )
        effective = evaluator.effective_for_node(NODE_EV_ECU, policy, CarSituation())
        assert catalog.id_of("ECU_DISABLE") not in effective.read_ids

    def test_wildcard_node_and_message(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule("P-1", RuleEffect.DENY, "*", Direction.BOTH, ("*",))
        )
        effective = evaluator.effective_for_all(policy, CarSituation())
        assert all(
            not node_policy.read_ids and not node_policy.write_ids
            for node_policy in effective.values()
        )

    def test_condition_not_matching_leaves_base(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule(
                "P-1", RuleEffect.DENY, NODE_DOOR_LOCKS, Direction.READ, ("DOOR_UNLOCK_CMD",),
                condition=PolicyCondition(in_motion=True),
            )
        )
        parked = evaluator.effective_for_node(
            NODE_DOOR_LOCKS, policy, CarSituation(in_motion=False)
        )
        assert catalog.id_of("DOOR_UNLOCK_CMD") in parked.read_ids


class TestSystemViews:
    def test_effective_for_all_covers_catalogue_nodes(self, evaluator, catalog):
        effective = evaluator.effective_for_all(empty_policy(), CarSituation())
        assert set(effective) == set(catalog.nodes())

    def test_decision_matrix_dimensions(self, evaluator, catalog):
        matrix = evaluator.decision_matrix(empty_policy(), CarSituation())
        assert len(matrix) == len(catalog.nodes()) * len(catalog) * 2
        assert matrix[(NODE_SENSORS, "SENSOR_ACCEL", "write")] is True
        assert matrix[(NODE_SENSORS, "ECU_DISABLE", "write")] is False

    def test_changed_nodes_between_situations(self, evaluator, catalog):
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule(
                "P-1", RuleEffect.DENY, NODE_DOOR_LOCKS, Direction.READ, ("DOOR_UNLOCK_CMD",),
                condition=PolicyCondition(in_motion=True),
            )
        )
        changed = evaluator.changed_nodes(
            policy, CarSituation(in_motion=False), CarSituation(in_motion=True)
        )
        assert NODE_DOOR_LOCKS in changed
        assert NODE_SENSORS not in changed
        assert evaluator.changed_nodes(policy, CarSituation(), CarSituation()) == []


class TestDecisionCache:
    """The (node, situation) LRU decision cache on the evaluator."""

    def test_repeat_evaluation_hits_the_cache(self, catalog):
        cached = PolicyEvaluator(catalog)
        policy = empty_policy()
        situation = CarSituation()
        first = cached.effective_for_node(NODE_SENSORS, policy, situation)
        second = cached.effective_for_node(NODE_SENSORS, policy, situation)
        assert first is second
        assert cached.cache_hits == 1
        assert cached.cache_misses == 1
        assert cached.cache_hit_rate == 0.5

    def test_cached_result_equals_uncached_result(self, catalog):
        cached = PolicyEvaluator(catalog)
        policy = empty_policy()
        situation = CarSituation(mode=CarMode.FAIL_SAFE, in_motion=True)
        cached.effective_for_node(NODE_EV_ECU, policy, situation)
        warm = cached.effective_for_node(NODE_EV_ECU, policy, situation)
        cold = PolicyEvaluator(catalog).effective_for_node(NODE_EV_ECU, policy, situation)
        assert warm == cold

    def test_situation_participates_in_the_key(self, catalog):
        cached = PolicyEvaluator(catalog)
        policy = SecurityPolicy("p")
        policy.add_rule(
            AccessRule(
                "P-1", RuleEffect.DENY, NODE_DOOR_LOCKS, Direction.READ,
                ("DOOR_UNLOCK_CMD",),
                condition=PolicyCondition(in_motion=True),
            )
        )
        moving = cached.effective_for_node(
            NODE_DOOR_LOCKS, policy, CarSituation(in_motion=True)
        )
        parked = cached.effective_for_node(
            NODE_DOOR_LOCKS, policy, CarSituation(in_motion=False)
        )
        assert cached.cache_misses == 2
        assert moving != parked

    def test_policies_have_independent_entries(self, catalog):
        cached = PolicyEvaluator(catalog)
        situation = CarSituation()
        base = empty_policy()
        successor = base.next_version()
        cached.effective_for_node(NODE_SENSORS, base, situation)
        cached.effective_for_node(NODE_SENSORS, successor, situation)
        assert cached.cache_misses == 2
        # Returning to the base policy -- the staggered-OTA fleet
        # pattern -- still hits; the switch did not flush its entries.
        cached.effective_for_node(NODE_SENSORS, base, situation)
        assert cached.cache_hits == 1
        assert cached.cache_size == 2

    def test_evicted_policies_drop_their_entries(self, catalog):
        cached = PolicyEvaluator(catalog, max_cached_policies=2)
        situation = CarSituation()
        policies = [empty_policy() for _ in range(3)]
        for policy in policies:
            cached.effective_for_node(NODE_SENSORS, policy, situation)
        # The first policy was evicted from the pin set with its entries.
        assert cached.cache_size == 2
        cached.effective_for_node(NODE_SENSORS, policies[0], situation)
        assert cached.cache_misses == 4

    def test_in_place_rule_edit_invalidates(self, catalog):
        cached = PolicyEvaluator(catalog)
        policy = SecurityPolicy("p")
        situation = CarSituation()
        before = cached.effective_for_node(NODE_SENSORS, policy, situation)
        policy.add_rule(
            AccessRule("P-1", RuleEffect.DENY, NODE_SENSORS, Direction.WRITE, ("*",))
        )
        after = cached.effective_for_node(NODE_SENSORS, policy, situation)
        assert before.write_ids
        assert not after.write_ids

    @pytest.mark.parametrize("replacement_id", ["P-2", "P-1"], ids=["other-id", "same-id"])
    def test_rule_swap_invalidates_effective_policy(self, catalog, replacement_id):
        cached = PolicyEvaluator(catalog)
        policy = SecurityPolicy("p", access_rules=[DENY_EV_ECU_READS])
        situation = CarSituation()
        assert not cached.effective_for_node(NODE_EV_ECU, policy, situation).read_ids
        swap_ev_ecu_rule(policy, replacement_id)
        after = cached.effective_for_node(NODE_EV_ECU, policy, situation)
        assert after.read_ids
        assert after == PolicyEvaluator(catalog).effective_for_node(
            NODE_EV_ECU, policy, situation
        )

    @pytest.mark.parametrize("replacement_id", ["P-2", "P-1"], ids=["other-id", "same-id"])
    def test_rule_swap_invalidates_compiled_table(self, catalog, replacement_id):
        cached = PolicyEvaluator(catalog)
        policy = SecurityPolicy("p", access_rules=[DENY_EV_ECU_READS])
        situation = CarSituation()
        before = cached.compile_for_node(NODE_EV_ECU, policy, situation)
        swap_ev_ecu_rule(policy, replacement_id)
        after = cached.compile_for_node(NODE_EV_ECU, policy, situation)
        assert after is not before
        assert after.read_ids()
        assert after == PolicyEvaluator(catalog).compile_for_node(
            NODE_EV_ECU, policy, situation
        )

    def test_explicit_invalidate_clears_entries_and_stats_keep_counting(self, catalog):
        cached = PolicyEvaluator(catalog)
        policy = empty_policy()
        cached.effective_for_node(NODE_SENSORS, policy, CarSituation())
        cached.invalidate()
        assert cached.cache_size == 0
        cached.effective_for_node(NODE_SENSORS, policy, CarSituation())
        assert cached.cache_misses == 2

    def test_capacity_is_bounded_lru(self, catalog):
        cached = PolicyEvaluator(catalog, cache_capacity=2)
        policy = empty_policy()
        for node in catalog.nodes()[:3]:
            cached.effective_for_node(node, policy, CarSituation())
        assert cached.cache_size == 2

    def test_capacity_must_be_positive(self, catalog):
        with pytest.raises(ValueError):
            PolicyEvaluator(catalog, cache_capacity=0)
        with pytest.raises(ValueError):
            PolicyEvaluator(catalog, max_cached_policies=0)
