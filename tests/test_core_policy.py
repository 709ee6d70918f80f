"""Tests for the core policy model (permissions, conditions, rules, policy)."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policy import (
    AccessRule,
    CarSituation,
    Direction,
    Permission,
    PolicyCondition,
    RuleEffect,
    SecurityPolicy,
)
from repro.selinux.compiler import PermissionStatement
from repro.vehicle.car import ConnectedCar
from repro.vehicle.modes import CarMode

situations = st.builds(
    CarSituation,
    mode=st.sampled_from(list(CarMode)),
    in_motion=st.booleans(),
    alarm_armed=st.booleans(),
    accident=st.booleans(),
)
conditions = st.builds(
    PolicyCondition,
    modes=st.frozensets(st.sampled_from(list(CarMode)), max_size=3),
    in_motion=st.one_of(st.none(), st.booleans()),
    alarm_armed=st.one_of(st.none(), st.booleans()),
    accident=st.one_of(st.none(), st.booleans()),
)


class TestPermission:
    def test_parse_paper_notation(self):
        assert Permission.parse("R") is Permission.READ
        assert Permission.parse("rw") is Permission.READ_WRITE
        assert Permission.parse("W") is Permission.WRITE
        assert Permission.parse("-") is Permission.NONE

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Permission.parse("X")

    def test_read_write_flags(self):
        assert Permission.READ.allows_read and not Permission.READ.allows_write
        assert Permission.WRITE.allows_write and not Permission.WRITE.allows_read
        assert Permission.READ_WRITE.allows_read and Permission.READ_WRITE.allows_write
        assert not Permission.NONE.allows_read and not Permission.NONE.allows_write


class TestCarSituation:
    def test_observe_from_live_car(self):
        car = ConnectedCar()
        situation = CarSituation.observe(car)
        assert situation.mode is CarMode.NORMAL
        assert not situation.in_motion
        car.door_locks.set_motion(True)
        car.safety.arm_alarm()
        car.safety.failsafe_active = True
        situation = CarSituation.observe(car)
        assert situation.in_motion and situation.alarm_armed and situation.accident


class TestPolicyCondition:
    def test_unconditional_matches_everything(self):
        condition = PolicyCondition.always()
        assert condition.is_unconditional
        assert condition.matches(CarSituation())
        assert condition.matches(
            CarSituation(CarMode.FAIL_SAFE, in_motion=True, alarm_armed=True, accident=True)
        )

    def test_mode_restriction(self):
        condition = PolicyCondition.in_modes(CarMode.NORMAL)
        assert condition.matches(CarSituation(CarMode.NORMAL))
        assert not condition.matches(CarSituation(CarMode.FAIL_SAFE))

    def test_flag_restrictions(self):
        condition = PolicyCondition(in_motion=True, accident=False)
        assert condition.matches(CarSituation(in_motion=True, accident=False))
        assert not condition.matches(CarSituation(in_motion=True, accident=True))
        assert not condition.matches(CarSituation(in_motion=False, accident=False))

    def test_overlap(self):
        in_motion = PolicyCondition(in_motion=True)
        stationary = PolicyCondition(in_motion=False)
        normal_only = PolicyCondition.in_modes(CarMode.NORMAL)
        failsafe_only = PolicyCondition.in_modes(CarMode.FAIL_SAFE)
        assert not in_motion.overlaps(stationary)
        assert not normal_only.overlaps(failsafe_only)
        assert in_motion.overlaps(normal_only)
        assert PolicyCondition.always().overlaps(in_motion)

    def test_render(self):
        condition = PolicyCondition(
            modes=frozenset({CarMode.NORMAL}), in_motion=True, alarm_armed=False
        )
        rendered = condition.render()
        assert "mode=normal" in rendered
        assert "in-motion" in rendered
        assert "alarm-disarmed" in rendered
        assert PolicyCondition.always().render() == ""

    @given(conditions, situations)
    def test_unconditional_iff_matches_all(self, condition, situation):
        if condition.is_unconditional:
            assert condition.matches(situation)

    @given(conditions, conditions, situations)
    def test_overlap_is_sound(self, first, second, situation):
        # If one situation satisfies both conditions, overlaps() must be True.
        if first.matches(situation) and second.matches(situation):
            assert first.overlaps(second)


class TestAccessRule:
    def make_rule(self, **kwargs) -> AccessRule:
        defaults = dict(
            rule_id="P-1",
            effect=RuleEffect.DENY,
            node="EV-ECU",
            direction=Direction.READ,
            messages=("ECU_DISABLE",),
        )
        defaults.update(kwargs)
        return AccessRule(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_rule(rule_id=" ")
        with pytest.raises(ValueError):
            self.make_rule(node=" ")
        with pytest.raises(ValueError):
            self.make_rule(messages=())

    def test_covers(self):
        rule = self.make_rule()
        assert rule.covers_node("EV-ECU")
        assert not rule.covers_node("EPS")
        assert rule.covers_message("ECU_DISABLE")
        assert not rule.covers_message("ECU_ENABLE")
        wildcard = self.make_rule(rule_id="P-2", node="*", messages=("*",))
        assert wildcard.covers_node("anything")
        assert wildcard.covers_message("anything")

    def test_applies_combines_node_and_condition(self):
        rule = self.make_rule(condition=PolicyCondition(in_motion=True))
        assert rule.applies("EV-ECU", CarSituation(in_motion=True))
        assert not rule.applies("EV-ECU", CarSituation(in_motion=False))
        assert not rule.applies("EPS", CarSituation(in_motion=True))

    def test_direction_coverage(self):
        assert Direction.BOTH.covers_read and Direction.BOTH.covers_write
        assert Direction.READ.covers_read and not Direction.READ.covers_write


class TestSecurityPolicy:
    def make_policy(self) -> SecurityPolicy:
        policy = SecurityPolicy("test-policy", version=1)
        policy.add_rule(
            AccessRule("P-1", RuleEffect.DENY, "EV-ECU", Direction.READ,
                       ("ECU_DISABLE",), derived_from="T01")
        )
        policy.add_rule(
            AccessRule("P-2", RuleEffect.DENY, "Sensors", Direction.WRITE,
                       ("ECU_DISABLE",), derived_from="T02")
        )
        policy.add_app_statement(
            PermissionStatement("a_t", "b_t", "package", frozenset({"install"}))
        )
        return policy

    def test_basic_accessors(self):
        policy = self.make_policy()
        assert len(policy) == 2
        assert "P-1" in policy
        assert policy.rule("P-1").node == "EV-ECU"
        assert len(policy.app_statements) == 1
        assert policy.mitigated_threats() == {"T01", "T02"}
        assert [r.rule_id for r in policy.rules_for_node("EV-ECU")] == ["P-1"]
        assert [r.rule_id for r in policy.rules_derived_from("T02")] == ["P-2"]

    def test_duplicate_rule_id_rejected(self):
        policy = self.make_policy()
        with pytest.raises(ValueError):
            policy.add_rule(
                AccessRule("P-1", RuleEffect.ALLOW, "EPS", Direction.READ, ("EPS_STATUS",))
            )

    def test_remove_rule(self):
        policy = self.make_policy()
        policy.remove_rule("P-1")
        assert "P-1" not in policy
        with pytest.raises(KeyError):
            policy.remove_rule("P-1")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SecurityPolicy(" ")
        with pytest.raises(ValueError):
            SecurityPolicy("x", version=0)

    def test_next_version(self):
        policy = self.make_policy()
        successor = policy.next_version("after new threat")
        assert successor.version == 2
        assert len(successor) == len(policy)
        assert successor.description == "after new threat"

    def test_merge_supersedes_both(self):
        base = self.make_policy()
        addition = SecurityPolicy("test-policy", version=2)
        addition.add_rule(
            AccessRule("P-3", RuleEffect.DENY, "EPS", Direction.READ,
                       ("EPS_DEACTIVATE",), derived_from="T05")
        )
        merged = base.merge(addition)
        assert merged.version == 3
        assert {r.rule_id for r in merged.access_rules} == {"P-1", "P-2", "P-3"}
        assert merged.mitigated_threats() == {"T01", "T02", "T05"}

    def test_summary(self):
        summary = self.make_policy().summary()
        assert summary["access_rules"] == 2
        assert summary["app_statements"] == 1
        assert summary["mitigated_threats"] == 2


class TestDigest:
    """The content digest the policy evaluator keys its caches by."""

    RULES = (
        AccessRule("P-1", RuleEffect.DENY, "EV-ECU", Direction.READ,
                   ("ECU_DISABLE",), derived_from="T01"),
        AccessRule("P-2", RuleEffect.DENY, "Sensors", Direction.WRITE, ("ECU_DISABLE",)),
    )

    def test_equal_content_gives_equal_digests(self):
        first = SecurityPolicy("digest-policy", access_rules=self.RULES)
        second = SecurityPolicy("digest-policy", access_rules=self.RULES)
        assert first is not second
        assert first.digest == second.digest

    def test_version_is_part_of_the_content(self):
        policy = SecurityPolicy("digest-policy", access_rules=self.RULES)
        assert policy.next_version().digest != policy.digest

    def test_rule_edits_move_the_digest_and_restoring_restores_it(self):
        policy = SecurityPolicy("digest-policy", access_rules=self.RULES)
        original = policy.digest
        policy.add_rule(
            AccessRule("P-3", RuleEffect.ALLOW, "EPS", Direction.READ, ("EPS_STATUS",))
        )
        added = policy.digest
        policy.remove_rule("P-3")
        assert policy.digest == original
        removed_rule = policy.remove_rule("P-2")
        removed = policy.digest
        # Same-id replace: same id and rule count, different content.
        policy.add_rule(replace(removed_rule, node="EPS"))
        replaced = policy.digest
        assert len({original, added, removed, replaced}) == 4
        policy.remove_rule("P-2")
        policy.add_rule(removed_rule)
        assert policy.digest == original

    def test_name_description_and_app_statements_stay_out(self):
        plain = SecurityPolicy("digest-policy", access_rules=self.RULES)
        statement = PermissionStatement("a_t", "b_t", "package", frozenset({"install"}))
        dressed = SecurityPolicy(
            "another-name",
            access_rules=self.RULES,
            app_statements=[statement],
            description="a description",
        )
        assert dressed.digest == plain.digest
        plain.add_app_statement(statement)
        assert dressed.digest == plain.digest
