"""Tests for signed post-deployment policy updates."""

import hashlib
import hmac

import pytest

from repro.core.dsl import parse_policy, render_policy
from repro.core.enforcement import EnforcementConfig
from repro.core.policy import AccessRule, Direction, RuleEffect, SecurityPolicy
from repro.core.updates import PolicyUpdateBundle, PolicyUpdateClient, UpdateRejected
from repro.selinux.compiler import PermissionStatement

SIGNING_KEY = b"oem-signing-key"
WRONG_KEY = b"someone-else"


@pytest.fixture()
def deployment(builder):
    """A deployed protected car with an update client."""
    car = builder.build_car(EnforcementConfig.full())
    client = PolicyUpdateClient(car.enforcement_coordinator, SIGNING_KEY)
    return car, client


def make_updated_policy(builder, new_rule_id="P-NEW-1"):
    """The active policy plus one newly derived rule, version-bumped."""
    updated = builder.model.policy.next_version("respond to newly discovered threat")
    updated.add_rule(
        AccessRule(
            rule_id=new_rule_id,
            effect=RuleEffect.DENY,
            node="Gateway",
            direction=Direction.WRITE,
            messages=("DIAG_REQUEST",),
            derived_from="T-NEW",
        )
    )
    return updated


def mislabelled_bundle(policy, header_version, signed_version):
    """A validly signed bundle whose text header names another version."""
    text = render_policy(
        SecurityPolicy(policy.name, version=header_version, access_rules=policy.access_rules)
    )
    payload = f"{signed_version}:{text}".encode()
    signature = hmac.new(SIGNING_KEY, payload, hashlib.sha256).hexdigest()
    return PolicyUpdateBundle(policy_text=text, version=signed_version, signature=signature)


class TestBundle:
    def test_create_and_verify(self, builder):
        policy = make_updated_policy(builder)
        bundle = PolicyUpdateBundle.create(policy, SIGNING_KEY, description="hotfix")
        assert bundle.version == policy.version
        assert bundle.verify(SIGNING_KEY)
        assert not bundle.verify(WRONG_KEY)

    def test_parse_restores_rules(self, builder):
        policy = make_updated_policy(builder)
        bundle = PolicyUpdateBundle.create(policy, SIGNING_KEY)
        restored = bundle.parse()
        assert restored.version == policy.version
        assert "P-NEW-1" in restored

    def test_parsed_policy_is_shared_and_frozen(self, builder):
        bundle = PolicyUpdateBundle.create(make_updated_policy(builder), SIGNING_KEY)
        parsed = bundle.parse()
        assert bundle.parse() is parsed
        rule = AccessRule("P-X", RuleEffect.DENY, "EPS", Direction.READ, ("DIAG_REQUEST",))
        statement = PermissionStatement("a_t", "b_t", "package", frozenset({"install"}))
        with pytest.raises(RuntimeError, match="frozen"):
            parsed.add_rule(rule)
        with pytest.raises(RuntimeError, match="frozen"):
            parsed.remove_rule("P-NEW-1")
        with pytest.raises(RuntimeError, match="frozen"):
            parsed.add_app_statement(statement)
        successor = parsed.next_version()
        successor.add_rule(rule)
        successor.remove_rule("P-NEW-1")
        successor.add_app_statement(statement)
        assert "P-NEW-1" in parsed and "P-X" not in parsed
        assert not parsed.app_statements

    def test_tampered_text_fails_verification(self, builder):
        bundle = PolicyUpdateBundle.create(make_updated_policy(builder), SIGNING_KEY)
        tampered = PolicyUpdateBundle(
            policy_text=bundle.policy_text.replace("deny", "allow"),
            version=bundle.version,
            signature=bundle.signature,
        )
        assert not tampered.verify(SIGNING_KEY)

    def test_tampered_version_fails_verification(self, builder):
        bundle = PolicyUpdateBundle.create(make_updated_policy(builder), SIGNING_KEY)
        tampered = PolicyUpdateBundle(
            policy_text=bundle.policy_text,
            version=bundle.version + 5,
            signature=bundle.signature,
        )
        assert not tampered.verify(SIGNING_KEY)


class TestClient:
    def test_valid_update_is_applied_to_the_vehicle(self, builder, deployment):
        car, client = deployment
        policy = make_updated_policy(builder)
        bundle = PolicyUpdateBundle.create(policy, SIGNING_KEY)
        applied = client.apply(bundle, car)
        assert applied.version == policy.version
        assert client.current_version == policy.version
        assert client.applied_versions == [policy.version]
        assert "P-NEW-1" in car.enforcement_coordinator.policy

    def test_bad_signature_rejected(self, builder, deployment):
        car, client = deployment
        bundle = PolicyUpdateBundle.create(make_updated_policy(builder), WRONG_KEY)
        with pytest.raises(UpdateRejected):
            client.apply(bundle, car)
        assert client.rejected_bundles == 1
        assert client.applied_versions == []

    def test_rollback_rejected(self, builder, deployment):
        car, client = deployment
        same_version = builder.model.policy  # not newer than the enforced version
        bundle = PolicyUpdateBundle.create(same_version, SIGNING_KEY)
        with pytest.raises(UpdateRejected):
            client.apply(bundle, car)
        assert client.rejected_bundles == 1

    def test_header_naming_an_older_version_is_rejected(self, builder, deployment):
        car, client = deployment
        enforced = client.current_version
        bundle = mislabelled_bundle(builder.model.policy, enforced, enforced + 5)
        assert bundle.verify(SIGNING_KEY)
        with pytest.raises(UpdateRejected, match="signed as version"):
            client.apply(bundle, car)
        assert client.rejected_bundles == 1
        assert client.current_version == enforced

    def test_header_naming_a_newer_version_is_rejected(self, builder, deployment):
        car, client = deployment
        enforced = client.current_version
        bundle = mislabelled_bundle(builder.model.policy, enforced + 9, enforced + 1)
        with pytest.raises(UpdateRejected, match="signed as version"):
            client.apply(bundle, car)
        assert client.rejected_bundles == 1
        assert client.current_version == enforced
        assert client.applied_versions == []
        # The car was not pushed ahead, so the next legitimate update applies.
        client.apply(PolicyUpdateBundle.create(make_updated_policy(builder), SIGNING_KEY), car)
        assert client.applied_versions == [enforced + 1]

    def test_update_changes_runtime_enforcement(self, builder, deployment):
        """The paper's headline property: a new threat is countered by a
        distributed policy update with no redesign of the deployed vehicle."""
        car, client = deployment
        coordinator = car.enforcement_coordinator
        catalog = car.catalog

        # Newly discovered threat: diagnostic requests abused from the gateway
        # in normal mode.  Before the update the gateway may write them only in
        # diagnostic mode (base behaviour); the update forbids them entirely.
        updated = make_updated_policy(builder)
        client.apply(PolicyUpdateBundle.create(updated, SIGNING_KEY), car)
        car.modes.enter_remote_diagnostic()
        gateway_engine = coordinator.engines["Gateway"]
        from repro.can.frame import CANFrame

        assert not gateway_engine.permit_write(
            CANFrame(can_id=catalog.id_of("DIAG_REQUEST"))
        )

    def test_update_text_is_human_reviewable(self, builder):
        bundle = PolicyUpdateBundle.create(make_updated_policy(builder), SIGNING_KEY)
        parsed = parse_policy(bundle.policy_text)
        assert len(parsed) == len(make_updated_policy(builder))
