"""Post-deployment policy updates.

The paper's central practical argument: "should the security
requirements of the device change after production ... the OEM can
distribute a policy definition update" (Section IV), which is
"significantly faster and easier to implement than a software redesign
or product recall" (Section V-A.2).

A policy update travels as a signed bundle: the textual policy document
(see :mod:`repro.core.dsl`), a version number and an HMAC over both.
The in-vehicle update client verifies the signature and the version
monotonicity before handing the parsed policy to the enforcement
coordinator.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from repro.core.dsl import parse_policy, render_policy
from repro.core.enforcement import EnforcementCoordinator
from repro.core.policy import SecurityPolicy
from repro.vehicle.car import ConnectedCar


class UpdateRejected(Exception):
    """A policy update bundle failed verification and was not applied."""


def _signature(payload: bytes, key: bytes) -> str:
    """HMAC-SHA256 signature of *payload* under *key* (hex encoded)."""
    return hmac.new(key, payload, hashlib.sha256).hexdigest()


@lru_cache(maxsize=64)
def _parse_bundle_text(policy_text: str, version: int) -> SecurityPolicy:
    """Parse a bundle's policy once per process; the shared result is frozen."""
    return parse_policy(policy_text, version=version).freeze()


@dataclass(frozen=True)
class PolicyUpdateBundle:
    """A signed policy update as distributed by the OEM."""

    policy_text: str
    version: int
    signature: str
    description: str = ""

    @classmethod
    def create(
        cls, policy: SecurityPolicy, signing_key: bytes, description: str = ""
    ) -> "PolicyUpdateBundle":
        """Build and sign a bundle from a :class:`SecurityPolicy`."""
        text = render_policy(policy)
        payload = f"{policy.version}:{text}".encode()
        return cls(
            policy_text=text,
            version=policy.version,
            signature=_signature(payload, signing_key),
            description=description,
        )

    def verify(self, signing_key: bytes) -> bool:
        """Whether the bundle's signature is valid under *signing_key*."""
        payload = f"{self.version}:{self.policy_text}".encode()
        expected = _signature(payload, signing_key)
        return hmac.compare_digest(expected, self.signature)

    def parse(self) -> SecurityPolicy:
        """Parse the carried policy text.

        Memoised per process on ``(policy_text, version)``: every vehicle
        of a rollout wave that applies this bundle gets the same policy
        object, so it is frozen (edit a ``next_version()`` copy instead).
        """
        return _parse_bundle_text(self.policy_text, self.version)


class PolicyUpdateClient:
    """The in-vehicle policy update client.

    Parameters
    ----------
    coordinator:
        The enforcement coordinator managing this vehicle's engines.
    verification_key:
        The OEM's update-signing key provisioned at manufacture.
    """

    def __init__(
        self, coordinator: EnforcementCoordinator, verification_key: bytes
    ) -> None:
        self.coordinator = coordinator
        self._verification_key = verification_key
        self.applied_versions: list[int] = []
        self.rejected_bundles = 0

    @property
    def current_version(self) -> int:
        """The version of the currently enforced policy."""
        return self.coordinator.policy.version

    def apply(self, bundle: PolicyUpdateBundle, car: ConnectedCar) -> SecurityPolicy:
        """Verify and apply a policy update to *car*.

        Raises :class:`UpdateRejected` when the signature is invalid,
        the version does not supersede the currently enforced policy
        (rollback protection), or the policy text's ``policy <name> vN``
        header declares another version than the signed one.
        """
        if not bundle.verify(self._verification_key):
            self.rejected_bundles += 1
            raise UpdateRejected("invalid update signature")
        if bundle.version <= self.current_version:
            self.rejected_bundles += 1
            raise UpdateRejected(
                f"update version {bundle.version} does not supersede enforced "
                f"version {self.current_version}"
            )
        policy = bundle.parse()
        if policy.version != bundle.version:
            self.rejected_bundles += 1
            raise UpdateRejected(
                f"policy text declares version {policy.version} but the bundle "
                f"is signed as version {bundle.version}"
            )
        self.coordinator.apply_policy(policy, car)
        self.applied_versions.append(bundle.version)
        return policy
