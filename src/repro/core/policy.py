"""The policy model.

A *security policy* is the machine-enforceable output of policy-based
security modelling (paper Section IV): instead of a guideline document,
the threat model yields rules that an enforcement engine can apply and
that can be updated after deployment.

Two rule kinds are modelled:

* :class:`AccessRule` -- CAN-level rules ("node X may not read message M
  while the vehicle is in motion"), compiled into HPE approved lists by
  :class:`repro.core.policy_engine.PolicyEvaluator`.
* application statements -- SELinux-style permission statements
  (:class:`repro.selinux.compiler.PermissionStatement`) guarding
  software operations, carried alongside the access rules in the
  :class:`SecurityPolicy`.

The paper's Table I expresses per-threat policies as ``R`` / ``W`` /
``RW`` permissions; :class:`Permission` reproduces that notation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.selinux.compiler import PermissionStatement
from repro.vehicle.modes import CarMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.vehicle.car import ConnectedCar


class Permission(Enum):
    """The paper's Table I policy permissions."""

    READ = "R"
    WRITE = "W"
    READ_WRITE = "RW"
    NONE = "-"

    @classmethod
    def parse(cls, text: str) -> "Permission":
        """Parse ``"R"``, ``"W"``, ``"RW"`` or ``"-"``."""
        normalised = text.strip().upper()
        for permission in cls:
            if permission.value == normalised:
                return permission
        raise ValueError(f"unknown permission: {text!r}")

    @property
    def allows_read(self) -> bool:
        return self in (Permission.READ, Permission.READ_WRITE)

    @property
    def allows_write(self) -> bool:
        return self in (Permission.WRITE, Permission.READ_WRITE)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RuleEffect(Enum):
    """Whether a rule grants or forbids the described access."""

    ALLOW = "allow"
    DENY = "deny"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Direction(Enum):
    """The bus direction an access rule constrains."""

    READ = "read"
    WRITE = "write"
    BOTH = "both"

    @property
    def covers_read(self) -> bool:
        return self in (Direction.READ, Direction.BOTH)

    @property
    def covers_write(self) -> bool:
        return self in (Direction.WRITE, Direction.BOTH)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CarSituation:
    """The operating situation policy conditions are evaluated against.

    Mode is the paper's car-mode column; the boolean flags model the
    "behavioural or situational" policy refinements Section V mentions
    (motion, alarm state, accident in progress).
    """

    mode: CarMode = CarMode.NORMAL
    in_motion: bool = False
    alarm_armed: bool = False
    accident: bool = False

    @classmethod
    def observe(cls, car: "ConnectedCar") -> "CarSituation":
        """Derive the situation from a live vehicle."""
        return cls(
            mode=car.mode,
            in_motion=car.door_locks.vehicle_in_motion,
            alarm_armed=car.safety.alarm_armed,
            accident=car.safety.failsafe_active or car.door_locks.accident_in_progress,
        )

    def __str__(self) -> str:
        flags = []
        if self.in_motion:
            flags.append("in-motion")
        if self.alarm_armed:
            flags.append("alarm-armed")
        if self.accident:
            flags.append("accident")
        return f"{self.mode}" + (f" [{', '.join(flags)}]" if flags else "")


@dataclass(frozen=True)
class PolicyCondition:
    """When an access rule applies.

    Every non-``None`` / non-empty field must match the observed
    situation for the rule to apply.  The default condition applies
    always.
    """

    modes: frozenset[CarMode] = frozenset()
    in_motion: bool | None = None
    alarm_armed: bool | None = None
    accident: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", frozenset(self.modes))

    @classmethod
    def always(cls) -> "PolicyCondition":
        """A condition that matches every situation."""
        return cls()

    @classmethod
    def in_modes(cls, *modes: CarMode) -> "PolicyCondition":
        """A condition restricted to the given car modes."""
        return cls(modes=frozenset(modes))

    def matches(self, situation: CarSituation) -> bool:
        """Whether the rule applies in *situation*."""
        if self.modes and situation.mode not in self.modes:
            return False
        if self.in_motion is not None and situation.in_motion != self.in_motion:
            return False
        if self.alarm_armed is not None and situation.alarm_armed != self.alarm_armed:
            return False
        if self.accident is not None and situation.accident != self.accident:
            return False
        return True

    @property
    def is_unconditional(self) -> bool:
        """Whether this condition matches every situation."""
        return (
            not self.modes
            and self.in_motion is None
            and self.alarm_armed is None
            and self.accident is None
        )

    def overlaps(self, other: "PolicyCondition") -> bool:
        """Whether some situation satisfies both conditions."""
        if self.modes and other.modes and not (self.modes & other.modes):
            return False
        for field_name in ("in_motion", "alarm_armed", "accident"):
            mine = getattr(self, field_name)
            theirs = getattr(other, field_name)
            if mine is not None and theirs is not None and mine != theirs:
                return False
        return True

    def render(self) -> str:
        """Render in the policy DSL's ``when`` syntax (empty when unconditional)."""
        parts: list[str] = []
        if self.modes:
            parts.append("mode=" + ",".join(sorted(m.value for m in self.modes)))
        if self.in_motion is not None:
            parts.append("in-motion" if self.in_motion else "stationary")
        if self.alarm_armed is not None:
            parts.append("alarm-armed" if self.alarm_armed else "alarm-disarmed")
        if self.accident is not None:
            parts.append("accident" if self.accident else "no-accident")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render() or "always"


@dataclass(frozen=True)
class AccessRule:
    """One CAN-level access rule.

    Parameters
    ----------
    rule_id:
        Unique rule identifier, e.g. ``"P-T01-1"``.
    effect:
        Allow or deny.
    node:
        Node the rule constrains (``"*"`` for every node).
    direction:
        Read (frames toward the node's application), write (frames the
        node emits) or both.
    messages:
        Catalogue message names the rule covers (``("*",)`` for all).
    condition:
        Situational condition under which the rule applies.
    derived_from:
        Identifier of the threat the rule was derived from.
    note:
        Analyst note.
    """

    rule_id: str
    effect: RuleEffect
    node: str
    direction: Direction
    messages: tuple[str, ...]
    condition: PolicyCondition = field(default_factory=PolicyCondition)
    derived_from: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if not self.rule_id.strip():
            raise ValueError("rule id must be non-empty")
        if not self.node.strip():
            raise ValueError("rule node must be non-empty")
        if not self.messages:
            raise ValueError("rule must name at least one message (or '*')")
        object.__setattr__(self, "messages", tuple(self.messages))

    def covers_node(self, node: str) -> bool:
        """Whether the rule constrains *node*."""
        return self.node == "*" or self.node == node

    def covers_message(self, message_name: str) -> bool:
        """Whether the rule covers the named message."""
        return "*" in self.messages or message_name in self.messages

    def applies(self, node: str, situation: CarSituation) -> bool:
        """Whether the rule applies to *node* in *situation*."""
        return self.covers_node(node) and self.condition.matches(situation)

    def render(self) -> str:
        """Render in the policy DSL syntax."""
        message_list = ",".join(self.messages)
        text = f"{self.effect.value} {self.node} {self.direction.value} {message_list}"
        condition = self.condition.render()
        if condition:
            text += f" when {condition}"
        if self.derived_from:
            text += f" # {self.derived_from}"
        return text

    def __str__(self) -> str:
        return self.render()


class SecurityPolicy:
    """The assembled, versioned security policy for one use case.

    Holds the CAN-level access rules and the application-level (SELinux)
    permission statements, plus bookkeeping linking rules back to the
    threats they mitigate.

    Cached decisions name a policy by its content (:attr:`digest`), not
    by object.  A policy shared by several vehicles -- the parse of a
    signed update bundle -- is frozen (:meth:`freeze`): its mutators
    raise, and an edit starts from a :meth:`next_version` copy.
    """

    def __init__(
        self,
        name: str,
        version: int = 1,
        access_rules: Iterable[AccessRule] = (),
        app_statements: Iterable[PermissionStatement] = (),
        description: str = "",
    ) -> None:
        if not name.strip():
            raise ValueError("policy name must be non-empty")
        if version < 1:
            raise ValueError("policy version must be >= 1")
        self.name = name
        self.version = version
        self.description = description
        self._access_rules: dict[str, AccessRule] = {}
        self._app_statements: list[PermissionStatement] = []
        #: Cached :attr:`digest`; ``add_rule``/``remove_rule`` clear it.
        self._digest: str | None = None
        self._frozen = False
        for rule in access_rules:
            self.add_rule(rule)
        for statement in app_statements:
            self.add_app_statement(statement)

    # -- construction ---------------------------------------------------------------

    def add_rule(self, rule: AccessRule) -> AccessRule:
        """Add a CAN-level access rule (duplicate ids rejected)."""
        self._check_mutable()
        if rule.rule_id in self._access_rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._access_rules[rule.rule_id] = rule
        self._digest = None
        return rule

    def add_app_statement(self, statement: PermissionStatement) -> PermissionStatement:
        """Add an application-level permission statement."""
        self._check_mutable()
        self._app_statements.append(statement)
        return statement

    def remove_rule(self, rule_id: str) -> AccessRule:
        """Remove and return the rule with the given id."""
        self._check_mutable()
        try:
            rule = self._access_rules.pop(rule_id)
        except KeyError:
            raise KeyError(f"no rule with id {rule_id!r}") from None
        self._digest = None
        return rule

    def freeze(self) -> "SecurityPolicy":
        """Make the policy read-only (its mutators raise) and return it."""
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError(f"{self} is frozen; edit a next_version() copy instead")

    # -- access ------------------------------------------------------------------------

    @property
    def digest(self) -> str:
        """SHA-256 over the version and every access rule, in insertion order.

        The hashed rule lines are the ones
        :func:`repro.core.dsl.render_policy` writes (``rule_id: render``).
        Name, description and application statements stay out: the
        policy evaluator reads none of them, so equal digests evaluate
        to equal decisions and may share cached ones.
        """
        if self._digest is None:
            lines = [f"v{self.version}"]
            lines.extend(f"{rule.rule_id}: {rule.render()}" for rule in self)
            self._digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return self._digest

    @property
    def access_rules(self) -> list[AccessRule]:
        """All CAN-level rules, in insertion order."""
        return list(self._access_rules.values())

    @property
    def app_statements(self) -> list[PermissionStatement]:
        """All application-level permission statements."""
        return list(self._app_statements)

    def rule(self, rule_id: str) -> AccessRule:
        """The rule with the given id."""
        try:
            return self._access_rules[rule_id]
        except KeyError:
            raise KeyError(f"no rule with id {rule_id!r}") from None

    def rules_for_node(self, node: str) -> list[AccessRule]:
        """All rules constraining *node* (including wildcard rules)."""
        return [r for r in self._access_rules.values() if r.covers_node(node)]

    def rules_derived_from(self, threat_id: str) -> list[AccessRule]:
        """All rules derived from the given threat."""
        return [r for r in self._access_rules.values() if r.derived_from == threat_id]

    def mitigated_threats(self) -> frozenset[str]:
        """Identifiers of threats that at least one rule was derived from."""
        return frozenset(
            r.derived_from for r in self._access_rules.values() if r.derived_from
        )

    def __len__(self) -> int:
        return len(self._access_rules)

    def __iter__(self) -> Iterator[AccessRule]:
        return iter(self._access_rules.values())

    def __contains__(self, rule_id: object) -> bool:
        return rule_id in self._access_rules

    # -- evolution ----------------------------------------------------------------------

    def next_version(self, description: str = "") -> "SecurityPolicy":
        """A mutable copy of this policy with the version bumped (for policy updates)."""
        successor = SecurityPolicy(
            name=self.name,
            version=self.version + 1,
            access_rules=self.access_rules,
            app_statements=self.app_statements,
            description=description or self.description,
        )
        return successor

    def merge(self, other: "SecurityPolicy") -> "SecurityPolicy":
        """A new policy combining this policy's and *other*'s rules.

        The merged policy takes the higher version number plus one, so it
        supersedes both inputs.
        """
        merged = SecurityPolicy(
            name=self.name,
            version=max(self.version, other.version) + 1,
            access_rules=self.access_rules,
            app_statements=self.app_statements,
            description=self.description,
        )
        for rule in other.access_rules:
            if rule.rule_id not in merged:
                merged.add_rule(rule)
        for statement in other.app_statements:
            if statement not in merged.app_statements:
                merged.add_app_statement(statement)
        return merged

    def summary(self) -> dict[str, int | str]:
        """Headline numbers for reporting."""
        return {
            "name": self.name,
            "version": self.version,
            "access_rules": len(self._access_rules),
            "app_statements": len(self._app_statements),
            "mitigated_threats": len(self.mitigated_threats()),
        }

    def __str__(self) -> str:
        return f"SecurityPolicy({self.name} v{self.version}, {len(self)} rules)"
