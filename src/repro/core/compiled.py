"""Compiled enforcement tables.

The paper's central enforcement claim (Fig. 4) is that policy is
*data*: once derived, it is pushed below firmware as fixed identifier
tables that a hardware comparator can consult in a few clock cycles.
The object model mirrors the architecture faithfully --
:class:`~repro.core.policy_engine.EffectiveNodePolicy` frozensets probed
through :class:`~repro.hpe.approved_list.ApprovedIdList` -- but at fleet
scale every such probe is a chain of Python calls.

:class:`CompiledDecisionTable` lowers one evaluated ``(policy, node,
situation)`` decision into the same shape the hardware would hold: one
flat bitmask per direction over the 11-bit standard CAN identifier
space (2048 bits = 256 bytes), so a permit check is a single integer
bit-probe::

    mask[can_id >> 3] >> (can_id & 7) & 1

Identifiers outside the standard space (29-bit extended ids) fall into
a normally-empty overflow frozenset per direction, keeping compiled
decisions bit-identical to the object path for *every* representable
identifier.  Tables are immutable, hashable and picklable; the
:class:`~repro.core.policy_engine.PolicyEvaluator` caches them in an
LRU alongside the effective-policy cache so one table serves every car
in a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.can.frame import MAX_STANDARD_ID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.policy_engine import EffectiveNodePolicy

#: Number of identifiers a bitmask covers (the 11-bit standard id space).
ID_SPACE = MAX_STANDARD_ID + 1

#: Bytes per directional bitmask (2048 bits).
MASK_BYTES = ID_SPACE // 8

#: An all-zero mask (deny everything): the shared default for nodes with
#: no approved identifiers in a direction.
EMPTY_MASK = bytes(MASK_BYTES)


def build_mask(ids: Iterable[int]) -> bytes:
    """Pack standard-range identifiers into a 256-byte bitset.

    Identifiers above :data:`MAX_STANDARD_ID` are ignored (they belong
    in the overflow set); negative identifiers cannot occur in an
    :class:`EffectiveNodePolicy`.
    """
    mask = bytearray(MASK_BYTES)
    for can_id in ids:
        if can_id <= MAX_STANDARD_ID:
            mask[can_id >> 3] |= 1 << (can_id & 7)
    return bytes(mask)


def mask_to_ids(mask: bytes) -> frozenset[int]:
    """Decompile a bitset back into the identifiers it approves."""
    ids = set()
    for byte_index, byte in enumerate(mask):
        if not byte:
            continue
        base = byte_index << 3
        for bit in range(8):
            if byte >> bit & 1:
                ids.add(base + bit)
    return frozenset(ids)


@dataclass(frozen=True)
class CompiledDecisionTable:
    """One node's enforcement decisions in one situation, as flat data.

    ``read_mask`` / ``write_mask`` cover the standard identifier space;
    ``read_overflow`` / ``write_overflow`` hold any approved extended
    identifiers (normally empty -- the case-study catalogue is entirely
    standard-id).  Equality is structural, so two tables compiled from
    equal effective policies compare equal.
    """

    node: str
    read_mask: bytes
    write_mask: bytes
    read_overflow: frozenset[int] = field(default_factory=frozenset)
    write_overflow: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def from_effective(cls, effective: "EffectiveNodePolicy") -> "CompiledDecisionTable":
        """Lower an evaluated effective node policy into a decision table."""
        read_over = frozenset(i for i in effective.read_ids if i > MAX_STANDARD_ID)
        write_over = frozenset(i for i in effective.write_ids if i > MAX_STANDARD_ID)
        return cls(
            node=effective.node,
            read_mask=build_mask(effective.read_ids),
            write_mask=build_mask(effective.write_ids),
            read_overflow=read_over,
            write_overflow=write_over,
        )

    # -- decisions ---------------------------------------------------------------

    def may_read(self, can_id: int) -> bool:
        """Whether the node may consume frames with this identifier."""
        if can_id <= MAX_STANDARD_ID:
            return bool(self.read_mask[can_id >> 3] >> (can_id & 7) & 1)
        return can_id in self.read_overflow

    def may_write(self, can_id: int) -> bool:
        """Whether the node may emit frames with this identifier."""
        if can_id <= MAX_STANDARD_ID:
            return bool(self.write_mask[can_id >> 3] >> (can_id & 7) & 1)
        return can_id in self.write_overflow

    # -- introspection ------------------------------------------------------------

    def read_ids(self) -> frozenset[int]:
        """Every identifier the table approves for reading."""
        return mask_to_ids(self.read_mask) | self.read_overflow

    def write_ids(self) -> frozenset[int]:
        """Every identifier the table approves for writing."""
        return mask_to_ids(self.write_mask) | self.write_overflow

    def __str__(self) -> str:
        return (
            f"CompiledDecisionTable({self.node}: "
            f"{len(self.read_ids())} read ids, {len(self.write_ids())} write ids)"
        )
