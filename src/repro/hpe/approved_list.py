"""Approved message-ID lists.

The HPE holds one approved list per direction: the *reading* list names
the CAN identifiers the node may consume, the *writing* list the
identifiers it may emit (paper Fig. 4).  Lists support exact identifiers
and contiguous ranges, and can be *locked* so that further modification
requires going through the privileged configuration port.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.can.frame import MAX_EXTENDED_ID


@dataclass(frozen=True)
class IdRange:
    """A contiguous inclusive range of CAN identifiers."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= MAX_EXTENDED_ID:
            raise ValueError(f"range low 0x{self.low:X} out of range")
        if not 0 <= self.high <= MAX_EXTENDED_ID:
            raise ValueError(f"range high 0x{self.high:X} out of range")
        if self.low > self.high:
            raise ValueError(f"range low 0x{self.low:X} exceeds high 0x{self.high:X}")

    def __contains__(self, can_id: object) -> bool:
        return isinstance(can_id, int) and self.low <= can_id <= self.high

    def __len__(self) -> int:
        return self.high - self.low + 1

    def __str__(self) -> str:
        if self.low == self.high:
            return f"0x{self.low:03X}"
        return f"0x{self.low:03X}-0x{self.high:03X}"


class ApprovedIdList:
    """An approved list of CAN message identifiers.

    The list is the hardware-resident whitelist the decision block
    consults.  Once :meth:`lock` has been called, mutation raises
    ``PermissionError`` unless performed through an unlock token issued
    by the register file's configuration port -- modelling that node
    firmware cannot silently rewrite the hardware lists.
    """

    def __init__(self, ids: Iterable[int] = (), ranges: Iterable[IdRange] = ()) -> None:
        self._ids: set[int] = set()
        self._ranges: list[IdRange] = []
        self._locked = False
        #: Merged, sorted, non-overlapping (low, high) intervals plus the
        #: parallel array of their starts for bisection; rebuilt lazily
        #: after any mutation (see :meth:`_merged_ranges`).
        self._merged: list[tuple[int, int]] | None = None
        self._merged_starts: list[int] | None = None
        #: Memoised frozen view of the explicit identifiers.
        self._frozen_ids: frozenset[int] | None = None
        for can_id in ids:
            self.add(can_id)
        for id_range in ranges:
            self.add_range(id_range)

    def _invalidate_views(self) -> None:
        self._merged = None
        self._merged_starts = None
        self._frozen_ids = None

    def _merged_ranges(self) -> tuple[list[tuple[int, int]], list[int]]:
        """The approved ranges merged into sorted disjoint intervals."""
        merged = self._merged
        if merged is None:
            merged = []
            for id_range in sorted(self._ranges, key=lambda r: r.low):
                if merged and id_range.low <= merged[-1][1] + 1:
                    if id_range.high > merged[-1][1]:
                        merged[-1] = (merged[-1][0], id_range.high)
                else:
                    merged.append((id_range.low, id_range.high))
            self._merged = merged
            self._merged_starts = [low for low, _ in merged]
        return merged, self._merged_starts

    # -- state -------------------------------------------------------------------

    @property
    def locked(self) -> bool:
        """Whether the list rejects direct modification."""
        return self._locked

    def lock(self) -> None:
        """Freeze the list against direct modification."""
        self._locked = True

    def _unlock_internal(self) -> None:
        """Unlock for a privileged update (only the register file calls this)."""
        self._locked = False

    def _check_mutable(self) -> None:
        if self._locked:
            raise PermissionError(
                "approved list is locked; updates must go through the configuration port"
            )

    # -- mutation -----------------------------------------------------------------

    def add(self, can_id: int) -> None:
        """Approve a single identifier."""
        self._check_mutable()
        if not 0 <= can_id <= MAX_EXTENDED_ID:
            raise ValueError(f"identifier 0x{can_id:X} out of range")
        self._ids.add(can_id)
        self._frozen_ids = None

    def add_many(self, can_ids: Iterable[int]) -> None:
        """Approve several identifiers."""
        for can_id in can_ids:
            self.add(can_id)

    def add_range(self, id_range: IdRange) -> None:
        """Approve a contiguous range of identifiers."""
        self._check_mutable()
        self._ranges.append(id_range)
        self._merged = None
        self._merged_starts = None

    def remove(self, can_id: int) -> None:
        """Revoke approval for a single identifier.

        Identifiers covered only by a range cannot be removed individually;
        replace the range instead.
        """
        self._check_mutable()
        if can_id in self._ids:
            self._ids.discard(can_id)
            self._frozen_ids = None
            return
        if any(can_id in r for r in self._ranges):
            raise ValueError(
                f"identifier 0x{can_id:X} is covered by a range; replace the range instead"
            )
        raise KeyError(f"identifier 0x{can_id:X} is not in the approved list")

    def replace(self, ids: Iterable[int], ranges: Iterable[IdRange] = ()) -> None:
        """Atomically replace the whole list (policy update semantics)."""
        self._check_mutable()
        new_ids = set()
        for can_id in ids:
            if not 0 <= can_id <= MAX_EXTENDED_ID:
                raise ValueError(f"identifier 0x{can_id:X} out of range")
            new_ids.add(can_id)
        self._ids = new_ids
        self._ranges = list(ranges)
        self._invalidate_views()

    def clear(self) -> None:
        """Remove all approvals (deny everything)."""
        self._check_mutable()
        self._ids.clear()
        self._ranges.clear()
        self._invalidate_views()

    # -- queries ---------------------------------------------------------------------

    def approves(self, can_id: int) -> bool:
        """Whether *can_id* is on the approved list.

        Range membership bisects over the merged intervals' start
        points: O(log r) in the number of disjoint ranges instead of a
        linear scan, with identical answers (the merge is a pure union).
        """
        if can_id in self._ids:
            return True
        if not self._ranges:
            return False
        merged, starts = self._merged_ranges()
        index = bisect_right(starts, can_id) - 1
        return index >= 0 and can_id <= merged[index][1]

    def matches(self, ids: Iterable[int], ranges: Iterable[IdRange] = ()) -> bool:
        """Whether :meth:`replace` with these arguments would change nothing."""
        return self._ids == set(ids) and self._ranges == list(ranges)

    def explicit_ids(self) -> frozenset[int]:
        """The individually approved identifiers (memoised frozen view)."""
        frozen = self._frozen_ids
        if frozen is None:
            frozen = self._frozen_ids = frozenset(self._ids)
        return frozen

    def ranges(self) -> tuple[IdRange, ...]:
        """The approved ranges."""
        return tuple(self._ranges)

    def __contains__(self, can_id: object) -> bool:
        return isinstance(can_id, int) and self.approves(can_id)

    def __len__(self) -> int:
        return len(self._ids) + sum(len(r) for r in self._ranges)

    def __iter__(self) -> Iterator[int]:
        """Iterate over all approved identifiers (explicit ones first)."""
        yield from sorted(self._ids)
        for id_range in self._ranges:
            for can_id in range(id_range.low, id_range.high + 1):
                if can_id not in self._ids:
                    yield can_id

    def __str__(self) -> str:
        parts = [f"0x{i:03X}" for i in sorted(self._ids)]
        parts.extend(str(r) for r in self._ranges)
        state = "locked" if self._locked else "open"
        return f"ApprovedIdList({', '.join(parts) or 'empty'}; {state})"
