"""Software acceptance filters.

CAN controllers conventionally provide *programmable software-configured*
acceptance filters: a frame is accepted when ``frame_id & mask == value
& mask`` for at least one configured filter.  The paper points out that
these filters are configured by firmware and are therefore bypassable
when the firmware itself is compromised -- the motivation for the
hardware policy engine in :mod:`repro.hpe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.can.fanout import invalidate
from repro.can.frame import MAX_EXTENDED_ID, MAX_STANDARD_ID, CANFrame


@dataclass(frozen=True)
class AcceptanceFilter:
    """A single mask/value acceptance filter.

    A frame matches when ``(frame.can_id & mask) == (value & mask)``.
    A mask of ``0`` matches every frame; a mask of ``0x7FF`` (or the full
    29-bit mask) requires an exact identifier match.
    """

    value: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_EXTENDED_ID:
            raise ValueError(f"filter value 0x{self.value:X} out of range")
        if not 0 <= self.mask <= MAX_EXTENDED_ID:
            raise ValueError(f"filter mask 0x{self.mask:X} out of range")

    @classmethod
    def exact(cls, can_id: int, extended: bool = False) -> "AcceptanceFilter":
        """A filter matching exactly one identifier."""
        mask = MAX_EXTENDED_ID if extended else 0x7FF
        return cls(value=can_id, mask=mask)

    @classmethod
    def accept_all(cls) -> "AcceptanceFilter":
        """A filter matching every identifier."""
        return cls(value=0, mask=0)

    def matches(self, frame: CANFrame) -> bool:
        """Whether *frame* passes this filter."""
        return (frame.can_id & self.mask) == (self.value & self.mask)

    def matches_id(self, can_id: int) -> bool:
        """Whether a bare identifier passes this filter."""
        return (can_id & self.mask) == (self.value & self.mask)

    def __str__(self) -> str:
        return f"filter(value=0x{self.value:X}, mask=0x{self.mask:X})"


class FilterBank:
    """An ordered bank of acceptance filters.

    The bank accepts a frame if *any* filter matches.  An empty bank
    accepts everything by default (matching typical controller reset
    behaviour); call :meth:`set_default_reject` to invert that.

    Because the bank is firmware-configured, it exposes
    :meth:`compromise` which models a firmware-modification attack
    opening the filters -- the scenario the HPE is designed to survive.
    """

    def __init__(
        self, filters: Iterable[AcceptanceFilter] = (), default_accept: bool = True
    ) -> None:
        self._filters: list[AcceptanceFilter] = []
        #: Match buckets: mask -> set of masked values.  A frame matches
        #: the bank iff ``(can_id & mask) in bucket[mask]`` for some
        #: mask, which turns the per-frame scan over N filters into one
        #: set probe per distinct mask (typically exactly one).
        self._by_mask: dict[int, set[int]] = {}
        self._default_accept = default_accept
        self._compromised = False
        #: Compiled acceptance bitset over the standard id space (see
        #: :meth:`compile_mask`); ``None`` until compiled, dropped again
        #: on any configuration change.
        self._accept_mask: bytes | None = None
        for acceptance_filter in filters:
            self.add(acceptance_filter)

    def __len__(self) -> int:
        return len(self._filters)

    def __iter__(self) -> Iterator[AcceptanceFilter]:
        return iter(self._filters)

    # -- configuration (firmware-level, mutable) -------------------------------

    def add(self, acceptance_filter: AcceptanceFilter) -> None:
        """Add a filter to the bank."""
        invalidate()
        self._filters.append(acceptance_filter)
        mask = acceptance_filter.mask
        self._by_mask.setdefault(mask, set()).add(acceptance_filter.value & mask)
        self._accept_mask = None

    def add_exact(self, can_id: int, extended: bool = False) -> None:
        """Add an exact-match filter for one identifier."""
        self.add(AcceptanceFilter.exact(can_id, extended))

    def clear(self) -> None:
        """Remove all filters."""
        invalidate()
        self._filters.clear()
        self._by_mask.clear()
        self._accept_mask = None

    def set_default_reject(self) -> None:
        """Reject frames when no filter matches (instead of accepting)."""
        invalidate()
        self._default_accept = False
        self._accept_mask = None

    def set_default_accept(self) -> None:
        """Accept frames when no filter matches."""
        invalidate()
        self._default_accept = True
        self._accept_mask = None

    def compile_mask(self) -> bytes:
        """Compile the bank's standard-id decisions into a 256-byte bitset.

        The fused fleet delivery loop probes the compiled bitset instead
        of scanning the match buckets.  Bit ``i`` is set iff
        :meth:`accepts_id` would accept identifier ``i`` in the
        *uncompromised* state -- a compromise bypasses the bank entirely
        and is checked separately by callers.  The mask is cached until
        the next configuration change; extended identifiers always take
        the uncompiled path.
        """
        accept_mask = self._accept_mask
        if accept_mask is None:
            if not self._filters:
                bits = bytearray(
                    b"\xff" * ((MAX_STANDARD_ID + 1) // 8)
                    if self._default_accept
                    else (MAX_STANDARD_ID + 1) // 8
                )
            else:
                bits = bytearray((MAX_STANDARD_ID + 1) // 8)
                for mask, values in self._by_mask.items():
                    standard_mask = mask & MAX_STANDARD_ID
                    if standard_mask == MAX_STANDARD_ID:
                        # Exact standard match: one bit per value.
                        for value in values:
                            if value <= MAX_STANDARD_ID:
                                bits[value >> 3] |= 1 << (value & 7)
                    else:
                        # Partial mask: test each identifier against this
                        # bucket (one-time cost, amortised by the cache).
                        for can_id in range(MAX_STANDARD_ID + 1):
                            if can_id & mask in values:
                                bits[can_id >> 3] |= 1 << (can_id & 7)
            accept_mask = self._accept_mask = bytes(bits)
        return accept_mask

    # -- compromise model -------------------------------------------------------

    def compromise(self) -> None:
        """Model a firmware-modification attack: the bank accepts everything.

        After compromise the configured filters are ignored entirely,
        reflecting that software filters offer no protection once the
        firmware configuring them is under attacker control.
        """
        invalidate()
        self._compromised = True

    def restore(self) -> None:
        """Restore normal filtering after a (simulated) firmware reflash."""
        invalidate()
        self._compromised = False

    @property
    def compromised(self) -> bool:
        """Whether the bank is currently bypassed by a firmware compromise."""
        return self._compromised

    # -- evaluation --------------------------------------------------------------

    def accepts(self, frame: CANFrame) -> bool:
        """Whether the bank accepts *frame*.

        With filters configured the bank accepts only matching frames;
        with no filters configured it falls back to the default policy.
        """
        return self.accepts_id(frame.can_id)

    def accepts_id(self, can_id: int) -> bool:
        """Whether the bank accepts a bare identifier."""
        if self._compromised:
            return True
        if not self._filters:
            return self._default_accept
        for mask, values in self._by_mask.items():
            if can_id & mask in values:
                return True
        return False
