"""The assembled Hardware Policy Engine.

:class:`HardwarePolicyEngine` combines the approved reading and writing
lists, the directional decision filters, the register-file configuration
interface and the tamper log into the engine of paper Fig. 4.  It
implements :class:`repro.can.node.PolicyHook`, so it drops straight into
a :class:`repro.can.node.CANNode`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.can.fanout import invalidate
from repro.can.frame import MAX_STANDARD_ID, CANFrame
from repro.hpe.approved_list import ApprovedIdList, IdRange, check_entries
from repro.hpe.decision_block import DEFAULT_DECISION_LATENCY_S
from repro.hpe.filters import ReadFilter, WriteFilter
from repro.hpe.registers import AccessError, RegisterFile
from repro.hpe.tamper import TamperLog, TamperSource, is_authorised

if TYPE_CHECKING:  # repro.core imports this module: annotations only
    from repro.core.compiled import CompiledDecisionTable


class HardwarePolicyEngine:
    """A per-node hardware policy engine.

    Parameters
    ----------
    node_name:
        The CAN node this engine protects (diagnostic only).
    approved_reads:
        Identifiers the node may consume from the bus.
    approved_writes:
        Identifiers the node may emit onto the bus.
    decision_latency_s:
        Abstract per-decision latency (see
        :mod:`repro.hpe.decision_block`).
    configuration_key:
        Key required by the configuration port for policy updates.
    """

    def __init__(
        self,
        node_name: str,
        approved_reads: Iterable[int] = (),
        approved_writes: Iterable[int] = (),
        read_ranges: Iterable[IdRange] = (),
        write_ranges: Iterable[IdRange] = (),
        decision_latency_s: float = DEFAULT_DECISION_LATENCY_S,
        configuration_key: int = 0xC0FFEE,
    ) -> None:
        self.node_name = node_name
        self._read_list = ApprovedIdList(approved_reads, read_ranges)
        self._write_list = ApprovedIdList(approved_writes, write_ranges)
        self.read_filter = ReadFilter(self._read_list, latency_s=decision_latency_s)
        self.write_filter = WriteFilter(self._write_list, latency_s=decision_latency_s)
        # Direct decision-block references for the per-frame hot path.
        self._read_block = self.read_filter.decision_block
        self._write_block = self.write_filter.decision_block
        self.registers = RegisterFile(configuration_key=configuration_key)
        self.tamper_log = TamperLog()
        self._configuration_key = configuration_key
        #: Compiled fast path (see :mod:`repro.core.compiled`): when a
        #: table is installed, permit checks become one bitmask probe.
        #: ``None`` means "no table": the object path is authoritative.
        self._compiled: CompiledDecisionTable | None = None
        self._compiled_read_mask: bytes | None = None
        self._compiled_write_mask: bytes | None = None
        self._compiled_read_over: frozenset[int] = frozenset()
        self._compiled_write_over: frozenset[int] = frozenset()
        self._read_list.lock()
        self._write_list.lock()

    # -- PolicyHook interface ------------------------------------------------------

    def permit_read(self, frame: CANFrame) -> bool:
        """Whether the node may consume *frame* (inbound direction).

        With a compiled table installed the decision is a single
        integer bit-probe; counters and accumulated latency update
        exactly as the object path would.  Without one, the approved
        list remains the authoritative (and only) decision path.
        """
        mask = self._compiled_read_mask
        if mask is None:
            return self._read_block.permits_id(frame.can_id)
        block = self._read_block
        block.decisions_made += 1
        block.total_latency_s += block.latency_s
        can_id = frame.can_id
        if (
            mask[can_id >> 3] >> (can_id & 7) & 1
            if can_id <= MAX_STANDARD_ID
            else can_id in self._compiled_read_over
        ):
            block.grants += 1
            return True
        block.blocks += 1
        return False

    def permit_write(self, frame: CANFrame) -> bool:
        """Whether the node may emit *frame* (outbound direction).

        Compiled-table fast path as in :meth:`permit_read`.
        """
        mask = self._compiled_write_mask
        if mask is None:
            return self._write_block.permits_id(frame.can_id)
        block = self._write_block
        block.decisions_made += 1
        block.total_latency_s += block.latency_s
        can_id = frame.can_id
        if (
            mask[can_id >> 3] >> (can_id & 7) & 1
            if can_id <= MAX_STANDARD_ID
            else can_id in self._compiled_write_over
        ):
            block.grants += 1
            return True
        block.blocks += 1
        return False

    # -- compiled fast path --------------------------------------------------------

    @property
    def compiled_table(self) -> CompiledDecisionTable | None:
        """The installed compiled decision table, if any."""
        return self._compiled

    def install_compiled_table(self, table: CompiledDecisionTable) -> None:
        """Install the compiled form of the currently approved lists.

        Only the enforcement coordinator (the OEM configuration channel)
        calls this, immediately after a successful :meth:`update_policy`
        with the table compiled from the same effective policy -- the
        table is a lowered *cache* of the authoritative lists, never an
        independent source of decisions.  Any later list change through
        :meth:`update_policy` drops the table again, so a stale table
        can never outlive the lists it was compiled from.

        Only the read side feeds the bus's compiled fan-out plans, so
        the fan-out epoch moves only when the read mask or the read
        overflow differs from the installed one (or no table was
        installed); a table whose read side is unchanged keeps every
        plan.
        """
        if (
            table.read_mask != self._compiled_read_mask
            or table.read_overflow != self._compiled_read_over
        ):
            invalidate()
        self._compiled = table
        self._compiled_read_mask = table.read_mask
        self._compiled_write_mask = table.write_mask
        self._compiled_read_over = table.read_overflow
        self._compiled_write_over = table.write_overflow

    def clear_compiled_table(self) -> None:
        """Drop the compiled table; decisions fall back to the object path."""
        invalidate()
        self._compiled = None
        self._compiled_read_mask = None
        self._compiled_write_mask = None
        self._compiled_read_over = frozenset()
        self._compiled_write_over = frozenset()

    # -- introspection ----------------------------------------------------------------

    @property
    def approved_read_ids(self) -> frozenset[int]:
        """Explicitly approved read identifiers."""
        return self._read_list.explicit_ids()

    @property
    def approved_write_ids(self) -> frozenset[int]:
        """Explicitly approved write identifiers."""
        return self._write_list.explicit_ids()

    @property
    def decisions_made(self) -> int:
        """Total decisions evaluated across both filters."""
        return self.read_filter.decisions_made + self.write_filter.decisions_made

    @property
    def frames_blocked(self) -> int:
        """Total frames blocked across both filters."""
        return self.read_filter.blocks + self.write_filter.blocks

    @property
    def total_latency_s(self) -> float:
        """Accumulated decision latency across both filters."""
        return self.read_filter.total_latency_s + self.write_filter.total_latency_s

    # -- configuration ------------------------------------------------------------------

    def update_policy(
        self,
        approved_reads: Iterable[int],
        approved_writes: Iterable[int],
        key: int,
        source: TamperSource = TamperSource.OEM_UPDATE_CHANNEL,
        read_ranges: Iterable[IdRange] = (),
        write_ranges: Iterable[IdRange] = (),
    ) -> bool:
        """Replace both approved lists through the configuration port.

        Only an authorised source presenting the correct key succeeds.
        Every attempt -- including rejected ones -- is recorded in the
        tamper log.  Returns ``True`` on success and ``False`` for an
        unauthorised attempt.  An authorised push naming an identifier
        or range the lists cannot hold raises ``ValueError``, after
        logging the attempt, and changes nothing: both lists are checked
        before either is unlocked.

        An authorised update whose lists equal the installed ones is
        still a successful push (logged and returning ``True``), but it
        replaces nothing: the compiled table stays installed and the
        fan-out epoch (:mod:`repro.can.fanout`) does not move.  An
        update that changes a list drops the table, which moves the
        epoch.
        """
        approved_reads = list(approved_reads)
        approved_writes = list(approved_writes)
        description = (
            f"policy update: {len(approved_reads)} read ids, {len(approved_writes)} write ids"
        )
        if not is_authorised(source) or key != self._configuration_key:
            self.tamper_log.record(source, description, succeeded=False)
            return False
        read_ranges = list(read_ranges)
        write_ranges = list(write_ranges)
        if not (
            self._read_list.matches(approved_reads, read_ranges)
            and self._write_list.matches(approved_writes, write_ranges)
        ):
            try:
                check_entries(approved_reads, read_ranges)
                check_entries(approved_writes, write_ranges)
            except ValueError:
                self.tamper_log.record(source, description, succeeded=False)
                raise
            self._read_list._unlock_internal()
            self._write_list._unlock_internal()
            try:
                self._read_list.replace(approved_reads, read_ranges)
                self._write_list.replace(approved_writes, write_ranges)
            finally:
                self._read_list.lock()
                self._write_list.lock()
            # The lists changed: any installed compiled table is now
            # stale.  The installer (the coordinator) re-installs one.
            self.clear_compiled_table()
        self.tamper_log.record(source, description, succeeded=True)
        return True

    def attempt_firmware_reconfiguration(
        self, approved_reads: Iterable[int], approved_writes: Iterable[int]
    ) -> bool:
        """Model a compromised firmware trying to rewrite the approved lists.

        Always fails (the lists are locked and the firmware does not hold
        the configuration key); the attempt is logged.  Returns ``False``.
        """
        return self.update_policy(
            approved_reads,
            approved_writes,
            key=0,  # firmware does not possess the configuration key
            source=TamperSource.NODE_FIRMWARE,
        )

    def write_configuration_register(
        self, address: int, value: int, key: int, source: str = "config-port"
    ) -> bool:
        """Low-level register write through the configuration port.

        Returns ``True`` on success; failed attempts are recorded in the
        register access log (and surfaced as tamper attempts).
        """
        try:
            self.registers.write(address, value, key=key, source=source)
        except AccessError:
            self.tamper_log.record(
                TamperSource.NODE_FIRMWARE if source == "firmware" else TamperSource.PHYSICAL_DEBUG,
                f"register write to {address}",
                succeeded=False,
            )
            return False
        return True

    def reset_counters(self) -> None:
        """Reset both filters' decision counters."""
        invalidate()
        self.read_filter.decision_block.reset_counters()
        self.write_filter.decision_block.reset_counters()

    def reset_for_reuse(self) -> None:
        """Restore the engine to its just-built observable state.

        Pool reuse support: counters, the tamper log, the register
        access log and any compiled table are dropped.  The approved
        lists are left as-is -- the coordinator's post-reset ``sync``
        replaces them through the configuration port exactly as the
        first ``fit`` did, reproducing the same tamper-log entry and
        push counters as a freshly built engine.
        """
        self.reset_counters()
        self.tamper_log.clear()
        self.registers.clear_access_log()
        self.clear_compiled_table()

    def __str__(self) -> str:
        return (
            f"HPE({self.node_name}: reads={sorted(self.approved_read_ids)}, "
            f"writes={sorted(self.approved_write_ids)})"
        )
