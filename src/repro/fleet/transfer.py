"""Columnar spec/outcome blocks and shared-memory chunk transport.

At 10^5+ vehicles the costs left in the parent process are the spec
path's: materialising every :class:`~repro.fleet.scenarios.VehicleSpec`
up front and pickling spec chunks through the multiprocessing pipe.
This module removes the transfer half of that cost (lazy generation in
:meth:`~repro.fleet.scenarios.FleetScenario.iter_vehicle_specs` removes
the other half):

* :class:`SpecBlock` packs a chunk of specs into flat typed arrays --
  one :class:`array.array` per field -- with an interned table for
  scenario / enforcement / action-kind names and canonically serialised
  action parameters.  A chunk of near-identical specs interns to a
  handful of table entries, so a block is far smaller than the pickled
  object graph it replaces.
* :class:`OutcomeBlock` does the same for the
  :class:`~repro.fleet.results.VehicleOutcome` batches workers send
  back (schema shared via :data:`repro.fleet.results.OUTCOME_COLUMNS`).
* :func:`write_block` / :func:`read_block` move an encoded block through
  :mod:`multiprocessing.shared_memory`, so the only thing pickled
  through the worker pipe is a ``(name, size)`` :class:`ShmHandle`.

Blocks are exact: ``decode(encode(specs)) == list(specs)`` for anything
the fleet layer produces (the transfer property test sweeps every
registered scenario), which is what keeps fleet fingerprints
bit-identical across ``spec_transfer`` modes.  Action parameters
serialise as canonical JSON where possible and fall back to pickle for
exotic values; integer columns carry an escape table for values outside
their fixed 64-bit range, so the codec is total over arbitrary specs.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.fleet.results import OUTCOME_COLUMNS, VehicleOutcome
from repro.fleet.scenarios import VehicleAction, VehicleSpec
from repro.obs import metrics as _obs_metrics

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without /dev/shm
    _shared_memory = None

#: Whether the handle-based transport works here.  POSIX-only on
#: purpose: Windows named mappings are destroyed when the last open
#: handle closes, so a segment written and closed by the parent would
#: vanish before the worker attaches -- ``resolve_spec_transfer`` falls
#: back to pickle there rather than crashing every chunk.
SHM_AVAILABLE = _shared_memory is not None and os.name == "posix"

#: Valid ``ExperimentConfig.spec_transfer`` values.
SPEC_TRANSFER_MODES = ("pickle", "shm")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_UINT64_MAX = 2**64 - 1

#: Range of each integer typecode the escape table guards.
_INT_RANGES = {"q": (_INT64_MIN, _INT64_MAX), "Q": (0, _UINT64_MAX)}


def resolve_spec_transfer(mode: str) -> str:
    """The transfer mode a run actually uses for *mode*.

    ``"shm"`` falls back to ``"pickle"`` automatically when
    :mod:`multiprocessing.shared_memory` is unavailable -- the config
    stays a pure description of the experiment and the fallback never
    changes results (fingerprints are bit-identical across modes).
    """
    if mode not in SPEC_TRANSFER_MODES:
        raise ValueError(
            f"unknown spec_transfer mode {mode!r}; known: {SPEC_TRANSFER_MODES}"
        )
    if mode == "shm" and not SHM_AVAILABLE:
        return "pickle"
    return mode


# ---------------------------------------------------------------------------
# Column packing helpers
# ---------------------------------------------------------------------------


class _InternTable:
    """Intern byte strings to dense indices (one table per block)."""

    __slots__ = ("_index", "entries")

    def __init__(self) -> None:
        self._index: dict[bytes, int] = {}
        self.entries: list[bytes] = []

    def add(self, entry: bytes) -> int:
        index = self._index.get(entry)
        if index is None:
            index = len(self.entries)
            self._index[entry] = index
            self.entries.append(entry)
        return index


def _pack_ints(
    values: list[int], typecode: str
) -> tuple[array, dict[int, int]]:
    """Pack ints into a fixed-width array with an escape for misfits.

    Values outside the typecode's range land in the returned
    ``{row: value}`` escape dict (the array holds 0 there), keeping the
    codec exact for arbitrary Python ints without widening the common
    case beyond 64 bits.  Real fleet chunks never overflow, so the
    common case is one C-speed array construction; the row-by-row scan
    only runs after an overflow proves an escape is needed.
    """
    try:
        return array(typecode, values), {}
    except OverflowError:
        pass
    low, high = _INT_RANGES[typecode]
    escapes: dict[int, int] = {}
    packed = array(typecode, bytes(array(typecode).itemsize * len(values)))
    for row, value in enumerate(values):
        if low <= value <= high:
            packed[row] = value
        else:
            escapes[row] = value
    return packed, escapes


def _encode_params(params: tuple[tuple[str, object], ...]) -> bytes:
    """Serialise an action's frozen parameter pairs canonically.

    JSON (compact, sorted pairs are already canonical) covers every
    value :func:`~repro.fleet.scenarios._freeze` produces from
    JSON-shaped inputs and re-freezes to the exact original on decode;
    anything JSON cannot express falls back to pickle.  The one-byte tag
    records which decoder applies.
    """
    try:
        return b"J" + json.dumps(params, separators=(",", ":")).encode()
    except (TypeError, ValueError):
        return b"P" + pickle.dumps(params, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_params(payload: bytes) -> object:
    tag, body = payload[:1], payload[1:]
    if tag == b"J":
        return json.loads(body.decode())
    if tag == b"P":
        return pickle.loads(body)
    raise ValueError(f"unknown params payload tag {tag!r}")


def _read_array(
    buf: memoryview, offset: int, typecode: str, count: int
) -> tuple[array, int]:
    values = array(typecode)
    nbytes = values.itemsize * count
    values.frombytes(buf[offset : offset + nbytes])
    return values, offset + nbytes


# ---------------------------------------------------------------------------
# Block base: schema-driven serialisation shared by specs and outcomes
# ---------------------------------------------------------------------------

#: Block wire header: magic, primary rows, secondary rows, table entries,
#: escape-blob bytes.
_HEADER = struct.Struct("<4sIIII")


class _ColumnarBlock:
    """Flat typed-array columns + interned table, (de)serialised as one blob.

    Subclasses declare ``MAGIC`` and ``SCHEMA`` -- ``(attribute,
    typecode, domain)`` triples where domain 0 columns have one entry
    per primary row (spec / outcome) and domain 1 columns one entry per
    secondary row (flattened action).  ``encode``/``decode`` are the
    subclass's job; the wire format lives here.
    """

    MAGIC: bytes = b"????"
    SCHEMA: tuple[tuple[str, str, int], ...] = ()

    def __init__(
        self,
        counts: tuple[int, int],
        columns: dict[str, array],
        table: list[bytes],
        escapes: dict[str, dict[int, int]],
    ) -> None:
        self.counts = counts
        for name, _, _ in self.SCHEMA:
            setattr(self, name, columns[name])
        self.table = table
        self.escapes = escapes
        self._str_cache: dict[int, str] = {}

    def __len__(self) -> int:
        return self.counts[0]

    def _table_str(self, index: int) -> str:
        """The interned table entry as text, decoded once per index."""
        value = self._str_cache.get(index)
        if value is None:
            value = self._str_cache[index] = self.table[index].decode()
        return value

    def to_bytes(self) -> bytes:
        """The block as one contiguous blob (the shared-memory payload)."""
        escape_blob = pickle.dumps(self.escapes) if self.escapes else b""
        lengths = array("I", [len(entry) for entry in self.table])
        parts = [
            _HEADER.pack(
                self.MAGIC,
                self.counts[0],
                self.counts[1],
                len(self.table),
                len(escape_blob),
            )
        ]
        parts.extend(getattr(self, name).tobytes() for name, _, _ in self.SCHEMA)
        parts.append(lengths.tobytes())
        parts.extend(self.table)
        parts.append(escape_blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "_ColumnarBlock":
        buf = memoryview(data)
        magic, primary, secondary, n_table, escape_len = _HEADER.unpack_from(buf)
        if magic != cls.MAGIC:
            raise ValueError(
                f"not a {cls.__name__} payload (magic {magic!r}, "
                f"expected {cls.MAGIC!r})"
            )
        counts = (primary, secondary)
        offset = _HEADER.size
        columns: dict[str, array] = {}
        for name, typecode, domain in cls.SCHEMA:
            columns[name], offset = _read_array(buf, offset, typecode, counts[domain])
        lengths, offset = _read_array(buf, offset, "I", n_table)
        table: list[bytes] = []
        for length in lengths:
            table.append(bytes(buf[offset : offset + length]))
            offset += length
        escapes = (
            pickle.loads(buf[offset : offset + escape_len]) if escape_len else {}
        )
        return cls(counts, columns, table, escapes)

    def _column_value(self, name: str, row: int) -> int:
        """One integer cell with its escape-table override applied."""
        override = self.escapes.get(name)
        if override is not None and row in override:
            return override[row]
        return getattr(self, name)[row]


# ---------------------------------------------------------------------------
# Spec blocks
# ---------------------------------------------------------------------------


class SpecBlock(_ColumnarBlock):
    """A chunk of :class:`VehicleSpec` objects as flat typed columns."""

    MAGIC = b"SPB1"
    SCHEMA = (
        ("vehicle_ids", "q", 0),
        ("seeds", "Q", 0),
        ("durations", "d", 0),
        ("scenario_idx", "I", 0),
        ("enforcement_idx", "I", 0),
        ("action_counts", "I", 0),
        ("action_times", "d", 1),
        ("action_kind_idx", "I", 1),
        ("action_params_idx", "I", 1),
    )

    @classmethod
    def encode(cls, specs: Sequence[VehicleSpec]) -> "SpecBlock":
        """Pack *specs* columnarly (``decode`` restores them exactly)."""
        table = _InternTable()
        vehicle_ids: list[int] = []
        seeds: list[int] = []
        durations = array("d")
        scenario_idx = array("I")
        enforcement_idx = array("I")
        action_counts = array("I")
        action_times = array("d")
        action_kind_idx = array("I")
        action_params_idx = array("I")
        for spec in specs:
            vehicle_ids.append(spec.vehicle_id)
            seeds.append(spec.seed)
            durations.append(spec.duration_s)
            scenario_idx.append(table.add(spec.scenario.encode()))
            enforcement_idx.append(table.add(spec.enforcement.encode()))
            action_counts.append(len(spec.actions))
            for action in spec.actions:
                action_times.append(action.time)
                action_kind_idx.append(table.add(action.kind.encode()))
                action_params_idx.append(table.add(_encode_params(action.params)))
        vehicle_column, vehicle_escapes = _pack_ints(vehicle_ids, "q")
        seed_column, seed_escapes = _pack_ints(seeds, "Q")
        escapes: dict[str, dict[int, int]] = {}
        if vehicle_escapes:
            escapes["vehicle_ids"] = vehicle_escapes
        if seed_escapes:
            escapes["seeds"] = seed_escapes
        return cls(
            (len(vehicle_ids), len(action_times)),
            {
                "vehicle_ids": vehicle_column,
                "seeds": seed_column,
                "durations": durations,
                "scenario_idx": scenario_idx,
                "enforcement_idx": enforcement_idx,
                "action_counts": action_counts,
                "action_times": action_times,
                "action_kind_idx": action_kind_idx,
                "action_params_idx": action_params_idx,
            },
            table.entries,
            escapes,
        )

    def decode(self) -> list[VehicleSpec]:
        """Rebuild the exact spec objects :meth:`encode` was given."""
        name = self._table_str
        params_cache: dict[int, object] = {}

        def params(index: int) -> object:
            value = params_cache.get(index)
            if value is None:
                value = params_cache[index] = _decode_params(self.table[index])
            return value

        specs: list[VehicleSpec] = []
        cursor = 0
        for row in range(len(self)):
            count = self.action_counts[row]
            actions = tuple(
                VehicleAction(
                    time=self.action_times[i],
                    kind=name(self.action_kind_idx[i]),
                    params=params(self.action_params_idx[i]),
                )
                for i in range(cursor, cursor + count)
            )
            cursor += count
            specs.append(
                VehicleSpec(
                    vehicle_id=self._column_value("vehicle_ids", row),
                    scenario=name(self.scenario_idx[row]),
                    enforcement=name(self.enforcement_idx[row]),
                    seed=self._column_value("seeds", row),
                    duration_s=self.durations[row],
                    actions=actions,
                )
            )
        return specs


# ---------------------------------------------------------------------------
# Outcome blocks
# ---------------------------------------------------------------------------

#: results.OUTCOME_COLUMNS kinds mapped onto array typecodes ("str"
#: columns intern into the table as "I" index arrays).
_OUTCOME_TYPECODES = {"int": "q", "count": "Q", "float": "d", "bool": "B", "str": "I"}


class OutcomeBlock(_ColumnarBlock):
    """A batch of :class:`VehicleOutcome` objects as flat typed columns."""

    MAGIC = b"OUB1"
    SCHEMA = tuple(
        (field, _OUTCOME_TYPECODES[kind], 0) for field, kind in OUTCOME_COLUMNS
    )

    @classmethod
    def encode(cls, outcomes: Sequence[VehicleOutcome]) -> "OutcomeBlock":
        """Pack *outcomes* columnarly (``decode`` restores them exactly)."""
        table = _InternTable()
        raw: dict[str, list] = {field: [] for field, _ in OUTCOME_COLUMNS}
        for outcome in outcomes:
            for field, kind in OUTCOME_COLUMNS:
                value = getattr(outcome, field)
                if kind == "str":
                    value = table.add(value.encode())
                raw[field].append(value)
        columns: dict[str, array] = {}
        escapes: dict[str, dict[int, int]] = {}
        for field, kind in OUTCOME_COLUMNS:
            typecode = _OUTCOME_TYPECODES[kind]
            if kind in ("int", "count"):
                columns[field], field_escapes = _pack_ints(raw[field], typecode)
                if field_escapes:
                    escapes[field] = field_escapes
            else:
                columns[field] = array(typecode, raw[field])
        return cls((len(outcomes), 0), columns, table.entries, escapes)

    def decode(self) -> list[VehicleOutcome]:
        """Rebuild the exact outcome objects :meth:`encode` was given."""
        name = self._table_str
        outcomes: list[VehicleOutcome] = []
        for row in range(len(self)):
            fields: dict[str, object] = {}
            for field, kind in OUTCOME_COLUMNS:
                if kind in ("int", "count"):
                    fields[field] = self._column_value(field, row)
                elif kind == "str":
                    fields[field] = name(getattr(self, field)[row])
                elif kind == "bool":
                    fields[field] = bool(getattr(self, field)[row])
                else:
                    fields[field] = getattr(self, field)[row]
            outcomes.append(VehicleOutcome(**fields))
        return outcomes


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmHandle:
    """What actually crosses the worker pipe in shm mode: a name + size."""

    name: str
    size: int


def write_block(payload: bytes) -> ShmHandle:
    """Copy an encoded block into a fresh shared-memory segment.

    The local mapping is closed immediately; the segment lives until a
    reader (normally the other process) unlinks it via
    :func:`read_block` or :func:`discard_segment`.
    """
    if _shared_memory is None:  # pragma: no cover - guarded by resolve_*
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    segment = _shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    try:
        segment.buf[: len(payload)] = payload
    finally:
        segment.close()
    registry = _obs_metrics.ACTIVE
    if registry.enabled:
        registry.inc("shm.segments_written")
        registry.inc("shm.bytes_written", len(payload))
    return ShmHandle(segment.name, len(payload))


def read_block(handle: ShmHandle, unlink: bool = True) -> bytes:
    """Copy a block out of shared memory (and, by default, unlink it)."""
    if _shared_memory is None:  # pragma: no cover - guarded by resolve_*
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    segment = _shared_memory.SharedMemory(name=handle.name)
    try:
        payload = bytes(segment.buf[: handle.size])
    finally:
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                # The other side won the unlink race; its successful
                # unlink already unregistered the name from the shared
                # resource tracker (names dedupe in a set there), so
                # swallowing without unregistering leaves no residue.
                pass
    registry = _obs_metrics.ACTIVE
    if registry.enabled:
        registry.inc("shm.segments_read")
        registry.inc("shm.bytes_read", handle.size)
    return payload


def discard_segment(name: str) -> bool:
    """Best-effort unlink of a segment whose consumer will never run.

    Returns ``True`` when this call actually unlinked the segment and
    ``False`` when it was already gone (the consumer or a racing
    discard won) -- callers that count reclaimed segments
    (``shm.segments_discarded``) only book genuine unlinks.
    """
    if _shared_memory is None:  # pragma: no cover - guarded by resolve_*
        return False
    try:
        segment = _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        return False  # unlink race lost: the winner also unregistered
    registry = _obs_metrics.ACTIVE
    if registry.enabled:
        registry.inc("shm.segments_discarded")
    return True


def shm_segment_names() -> frozenset[str]:
    """Names of the live POSIX shared-memory segments (``/dev/shm``).

    The observability hook behind the leak regression tests and the CI
    chaos job: snapshot before a run, snapshot after, and any new
    ``psm_*`` name still present is a leaked spec/outcome segment.
    Empty where shared memory is unavailable.
    """
    if not SHM_AVAILABLE:
        return frozenset()
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - /dev/shm vanished mid-run
        return frozenset()
    return frozenset(name for name in entries if name.startswith("psm_"))
