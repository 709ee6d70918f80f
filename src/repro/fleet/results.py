"""Fleet results: per-vehicle outcomes and streaming aggregation.

The runner streams one :class:`VehicleOutcome` per simulated vehicle
into a :class:`FleetAggregator`; the aggregator never holds vehicle
objects, only numbers, so aggregating a 10,000-car fleet costs the same
per vehicle as a 10-car one.  The finished :class:`FleetResult` is what
benchmarks and :mod:`repro.analysis` consume.

Determinism contract: every field of :class:`VehicleOutcome` except
the timings and ``memo_hit`` is a pure function of the vehicle spec
(seed, script, enforcement), and aggregation sorts by vehicle id before
summing, so :meth:`FleetResult.fingerprint` is bit-identical for any
worker count.  Wall-clock throughput (``frames_per_second``) and the
kernel-run count are reported alongside but deliberately excluded from
the fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields


def _check_result_keys(data: dict, kind: str, allowed: tuple[str, ...]) -> None:
    """Reject unknown/missing keys with a precise error (mirrors
    ``repro.fleet.scenarios._check_keys`` for the results layer)."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {kind} key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )
    missing = sorted(set(allowed) - set(data))
    if missing:
        raise ValueError(f"missing required {kind} key(s) {missing}")


@dataclass(frozen=True)
class VehicleOutcome:
    """The deterministic outcome of one vehicle's simulated timeline."""

    vehicle_id: int
    scenario: str
    enforcement: str
    simulated_seconds: float
    frames_transmitted: int
    frames_delivered: int
    frames_blocked: int
    hpe_decisions: int
    policy_pushes: int
    attacks_attempted: int
    attacks_mitigated: int
    mean_decision_latency_s: float
    healthy: bool
    #: Wall-clock spent *simulating* this vehicle's timeline only --
    #: building (or pool-acquiring) the car is accounted separately in
    #: :attr:`build_seconds`, so throughput metrics report pure
    #: simulation time.  Neither field is part of the fingerprint.
    wall_seconds: float = 0.0
    build_seconds: float = 0.0
    #: Served by :class:`~repro.fleet.runner.OutcomeMemo` from an
    #: earlier vehicle's kernel run (timings then 0); not fingerprinted.
    memo_hit: bool = False

    def deterministic_tuple(self) -> tuple:
        """Every field that must be identical across worker counts."""
        return (
            self.vehicle_id,
            self.scenario,
            self.enforcement,
            repr(self.simulated_seconds),
            self.frames_transmitted,
            self.frames_delivered,
            self.frames_blocked,
            self.hpe_decisions,
            self.policy_pushes,
            self.attacks_attempted,
            self.attacks_mitigated,
            repr(self.mean_decision_latency_s),
            self.healthy,
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`).

        Exact: floats serialise through ``json`` as shortest
        round-tripping ``repr``, so ``from_dict(json round trip)``
        rebuilds an outcome whose :meth:`deterministic_tuple` -- and
        therefore any fingerprint folded from it -- is bit-identical.
        The NDJSON wire format of the experiment service is one such
        dict per line.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "VehicleOutcome":
        """Rebuild an outcome serialised by :meth:`to_dict` (strict keys)."""
        _check_result_keys(
            data, "VehicleOutcome", tuple(f.name for f in fields(cls))
        )
        return cls(**data)


#: Columnar layout of :class:`VehicleOutcome` shared with
#: :mod:`repro.fleet.transfer`: every field with its column kind, in
#: declaration order.  ``int`` columns are signed 64-bit, ``count``
#: unsigned 64-bit (both with an escape for misfits), ``float`` IEEE-754
#: doubles (exact), ``bool`` one byte, ``str`` an interned-table index.
#: Kept next to the dataclass so adding a field and forgetting the
#: transfer schema is caught by the coverage test, not by silent loss.
OUTCOME_COLUMNS: tuple[tuple[str, str], ...] = (
    ("vehicle_id", "int"),
    ("scenario", "str"),
    ("enforcement", "str"),
    ("simulated_seconds", "float"),
    ("frames_transmitted", "count"),
    ("frames_delivered", "count"),
    ("frames_blocked", "count"),
    ("hpe_decisions", "count"),
    ("policy_pushes", "count"),
    ("attacks_attempted", "count"),
    ("attacks_mitigated", "count"),
    ("mean_decision_latency_s", "float"),
    ("healthy", "bool"),
    ("wall_seconds", "float"),
    ("build_seconds", "float"),
    ("memo_hit", "bool"),
)


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class FleetResult:
    """Aggregate metrics for one fleet run."""

    scenario: str
    vehicles: int = 0
    #: Vehicles whose outcome came from a kernel run rather than the
    #: outcome memo (not part of the fingerprint).
    kernel_runs: int = 0
    frames_transmitted: int = 0
    frames_delivered: int = 0
    frames_blocked: int = 0
    hpe_decisions: int = 0
    policy_pushes: int = 0
    attacks_attempted: int = 0
    attacks_mitigated: int = 0
    unhealthy_vehicles: int = 0
    simulated_vehicle_seconds: float = 0.0
    #: Summed per-vehicle wall-clock split: pure simulation time versus
    #: car construction/pool-acquisition time (see
    #: :attr:`VehicleOutcome.build_seconds`).
    simulation_wall_seconds: float = 0.0
    build_wall_seconds: float = 0.0
    #: Percentiles *across vehicles* of each vehicle's mean enforcement
    #: decision latency -- they locate slow vehicles in the fleet, not
    #: the per-decision tail (individual decision samples are not
    #: retained at fleet scale).
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    enforcement_mix: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds for the whole run (set by the runner; not part
    #: of the determinism fingerprint).
    wall_seconds: float = 0.0
    _fingerprint: str = ""

    # -- derived metrics ------------------------------------------------------

    @property
    def frame_block_rate(self) -> float:
        """Fraction of policy-checked frames the enforcement layer blocked."""
        seen = self.frames_transmitted + self.frames_blocked
        return self.frames_blocked / seen if seen else 0.0

    @property
    def attack_mitigation_rate(self) -> float:
        """Fraction of launched attacks whose objective was prevented."""
        if self.attacks_attempted == 0:
            return 0.0
        return self.attacks_mitigated / self.attacks_attempted

    @property
    def frames_per_second(self) -> float:
        """Fleet throughput: transmitted frames per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.frames_transmitted / self.wall_seconds

    @property
    def vehicles_per_second(self) -> float:
        """Fleet throughput: simulated vehicles per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.vehicles / self.wall_seconds

    @property
    def sim_vehicles_per_second(self) -> float:
        """Kernel runs per second of *pure simulation* wall-clock.

        Excludes car construction / pool acquisition (the
        ``build_wall_seconds`` share), so it isolates the data-path cost
        from the vehicle-lifecycle cost.  Memo hits took no simulation
        time, so they are not counted as simulated vehicles either.
        """
        if self.simulation_wall_seconds <= 0.0:
            return 0.0
        return self.kernel_runs / self.simulation_wall_seconds

    @property
    def build_fraction(self) -> float:
        """Share of per-vehicle wall-clock spent building cars (0.0 when unknown)."""
        total = self.simulation_wall_seconds + self.build_wall_seconds
        return self.build_wall_seconds / total if total > 0 else 0.0

    def fingerprint(self) -> str:
        """SHA-256 over every deterministic per-vehicle outcome.

        Two runs of the same scenario, seed and fleet size produce the
        same fingerprint regardless of worker count or chunking.
        """
        return self._fingerprint

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`).

        Exact by construction: ints stay ints, floats serialise as their
        shortest round-tripping ``repr`` (the ``json`` module's float
        form), the enforcement mix is a plain name->count object and the
        fingerprint rides along verbatim -- so a result that crosses the
        experiment service's SQLite store or HTTP boundary comes back
        bit-identical, fingerprint included.
        """
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("enforcement_mix", "_fingerprint")
        }
        data["enforcement_mix"] = dict(self.enforcement_mix)
        data["fingerprint"] = self._fingerprint
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FleetResult":
        """Rebuild a result serialised by :meth:`to_dict` (strict keys).

        Results stored before ``kernel_runs`` existed read it as
        ``vehicles`` -- what their ``sim_vehicles_per_second`` assumed.
        """
        payload = dict(data)
        if "kernel_runs" not in payload and "vehicles" in payload:
            payload["kernel_runs"] = payload["vehicles"]
        allowed = tuple(
            f.name for f in fields(cls) if f.name != "_fingerprint"
        ) + ("fingerprint",)
        _check_result_keys(payload, "FleetResult", allowed)
        fingerprint = payload.pop("fingerprint")
        payload["enforcement_mix"] = dict(payload.get("enforcement_mix", {}))
        return cls(_fingerprint=fingerprint, **payload)

    def summary(self) -> dict[str, float | int | str]:
        """Headline numbers for reports and benchmarks."""
        return {
            "scenario": self.scenario,
            "vehicles": self.vehicles,
            "kernel_runs": self.kernel_runs,
            "frames_transmitted": self.frames_transmitted,
            "frames_blocked": self.frames_blocked,
            "frame_block_rate": round(self.frame_block_rate, 4),
            "attacks_attempted": self.attacks_attempted,
            "attack_mitigation_rate": round(self.attack_mitigation_rate, 4),
            "vehicle_mean_latency_p50_ns": round(self.latency_p50_s * 1e9, 3),
            "vehicle_mean_latency_p95_ns": round(self.latency_p95_s * 1e9, 3),
            "vehicle_mean_latency_p99_ns": round(self.latency_p99_s * 1e9, 3),
            "unhealthy_vehicles": self.unhealthy_vehicles,
            "frames_per_second": round(self.frames_per_second, 1),
            "vehicles_per_second": round(self.vehicles_per_second, 2),
            "sim_vehicles_per_second": round(self.sim_vehicles_per_second, 2),
            "build_fraction": round(self.build_fraction, 4),
            "fingerprint": self._fingerprint[:16],
        }


class StreamingFleetAggregator:
    """Fold outcomes arriving in vehicle-id order without retaining them.

    The batch :class:`FleetAggregator` keeps every outcome so it can
    sort by vehicle id before folding.  When the caller can already
    guarantee id order -- the :class:`~repro.api.session.FleetSession`
    streaming path reassembles worker chunks in submission order -- the
    same fold runs one outcome at a time: sums, the enforcement mix,
    the SHA-256 fingerprint and the per-vehicle latency sample are
    updated incrementally and the outcome object is released to the
    caller.  Memory is O(1) in fleet size apart from one float per
    vehicle (the latency sample the percentiles need).

    Folding here in id order is *exactly* the loop the batch aggregator
    runs after sorting, so the finished :class:`FleetResult` -- float
    sums, percentiles and fingerprint included -- is bit-identical to
    the batch path (:meth:`FleetAggregator.result` is itself implemented
    on top of this class).
    """

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self._result = FleetResult(scenario=scenario)
        self._digest = hashlib.sha256()
        self._latencies: list[float] = []
        self._last_vehicle_id: int | None = None
        self._finalised = False

    @property
    def count(self) -> int:
        """Outcomes folded so far."""
        return self._result.vehicles

    def add(self, outcome: VehicleOutcome) -> None:
        """Fold one outcome (vehicle ids must arrive in non-decreasing order)."""
        if self._finalised:
            raise RuntimeError("aggregator already finalised by result()")
        if (
            self._last_vehicle_id is not None
            and outcome.vehicle_id < self._last_vehicle_id
        ):
            raise ValueError(
                f"outcomes must stream in vehicle-id order: got vehicle "
                f"{outcome.vehicle_id} after {self._last_vehicle_id}"
            )
        self._last_vehicle_id = outcome.vehicle_id
        result = self._result
        result.vehicles += 1
        result.kernel_runs += not outcome.memo_hit
        result.frames_transmitted += outcome.frames_transmitted
        result.frames_delivered += outcome.frames_delivered
        result.frames_blocked += outcome.frames_blocked
        result.hpe_decisions += outcome.hpe_decisions
        result.policy_pushes += outcome.policy_pushes
        result.attacks_attempted += outcome.attacks_attempted
        result.attacks_mitigated += outcome.attacks_mitigated
        result.simulated_vehicle_seconds += outcome.simulated_seconds
        result.simulation_wall_seconds += outcome.wall_seconds
        result.build_wall_seconds += outcome.build_seconds
        if not outcome.healthy:
            result.unhealthy_vehicles += 1
        result.enforcement_mix[outcome.enforcement] = (
            result.enforcement_mix.get(outcome.enforcement, 0) + 1
        )
        self._latencies.append(outcome.mean_decision_latency_s)
        self._digest.update(repr(outcome.deterministic_tuple()).encode())

    def result(self, wall_seconds: float = 0.0) -> FleetResult:
        """Finalise and return the aggregate (no further adds afterwards)."""
        self._finalised = True
        result = self._result
        result.wall_seconds = wall_seconds
        self._latencies.sort()
        result.latency_p50_s = _percentile(self._latencies, 0.50)
        result.latency_p95_s = _percentile(self._latencies, 0.95)
        result.latency_p99_s = _percentile(self._latencies, 0.99)
        result._fingerprint = self._digest.hexdigest()
        return result


class FleetAggregator:
    """Stream per-vehicle outcomes into a :class:`FleetResult`.

    Outcomes may arrive in any order (workers finish when they finish);
    :meth:`result` sorts by vehicle id before folding, which makes every
    aggregate -- including float sums and the fingerprint -- independent
    of arrival order.  Callers that can guarantee id order should use
    :class:`StreamingFleetAggregator` directly and skip the retained
    outcome list.
    """

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self._outcomes: list[VehicleOutcome] = []

    def add(self, outcome: VehicleOutcome) -> None:
        """Record one vehicle's outcome."""
        self._outcomes.append(outcome)

    def extend(self, outcomes: list[VehicleOutcome]) -> None:
        """Record a batch of outcomes (one worker chunk)."""
        self._outcomes.extend(outcomes)

    @property
    def count(self) -> int:
        """Outcomes recorded so far."""
        return len(self._outcomes)

    def outcomes(self) -> list[VehicleOutcome]:
        """All recorded outcomes, sorted by vehicle id."""
        return sorted(self._outcomes, key=lambda o: o.vehicle_id)

    def result(self, wall_seconds: float = 0.0) -> FleetResult:
        """Fold every recorded outcome into the aggregate result."""
        stream = StreamingFleetAggregator(self.scenario)
        for outcome in self.outcomes():
            stream.add(outcome)
        return stream.result(wall_seconds=wall_seconds)
