"""Campaign, overhead and fleet metrics.

Turns raw campaign results and bus traces into the numbers the
benchmarks report: attack success / mitigation rates per enforcement
configuration, per-asset breakdowns, frames blocked, and the enforcement
overhead (decision counts, accumulated decision latency, bus
utilisation).  Fleet-level results (one
:class:`~repro.fleet.results.FleetResult` per scenario) fold into
whole-fleet totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.campaign import CampaignResult
from repro.attacks.scenarios import AttackScenario
from repro.can.trace import BusTrace
from repro.core.enforcement import EnforcementCoordinator
from repro.fleet.results import FleetResult
from repro.vehicle.car import ConnectedCar


def policy_block_count(trace: BusTrace) -> int:
    """Frames blocked by a *policy engine* (either direction) on *trace*.

    Served from the trace's always-on O(1) counters, so it works -- and
    agrees exactly -- at every trace retention level, including
    ``COUNTERS`` where no record objects exist.
    """
    return trace.policy_block_count()


def filter_block_count(trace: BusTrace) -> int:
    """Frames blocked by a *software filter* (either direction) on *trace*."""
    return trace.filter_block_count()


@dataclass(frozen=True)
class AssetOutcome:
    """Attack outcomes aggregated for one asset."""

    asset: str
    scenarios: int
    succeeded: int

    @property
    def mitigated(self) -> int:
        return self.scenarios - self.succeeded

    @property
    def success_rate(self) -> float:
        if self.scenarios == 0:
            return 0.0
        return self.succeeded / self.scenarios


@dataclass
class CampaignMetrics:
    """Derived metrics for one campaign result."""

    result: CampaignResult

    @property
    def configuration(self) -> str:
        return self.result.configuration

    @property
    def attack_success_rate(self) -> float:
        return self.result.attack_success_rate

    @property
    def mitigation_rate(self) -> float:
        return self.result.mitigation_rate

    @property
    def frames_blocked(self) -> int:
        return self.result.frames_blocked

    def per_asset(self) -> list[AssetOutcome]:
        """Outcomes grouped by target asset, in first-appearance order."""
        grouped: dict[str, list[bool]] = {}
        for record in self.result.records:
            grouped.setdefault(record.scenario.target_asset, []).append(
                not record.mitigated
            )
        return [
            AssetOutcome(asset=asset, scenarios=len(successes), succeeded=sum(successes))
            for asset, successes in grouped.items()
        ]

    def per_mode(self) -> dict[str, float]:
        """Attack success rate per car mode."""
        grouped: dict[str, list[bool]] = {}
        for record in self.result.records:
            grouped.setdefault(record.scenario.mode.value, []).append(not record.mitigated)
        return {
            mode: (sum(successes) / len(successes) if successes else 0.0)
            for mode, successes in grouped.items()
        }

    def rows(self) -> list[tuple[str, str, str, str]]:
        """Per-scenario rows (threat id, asset, outcome, detail) for reporting."""
        return [
            (
                record.threat_id,
                record.scenario.target_asset,
                "mitigated" if record.mitigated else "SUCCEEDED",
                record.outcome.detail,
            )
            for record in self.result.records
        ]

    def summary(self) -> dict[str, float | int | str]:
        """Headline numbers."""
        return {
            "configuration": self.configuration,
            "scenarios": self.result.total,
            "attacks_succeeded": len(self.result.succeeded),
            "attacks_mitigated": len(self.result.mitigated),
            "attack_success_rate": round(self.attack_success_rate, 3),
            "mitigation_rate": round(self.mitigation_rate, 3),
            "frames_blocked": self.frames_blocked,
        }


@dataclass
class OverheadMetrics:
    """Enforcement overhead observed on one vehicle run."""

    frames_transmitted: int
    frames_delivered: int
    hpe_decisions: int
    hpe_blocks: int
    hpe_total_latency_s: float
    selinux_checks: int
    avc_hit_rate: float
    bus_utilisation: float
    simulated_seconds: float

    @property
    def decisions_per_frame(self) -> float:
        """Average HPE decisions evaluated per transmitted frame."""
        if self.frames_transmitted == 0:
            return 0.0
        return self.hpe_decisions / self.frames_transmitted

    @property
    def mean_decision_latency_s(self) -> float:
        """Mean per-decision latency accumulated by the HPEs."""
        if self.hpe_decisions == 0:
            return 0.0
        return self.hpe_total_latency_s / self.hpe_decisions

    @property
    def latency_overhead_ratio(self) -> float:
        """Accumulated decision latency relative to simulated time."""
        if self.simulated_seconds == 0:
            return 0.0
        return self.hpe_total_latency_s / self.simulated_seconds

    def summary(self) -> dict[str, float | int]:
        """Headline numbers."""
        return {
            "frames_transmitted": self.frames_transmitted,
            "frames_delivered": self.frames_delivered,
            "hpe_decisions": self.hpe_decisions,
            "hpe_blocks": self.hpe_blocks,
            "decisions_per_frame": round(self.decisions_per_frame, 3),
            "mean_decision_latency_ns": round(self.mean_decision_latency_s * 1e9, 3),
            "latency_overhead_ratio": self.latency_overhead_ratio,
            "selinux_checks": self.selinux_checks,
            "avc_hit_rate": round(self.avc_hit_rate, 3),
            "bus_utilisation": round(self.bus_utilisation, 4),
        }


def measure_overhead(
    car: ConnectedCar, simulated_seconds: float
) -> OverheadMetrics:
    """Collect overhead metrics from a vehicle after a simulation run.

    The vehicle may or may not carry enforcement; an unprotected car
    reports zero HPE/SELinux activity, which is the baseline the overhead
    benchmark compares against.
    """
    coordinator: EnforcementCoordinator | None = getattr(
        car, "enforcement_coordinator", None
    )
    hpe_decisions = coordinator.total_hpe_decisions() if coordinator else 0
    hpe_blocks = coordinator.total_hpe_blocks() if coordinator else 0
    hpe_latency = (
        sum(engine.total_latency_s for engine in coordinator.engines.values())
        if coordinator
        else 0.0
    )
    selinux_checks = 0
    avc_hit_rate = 0.0
    if coordinator is not None and coordinator.enforcement_point is not None:
        selinux_checks = coordinator.enforcement_point.checks_performed
        avc_hit_rate = coordinator.enforcement_point.avc.hit_rate
    return OverheadMetrics(
        frames_transmitted=car.bus.statistics.frames_transmitted,
        frames_delivered=car.bus.statistics.frames_delivered,
        hpe_decisions=hpe_decisions,
        hpe_blocks=hpe_blocks,
        hpe_total_latency_s=hpe_latency,
        selinux_checks=selinux_checks,
        avc_hit_rate=avc_hit_rate,
        bus_utilisation=car.bus.statistics.utilisation(simulated_seconds),
        simulated_seconds=simulated_seconds,
    )


# ---------------------------------------------------------------------------
# Fleet-scale metrics
# ---------------------------------------------------------------------------


def fleet_totals(results: dict[str, FleetResult]) -> dict[str, float | int]:
    """Whole-fleet totals across every scenario of a combined run.

    Throughput is recomputed from summed frames and summed wall time --
    scenario runs execute sequentially, so wall seconds add.
    """
    vehicles = sum(r.vehicles for r in results.values())
    frames = sum(r.frames_transmitted for r in results.values())
    blocked = sum(r.frames_blocked for r in results.values())
    attempted = sum(r.attacks_attempted for r in results.values())
    mitigated = sum(r.attacks_mitigated for r in results.values())
    wall = sum(r.wall_seconds for r in results.values())
    checked = frames + blocked
    return {
        "scenarios": len(results),
        "vehicles": vehicles,
        "frames_transmitted": frames,
        "frames_blocked": blocked,
        "frame_block_rate": round(blocked / checked, 4) if checked else 0.0,
        "attacks_attempted": attempted,
        "attack_mitigation_rate": round(mitigated / attempted, 4) if attempted else 0.0,
        "unhealthy_vehicles": sum(r.unhealthy_vehicles for r in results.values()),
        "wall_seconds": round(wall, 3),
        "frames_per_second": round(frames / wall, 1) if wall > 0 else 0.0,
        "vehicles_per_second": round(vehicles / wall, 2) if wall > 0 else 0.0,
    }
