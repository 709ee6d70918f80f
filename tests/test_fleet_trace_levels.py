"""Fleet-level equivalence across trace retention levels.

The fleet fingerprint covers every deterministic per-vehicle field; the
contract is that the trace retention level and the bounded inbox change
only where time and memory go, never what the simulation computes.  The
outcome memo relies on the inbox half: its key leaves ``inbox_limit``
out.
"""

import pytest

from repro.api import ExperimentConfig, FleetSession
from repro.can.trace import TraceLevel
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT, simulate_vehicle
from repro.fleet.scenarios import (
    ENFORCEMENT_LABELS,
    VehicleAction,
    VehicleSpec,
    registered_scenarios,
)

SEED = 77
VEHICLES = 6

#: Inbox bounds from "keep one frame" to "keep everything".
INBOX_LIMITS = (1, 8, DEFAULT_FLEET_INBOX_LIMIT, None)


def _run(scenario, **execution):
    config = ExperimentConfig(scenario=scenario, vehicles=VEHICLES, seed=SEED, **execution)
    with FleetSession(config) as session:
        return session.run()


@pytest.mark.parametrize("scenario", ["fleet_replay_storm", "mixed_ev_dos"])
def test_fleet_fingerprint_identical_across_trace_levels(scenario):
    results = {}
    for level in TraceLevel:
        results[level] = _run(scenario, workers=1, trace_level=level)
    fingerprints = {r.fingerprint() for r in results.values()}
    assert len(fingerprints) == 1
    reference = results[TraceLevel.FULL]
    for result in results.values():
        assert result.frames_transmitted == reference.frames_transmitted
        assert result.frames_blocked == reference.frames_blocked
        assert result.attacks_attempted == reference.attacks_attempted
        assert result.attacks_mitigated == reference.attacks_mitigated
        assert result.latency_p50_s == reference.latency_p50_s
        assert result.latency_p99_s == reference.latency_p99_s


def test_config_accepts_string_trace_level():
    config = ExperimentConfig(scenario="baseline_cruise", vehicles=1, trace_level="ring")
    assert config.trace_level is TraceLevel.RING
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="baseline_cruise", vehicles=1, trace_level="verbose")


_DRIVE = VehicleAction(0.0, "drive", {"accel": 60})

#: One script per fleet action kind (every Table I attack, replay with
#: and without a message filter, each targeted-DoS target), most behind
#: a drive so the bus carries traffic while the action runs.
INBOX_PROBES = {
    **{
        f"attack-T{n:02d}": (_DRIVE, VehicleAction(0.05, "attack", {"threat_id": f"T{n:02d}"}))
        for n in range(1, 17)
    },
    "replay-filtered": (
        VehicleAction(
            0.02, "replay", {"capture_duration_s": 0.05, "messages": ("DOOR_UNLOCK_CMD",)}
        ),
    ),
    "replay-unfiltered": (
        _DRIVE, VehicleAction(0.02, "replay", {"capture_duration_s": 0.05})
    ),
    "flood": (
        _DRIVE, VehicleAction(0.05, "flood", {"frames": 30, "window_s": 0.05, "flood_id": 0})
    ),
    **{
        f"targeted_dos-{target}": (
            _DRIVE,
            VehicleAction(0.05, "targeted_dos", {"target": target, "repetitions": 2}),
        )
        for target in ("EV-ECU", "Engine", "EPS")
    },
    "fuzz": (_DRIVE, VehicleAction(0.05, "fuzz", {"frames": 40})),
    "policy_update": (_DRIVE, VehicleAction(0.05, "policy_update", {})),
    "drive": (_DRIVE,),
    "park_and_arm": (VehicleAction(0.0, "park_and_arm", {}),),
}


@pytest.mark.parametrize("probe", sorted(INBOX_PROBES))
def test_simulate_vehicle_inbox_limit_does_not_change_outcome(builder, probe):
    for enforcement in ENFORCEMENT_LABELS:
        spec = VehicleSpec(
            vehicle_id=0,
            scenario="inbox-probe",
            enforcement=enforcement,
            seed=SEED,
            duration_s=0.2,
            actions=INBOX_PROBES[probe],
        )
        rows = {
            simulate_vehicle(spec, builder, inbox_limit=limit).deterministic_tuple()
            for limit in INBOX_LIMITS
        }
        full = simulate_vehicle(spec, builder, trace_level="full", inbox_limit=None)
        rows.add(full.deterministic_tuple())
        assert len(rows) == 1, (probe, enforcement)


@pytest.mark.parametrize("scenario", [s.name for s in registered_scenarios()])
def test_fleet_fingerprint_identical_across_inbox_limits(scenario):
    # A fresh session per bound: one session would serve every run after
    # the first from its memo, whose key leaves the bound out.
    fingerprints = {_run(scenario, inbox_limit=limit).fingerprint() for limit in INBOX_LIMITS}
    assert len(fingerprints) == 1
