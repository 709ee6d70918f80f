"""One vehicle's outcome is the same at every inbox bound and trace level.

A fleet runs either the fast path (counters-only traces, inboxes bounded
at :data:`~repro.fleet.runner.DEFAULT_FLEET_INBOX_LIMIT`) or the
reference path (full traces, unbounded inboxes); the execution-plan
property in ``test_fleet_memo.py`` holds the two to one fingerprint.
This probe holds :func:`~repro.fleet.runner.simulate_vehicle`'s own
knobs to one outcome over every fleet action kind, which the outcome
memo relies on: its key leaves the inbox bound out.
"""

import pytest

from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT, simulate_vehicle
from repro.fleet.scenarios import ENFORCEMENT_LABELS, VehicleAction, VehicleSpec

SEED = 77

#: Inbox bounds from "keep one frame" to "keep everything".
INBOX_LIMITS = (1, 8, DEFAULT_FLEET_INBOX_LIMIT, None)


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
