"""Experiment-API quickstart: config -> session -> streamed outcomes -> CLI.

The ``repro.api`` layer makes every fleet experiment a pure function of
one declarative :class:`~repro.api.config.ExperimentConfig`.  This
walk-through builds a config, runs it through a
:class:`~repro.api.session.FleetSession`, streams per-vehicle outcomes
with bounded memory, round-trips the config through JSON, and prints the
``python -m repro`` command that reproduces the identical fleet
fingerprint from the shell.

Run with::

    python examples/experiment_api.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentConfig, FleetSession

SCENARIO = "fleet_replay_storm"
VEHICLES = 300
SEED = 2018


def main() -> None:
    # 1. One frozen config captures the whole experiment.  Two presets
    #    bundle the execution settings: throughput() (the fast path on
    #    4 workers) and faithful() (reference=True: full traces, fresh
    #    cars, the object decision path, every vehicle simulated).  Both
    #    produce the same fleet fingerprint.
    config = ExperimentConfig.throughput(SCENARIO, VEHICLES, seed=SEED, workers=2)
    print("== Experiment config ==")
    print(config.to_json())
    print()

    # 2. Stream the fleet: iter_outcomes() yields one VehicleOutcome at a
    #    time, in vehicle-id order, as worker chunks complete -- the full
    #    outcome list is never materialised, so memory stays flat at
    #    100k+ vehicles.
    print("== Streaming outcomes ==")
    blocked = 0
    with FleetSession(config) as session:
        for outcome in session.iter_outcomes():
            blocked += outcome.frames_blocked
            if outcome.vehicle_id % 100 == 0:
                print(
                    f"  vehicle {outcome.vehicle_id:>4} ({outcome.enforcement:<12}) "
                    f"frames={outcome.frames_transmitted:<4} "
                    f"blocked so far={blocked}"
                )
        result = session.last_result
    print()

    # 3. The finished aggregate is bit-identical to a batch run() -- and
    #    to the same config at any worker count.
    print("== Fleet aggregate ==")
    for key, value in result.summary().items():
        print(f"  {key:>24}: {value}")
    print()

    # 4. Configs round-trip through JSON, so experiments are data you can
    #    store, diff and replay -- exactly the paper's "policy is data"
    #    argument, applied to the evaluation itself.
    replayed = ExperimentConfig.from_json(config.to_json())
    assert replayed == config
    print("JSON round trip: config == from_json(to_json(config))")
    print()

    # 5. The same config drives the shell entry point; this command
    #    prints the same fingerprint as the run above.
    print("Reproduce from the shell (identical fingerprint):")
    print(f"  {config.cli_command()}")
    print(f"  fingerprint: {result.fingerprint()}")


if __name__ == "__main__":
    main()
