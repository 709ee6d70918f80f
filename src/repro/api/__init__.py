"""The canonical public surface for fleet experiments.

Everything a fleet experiment needs comes through three names:

* :class:`~repro.api.config.ExperimentConfig` -- one frozen, validated,
  JSON-round-trippable value capturing scenario, fleet size, seed,
  enforcement override, trace retention, worker count and the
  pool/compiled toggles, with named presets (``debug`` / ``throughput``
  / ``faithful``).
* :class:`~repro.api.session.FleetSession` -- the façade owning the
  builder, car pools and worker processes: ``run()`` for the aggregate,
  ``iter_outcomes()`` to stream per-vehicle outcomes in id order with
  bounded memory, ``run_matrix()`` for sweeps sharing warm pools.
* ``python -m repro`` (:mod:`repro.api.cli`) -- the same config objects
  driven from the shell, so scripted and interactive runs reproduce the
  same fleet fingerprints.

The legacy :class:`~repro.fleet.runner.FleetRunner` survives as a thin
deprecation shim over this layer.
"""

from repro.api.config import PRESETS, ExperimentConfig
from repro.api.session import FleetSession, run_experiment
from repro.fleet.resilience import ChunkFailedError, FaultPlan, RetryPolicy

__all__ = [
    "PRESETS",
    "ChunkFailedError",
    "ExperimentConfig",
    "FaultPlan",
    "FleetSession",
    "RetryPolicy",
    "run_experiment",
]
