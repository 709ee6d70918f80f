"""The canonical public surface for fleet experiments.

Everything a fleet experiment needs comes through three names:

* :class:`~repro.api.config.ExperimentConfig` -- one frozen, validated,
  JSON-round-trippable value: the six experiment fields that decide the
  fleet fingerprint and the config hash (scenario, scenario parameters,
  fleet size, seed, first vehicle id, enforcement override) plus the
  execution settings (the fast or the ``reference`` path, workers,
  chunking, transfer, resilience), with named presets (``throughput`` /
  ``faithful``) of those settings.
* :class:`~repro.api.session.FleetSession` -- the façade owning the
  builder, car pools and worker processes: ``run()`` for the aggregate,
  ``iter_outcomes()`` to stream per-vehicle outcomes in id order with
  bounded memory, ``run_matrix()`` for sweeps sharing warm pools.
* ``python -m repro`` (:mod:`repro.api.cli`) -- the same config objects
  driven from the shell, so scripted and interactive runs reproduce the
  same fleet fingerprints.
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
