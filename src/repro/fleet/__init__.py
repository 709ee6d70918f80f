"""Fleet-scale simulation of policy-enforced connected cars.

The single-vehicle layers (``vehicle/``, ``core/``, ``attacks/``)
simulate one car at a time; this package scales the same machinery to
thousands of vehicles in one call:

* :mod:`repro.fleet.kernel` -- a deterministic discrete-event kernel
  with seeded, named RNG streams, so a vehicle's timeline is a pure
  function of its seed.
* :mod:`repro.fleet.scenarios` -- a registry of named, parameterised
  fleet workloads (``fleet_replay_storm``, ``staggered_ota_rollout``,
  ``mixed_ev_dos``, ...) composing the existing attack primitives, car
  modes and policy-update events into per-vehicle action scripts.
  Register permanently with :func:`register_scenario` (also usable as a
  decorator on a script factory) or for one ``with`` block via
  :func:`temporary_scenario`.
* :mod:`repro.fleet.runner` -- :func:`simulate_vehicle` (one spec to one
  outcome), the bounded :class:`OutcomeMemo` that simulates each
  distinct behaviour key once in counters-mode runs (``fuzz`` specs key
  on their seed too), plus the per-process worker plumbing.
  Orchestrate through :class:`repro.api.FleetSession` with an
  :class:`repro.api.ExperimentConfig`.
* :mod:`repro.fleet.transfer` -- columnar :class:`SpecBlock` /
  :class:`OutcomeBlock` codecs and the shared-memory transport that
  moves chunks between parent and workers with only ``(name, size)``
  handles on the pipe.
* :mod:`repro.fleet.results` -- aggregation of per-vehicle outcomes into
  fleet metrics (block rates, enforcement latency percentiles,
  frames/sec, kernel runs versus memo hits) with a determinism
  fingerprint; the streaming variant folds in vehicle-id order without
  retaining outcomes.
* :mod:`repro.fleet.resilience` -- fault tolerance for the parallel
  path: deterministic retry backoff (:class:`RetryPolicy`), the
  shm->pickle->inline degradation ladder (:class:`CircuitBreaker`) and
  the seeded fault-injection harness (:class:`FaultPlan`).  Chunks are
  pure functions of their specs, so recovery never moves a fingerprint
  bit.

Aggregates are bit-identical for any worker count at the same seed.
"""

from repro.fleet.kernel import FleetKernel
from repro.fleet.resilience import (
    ChunkFailedError,
    CircuitBreaker,
    FaultEvent,
    FaultPlan,
    FleetExecutionError,
    InjectedFaultError,
    RetryPolicy,
)
from repro.fleet.results import (
    FleetAggregator,
    FleetResult,
    StreamingFleetAggregator,
    VehicleOutcome,
)
from repro.fleet.runner import OutcomeMemo, VehicleSpec, simulate_vehicle
from repro.fleet.transfer import OutcomeBlock, ShmHandle, SpecBlock
from repro.fleet.scenarios import (
    FleetScenario,
    VehicleAction,
    get_scenario,
    register_scenario,
    registered_scenarios,
    temporary_scenario,
    unregister_scenario,
)

__all__ = [
    "ChunkFailedError",
    "CircuitBreaker",
    "FaultEvent",
    "FaultPlan",
    "FleetAggregator",
    "FleetExecutionError",
    "FleetKernel",
    "FleetResult",
    "FleetScenario",
    "InjectedFaultError",
    "OutcomeBlock",
    "OutcomeMemo",
    "RetryPolicy",
    "ShmHandle",
    "SpecBlock",
    "StreamingFleetAggregator",
    "VehicleAction",
    "VehicleOutcome",
    "VehicleSpec",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "simulate_vehicle",
    "temporary_scenario",
    "unregister_scenario",
]
