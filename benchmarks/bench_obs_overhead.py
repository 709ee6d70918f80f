"""Experiment ``obs-overhead``: telemetry must be (nearly) free when off.

The telemetry design promise is that disabled-mode instrumentation
costs one module-attribute load and a predictable branch per call site
(:mod:`repro.obs.metrics`).  This experiment measures that promise on
the fleet hot path, three ways, interleaved round-robin so machine
drift hits every mode equally:

* **stripped** -- the instrumented call sites monkeypatched back to
  pristine recreations with no telemetry code at all (the honest
  pre-obs baseline);
* **disabled** -- the shipped code with telemetry off (the default);
* **enabled** -- a telemetry session collecting everything.

Disabled vs stripped is the headline number: the acceptance target is
<= 3% overhead, asserted against a generous floor for noisy shared
runners.  Every mode must produce the same fleet fingerprint --
telemetry changes where time goes, never what the fleet computes.
"""

from __future__ import annotations

import os
import time

from contextlib import contextmanager

from repro.api import ExperimentConfig, FleetSession
from repro.can.trace import TraceLevel
from repro.casestudy.builder import CarPool

SCENARIO = "fleet_replay_storm"
VEHICLES = int(os.environ.get("BENCH_OBS_VEHICLES", "240"))
WARMUP_VEHICLES = 8
ROUNDS = 3
SEED = 2018

#: The design target, printed for the record: disabled-mode telemetry
#: costs <= 3% single-worker throughput versus physically stripped
#: instrumentation (measured ~0-1% on the development host).
TARGET_OVERHEAD_PCT = 3.0

#: What CI actually asserts: a generous ceiling with headroom for noisy
#: shared runners.  A real regression -- e.g. instrumentation doing
#: work without checking ``enabled`` -- shows up far above this.
MAX_ASSERTED_OVERHEAD_PCT = 10.0


# ---------------------------------------------------------------------------
# Stripped-instrumentation recreation (the pre-obs call sites)
# ---------------------------------------------------------------------------


def _stripped_acquire(
    self,
    config=None,
    start_periodic_traffic: bool = True,
    trace_level=TraceLevel.COUNTERS,
    inbox_limit=None,
):
    trace_level = TraceLevel.coerce(trace_level)
    key = (config, start_periodic_traffic, trace_level, inbox_limit)
    car = self._cars.get(key)
    if car is None:
        car = self.builder.build_car(
            config,
            start_periodic_traffic=start_periodic_traffic,
            trace_level=trace_level,
            inbox_limit=inbox_limit,
        )
        self._cars[key] = car
        self.builds += 1
    else:
        car.reset()
        self.reuses += 1
    return car


@contextmanager
def stripped_instrumentation():
    """Swap the per-vehicle instrumented call sites for pristine copies.

    Covers the call sites on the single-worker hot path that run per
    vehicle (pool acquisition).  The remaining disabled-mode cost --
    the ``ACTIVE``-registry attribute load and ``enabled`` branch in
    :func:`repro.fleet.runner.simulate_vehicle` and the session loop --
    is part of what the disabled mode is measured *with*, so the
    comparison charges telemetry for every branch it left behind.
    """
    original = CarPool.__dict__["acquire"]
    CarPool.acquire = _stripped_acquire
    try:
        yield
    finally:
        CarPool.acquire = original


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------


def _config(fleet_size: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=SCENARIO, vehicles=fleet_size, seed=seed, workers=1
    )


def _measure(telemetry: bool):
    """One single-worker timed run; returns (result, vehicles/sec)."""
    with FleetSession(_config(WARMUP_VEHICLES, 1), telemetry=telemetry) as session:
        session.run()
        start = time.perf_counter()
        (_, result), = session.run_matrix([_config(VEHICLES, SEED)])
        elapsed = time.perf_counter() - start
    return result, VEHICLES / elapsed


def test_bench_obs_overhead():
    """Disabled-mode telemetry costs <= 3% (asserted generously) on the hot path."""
    vps = {"stripped": 0.0, "disabled": 0.0, "enabled": 0.0}
    fingerprints = {}
    # Interleave modes round-robin and keep each mode's best round, so
    # one background hiccup cannot penalise a single mode.
    for _ in range(ROUNDS):
        with stripped_instrumentation():
            result, rate = _measure(telemetry=False)
        fingerprints["stripped"] = result.fingerprint()
        vps["stripped"] = max(vps["stripped"], rate)

        result, rate = _measure(telemetry=False)
        fingerprints["disabled"] = result.fingerprint()
        vps["disabled"] = max(vps["disabled"], rate)

        result, rate = _measure(telemetry=True)
        fingerprints["enabled"] = result.fingerprint()
        vps["enabled"] = max(vps["enabled"], rate)

    assert fingerprints["disabled"] == fingerprints["stripped"]
    assert fingerprints["enabled"] == fingerprints["stripped"]

    disabled_overhead = 100.0 * (1.0 - vps["disabled"] / vps["stripped"])
    enabled_overhead = 100.0 * (1.0 - vps["enabled"] / vps["stripped"])

    print(f"\n=== telemetry overhead ({SCENARIO}, {VEHICLES} vehicles, 1 worker) ===")
    for mode in ("stripped", "disabled", "enabled"):
        print(f"{mode:10s} {vps[mode]:8.1f} veh/s")
    print(
        f"disabled-mode overhead: {disabled_overhead:+.2f}% "
        f"(target <= {TARGET_OVERHEAD_PCT}%, asserted ceiling "
        f"{MAX_ASSERTED_OVERHEAD_PCT}%)"
    )
    print(f"enabled-mode overhead : {enabled_overhead:+.2f}%")

    assert disabled_overhead <= MAX_ASSERTED_OVERHEAD_PCT


def test_obs_enabled_fingerprint_equality_parallel():
    """Telemetry on vs off fingerprints also match through worker pools."""
    config = ExperimentConfig(
        scenario=SCENARIO, vehicles=32, seed=SEED, workers=2
    )
    with FleetSession(config, telemetry=True) as session:
        enabled = session.run().fingerprint()
        snapshot = session.metrics_snapshot()
    with FleetSession(config) as session:
        disabled = session.run().fingerprint()
    assert enabled == disabled
    assert snapshot.counter("vehicles.simulated") == 32
