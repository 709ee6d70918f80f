"""One experiment process of the fleet ledger (started by ``run.py``).

Every process is a fresh interpreter that sets up a
:class:`~repro.api.session.FleetSession` the way ``python -m repro fleet
run`` does -- imports, policy derivation, worker-pool start (triggered by
a small warm-up fleet) -- and then runs the workload's fleet for its
``--seed`` once, in one of four modes:

``timed``      tracing off; reports set-up time, fleet wall time and the
               peak resident memory of the process and its workers.
``traced``     the layer tracer installed; reports the per-layer split.
``memory``     the parent under ``tracemalloc``; reports its peak.
``reference``  the ``ExperimentConfig.faithful()`` preset of the same
               fleet; reports the fingerprint every other mode must match.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import sys
import time
import tracemalloc

import workloads
from tracer import Tracer
from workloads import Workload, monotonic


def fleet_config(workload: Workload, seed: int):
    from repro.api import ExperimentConfig

    return ExperimentConfig(
        scenario=workload.scenario,
        vehicles=workload.vehicles,
        seed=seed,
        workers=workload.workers,
    )


def start_session(workload: Workload, seed: int, telemetry: bool = False):
    """Open the session and start its worker pool with the warm-up fleet."""
    from repro.api import ExperimentConfig, FleetSession

    session = FleetSession(fleet_config(workload, seed), telemetry=telemetry)
    warmup = ExperimentConfig(
        scenario=workloads.WARMUP_SCENARIO,
        vehicles=workloads.WARMUP_VEHICLES,
        seed=workloads.WARMUP_SEED,
        workers=workload.workers,
    )
    return session, session.run_config(warmup).fingerprint()


def run_fleet(session, workload: Workload, seed: int) -> dict:
    """Run the fleet once; wall time spans the call that yields the result."""
    config = fleet_config(workload, seed)
    start = time.perf_counter()
    try:
        result = session.run_config(config)
    except Exception as error:  # reported as a failed fleet, not a crash
        return {"error": f"{type(error).__name__}: {error}",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "fingerprint": result.fingerprint(),
        "frames_transmitted": result.frames_transmitted,
        "frames_delivered": result.frames_delivered,
        "hpe_decisions": result.hpe_decisions,
        "vehicles": result.vehicles,
    }


def peak_rss_mib() -> float:
    """VmHWM of this process plus every live worker process, in MiB."""
    total_kib = 0
    for pid in [os.getpid()] + [child.pid for child in multiprocessing.active_children()]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def timed(workload: Workload, seed: int, spawned_at: float) -> dict:
    session, warmup = start_session(workload, seed)
    setup_s = monotonic() - spawned_at
    with session:
        fleet = run_fleet(session, workload, seed)
        fleet["peak_rss_mb"] = peak_rss_mib()
    return {"setup_s": setup_s, "warmup_fingerprint": warmup, **fleet}


def memory(workload: Workload, seed: int) -> dict:
    # Tracing starts after the warm-up forked the pool, so workers
    # do not inherit tracemalloc; only the parent's allocations count.
    session, warmup = start_session(workload, seed)
    with session:
        tracemalloc.start()
        try:
            fleet = run_fleet(session, workload, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return {"warmup_fingerprint": warmup, "parent_peak_mb": peak / 2**20, **fleet}


def reference(workload: Workload, seed: int) -> dict:
    from repro.api import ExperimentConfig, FleetSession

    config = ExperimentConfig.faithful(
        workload.scenario,
        workload.vehicles,
        seed=seed,
        workers=min(2, os.cpu_count() or 1),
    )
    with FleetSession(config) as session:
        return {"fingerprint": session.run().fingerprint()}


def _histogram_sum(before, after, name: str) -> tuple[float, int]:
    new, old = after.histogram(name), before.histogram(name)
    total = (new.sum if new else 0.0) - (old.sum if old else 0.0)
    count = (new.count if new else 0) - (old.count if old else 0)
    return total, count


def traced(workload: Workload, seed: int, trace_path: str) -> dict:
    tracer = Tracer()
    parallel = workload.workers > 1
    if not parallel:
        # Inline runs build their cars in this process: wrap first.
        tracer.install()
    session, warmup = start_session(workload, seed, telemetry=True)
    if parallel:
        # The warm-up forked the workers unwrapped; they report through
        # telemetry snapshots instead, and only this process is wrapped.
        tracer.install()
    try:
        with session:
            # The public spec stream, read before the traced fleet (the
            # reset below discards the spans this pass records).
            spec_stream = list(session.iter_vehicle_specs(fleet_config(workload, seed)))
            tracer.reset()
            before = session.metrics_snapshot()
            fleet = run_fleet(session, workload, seed)
            after = session.metrics_snapshot()
            layers = tracer.layer_self()
            root_s = tracer.root_s
    finally:
        tracer.uninstall()
    repeat_share, enforcement_configs = workloads.repeat_key_share(spec_stream)

    def calls(function: str) -> int:
        return tracer.function(f"repro.{function}")[0]

    def returned(function: str) -> int:
        return tracer.function(f"repro.{function}")[1]

    def counter(name: str) -> int:
        return after.counter(name) - before.counter(name)

    kernel_runs = calls("fleet.runner.simulate_vehicle")
    worker_busy = 0.0
    chunks = 0
    if parallel:
        # Worker side, from the telemetry snapshots shipped back per chunk.
        decode, _ = _histogram_sum(before, after, "phase.simulate.decode_specs.wall_seconds")
        simulate, chunks = _histogram_sum(before, after, "phase.simulate.wall_seconds")
        encode, _ = _histogram_sum(before, after, "phase.simulate.encode_outcomes.wall_seconds")
        pool = sum(
            _histogram_sum(before, after, name)[0]
            for name in ("pool.build_seconds", "pool.reset_seconds")
        )
        worker_busy = decode + simulate + encode
        layers["fleet.transfer"] += decode + encode
        layers["casestudy.pool"] += pool
        layers["fleet.runner"] += simulate - pool
        kernel_runs = counter("vehicles.simulated")
    wall = fleet.get("wall_s", 0.0)
    traced_wall = wall + worker_busy
    hits, misses = counter("policy.cache_hits"), counter("policy.cache_misses")
    frames = fleet.get("frames_transmitted", 0)
    vehicles = fleet.get("vehicles", 0)
    metrics = {
        "fleet.scenarios.specs": returned("fleet.scenarios.FleetScenario.iter_vehicle_specs"),
        "fleet.scenarios.self_s": layers["fleet.scenarios"],
        "fleet.scenarios.repeat_key_share": repeat_share,
        "fleet.scenarios.enforcement_configs": enforcement_configs,
        "fleet.transfer.bytes": counter("shm.bytes_written"),
        "fleet.transfer.self_s": layers["fleet.transfer"],
        "api.session.chunks": chunks,
        "api.session.wait_s": _histogram_sum(before, after, "phase.run.wait.wall_seconds")[0],
        "api.session.retries": counter("resilience.retries"),
        "api.session.self_s": layers["api.session"],
        "fleet.results.self_s": layers["fleet.results"],
        "fleet.runner.kernel_runs": kernel_runs,
        "fleet.runner.vehicles_per_kernel_run": vehicles / kernel_runs if kernel_runs else 0.0,
        "fleet.runner.self_s": layers["fleet.runner"],
        "fleet.runner.worker_busy_share": (
            worker_busy / (workload.workers * wall)
            if parallel
            else tracer.function("repro.fleet.runner.simulate_vehicle")[2] / wall
        ) if wall else 0.0,
        "casestudy.pool.builds": counter("pool.builds"),
        "casestudy.pool.reuses": counter("pool.reuses"),
        "casestudy.pool.self_s": layers["casestudy.pool"],
        "fleet.kernel.actions": returned("fleet.kernel.FleetKernel.run"),
        "fleet.kernel.self_s": layers["fleet.kernel"],
        "can.scheduler.events": returned("can.scheduler.EventScheduler.run"),
        "can.scheduler.self_s": layers["can.scheduler"],
        "can.bus.frames": frames,
        "can.bus.deliveries": fleet.get("frames_delivered", 0),
        "can.bus.self_s": layers["can.bus"],
        "can.bus.us_per_frame": layers["can.bus"] / frames * 1e6 if frames else 0.0,
        "can.node.sends": calls("can.node.CANNode.send"),
        "can.node.self_s": layers["can.node"],
        "vehicle.dispatches": calls("vehicle.ecu.VehicleECU._dispatch"),
        "vehicle.self_s": layers["vehicle"],
        "hpe.decisions": fleet.get("hpe_decisions", 0),
        "hpe.self_s": layers["hpe"],
        "core.syncs": calls("core.enforcement.EnforcementCoordinator.sync"),
        "core.table_compiles": counter("policy.compile_misses"),
        "core.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.self_s": layers["core"],
        "selinux.checks": calls("selinux.hooks.SoftwareEnforcementPoint.check_operation"),
        "selinux.self_s": layers["selinux"],
        "attacks.executions": tracer.layer_entries("attacks"),
        "attacks.self_s": layers["attacks"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": wall - root_s,
    }
    with open(trace_path, "w") as out:
        json.dump({"metrics": metrics, "vehicles": tracer.per_vehicle}, out, sort_keys=True)
    return {
        "warmup_fingerprint": warmup,
        "metrics": metrics,
        "unrestored": Tracer.unrestored(),
        **fleet,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("timed", "traced", "memory", "reference"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="the fleet's master seed (ExperimentConfig.seed)")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--trace-path", default=None)
    args = parser.parse_args(argv)
    spawned_at = monotonic() if args.spawned_at is None else args.spawned_at
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "timed":
        result = timed(workload, args.seed, spawned_at)
    elif args.mode == "traced":
        result = traced(workload, args.seed, args.trace_path or os.devnull)
    elif args.mode == "memory":
        result = memory(workload, args.seed)
    else:
        result = reference(workload, args.seed)
    # The session started the shared-memory resource tracker; it would
    # exit on its own once this process is gone, but orphaned.  Stop it
    # and wait for it here, so every process this one started has ended.
    stop = getattr(multiprocessing.resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
