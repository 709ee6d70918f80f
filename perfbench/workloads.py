"""Workloads, fleet inputs and metric names of the fleet ledger.

Shared by the client (``run.py``) and the experiment process
(``experiment.py``).  Nothing here imports ``repro``: the client must be
able to load this module, and to refuse to run, in a checkout that has
no ``src/`` tree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artefacts (reports, per-vehicle traces, cached reference
#: fingerprints).  Lives inside the checkout and is git-ignored.
OUT = ROOT / ".perfbench"

#: ``--seed`` whose fleet fingerprints are pinned in ``reference.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fleet shape plus why it is in the ledger."""

    name: str
    scenario: str
    vehicles: int
    workers: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cruise_2w",
            scenario="baseline_cruise",
            vehicles=1200,
            workers=2,
            why=(
                "baseline_cruise, 1200 veh, 2 workers: repeat_key_share 0.949, "
                "1 enforcement config; cheapest kernels, so the parent pipeline, "
                "pool reset and any outcome memo weigh most"
            ),
        ),
        Workload(
            name="ev_dos_1w",
            scenario="mixed_ev_dos",
            vehicles=300,
            workers=1,
            why=(
                "mixed_ev_dos, 300 veh, 1 worker: repeat_key_share 0.000, "
                "4 enforcement configs, rogue attach/detach, floods; bus "
                "delivery dominates and any memo is bypassed"
            ),
        ),
        Workload(
            name="ota_1w",
            scenario="staggered_ota_rollout",
            vehicles=300,
            workers=1,
            why=(
                "staggered_ota_rollout, 300 veh, 1 worker: repeat_key_share "
                "0.000-0.003, 1 enforcement config; signed policy writes "
                "mid-run re-parse, re-sync and recompile tables in core"
            ),
        ),
    )
}

#: Warm-up fleet that starts the session's worker pool during set-up.
#: Its scenario differs from every workload's, so it shares no
#: behaviour key (scenario is part of the key) with any timed fleet.
WARMUP_SCENARIO = "fleet_replay_storm"
WARMUP_SEED = 7
WARMUP_VEHICLES = 16


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def repeat_key_share(specs) -> tuple[float, int]:
    """Share of specs whose behaviour key repeats an earlier spec's, and
    the number of distinct enforcement configs among them.

    The behaviour key is what a vehicle's outcome is a function of,
    apart from its id and seed: ``(scenario, enforcement, duration_s,
    actions)``.
    """
    seen: set[tuple] = set()
    enforcement: set[str] = set()
    repeats = total = 0
    for spec in specs:
        key = (spec.scenario, spec.enforcement, spec.duration_s, spec.actions)
        repeats += key in seen
        seen.add(key)
        enforcement.add(spec.enforcement)
        total += 1
    return (repeats / total if total else 0.0), len(enforcement)


# ---------------------------------------------------------------------------
# Metric names (must match BENCHMARK.json; the self-test checks it)
# ---------------------------------------------------------------------------

#: name -> unit of the end-to-end metrics printed with ``--trace 0``.
END_TO_END = {
    "veh_per_s": "veh/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: name -> unit of the per-layer metrics printed with ``--trace 1``.
PER_LAYER = {
    "fleet.scenarios.specs": "count",
    "fleet.scenarios.self_s": "s",
    "fleet.scenarios.repeat_key_share": "ratio",
    "fleet.scenarios.enforcement_configs": "count",
    "fleet.transfer.bytes": "bytes",
    "fleet.transfer.self_s": "s",
    "api.session.chunks": "count",
    "api.session.wait_s": "s",
    "api.session.retries": "count",
    "api.session.parent_peak_mb": "MiB",
    "api.session.self_s": "s",
    "fleet.results.self_s": "s",
    "fleet.runner.kernel_runs": "count",
    "fleet.runner.vehicles_per_kernel_run": "ratio",
    "fleet.runner.self_s": "s",
    "fleet.runner.worker_busy_share": "ratio",
    "casestudy.pool.builds": "count",
    "casestudy.pool.reuses": "count",
    "casestudy.pool.self_s": "s",
    "fleet.kernel.actions": "count",
    "fleet.kernel.self_s": "s",
    "can.scheduler.events": "count",
    "can.scheduler.self_s": "s",
    "can.bus.frames": "count",
    "can.bus.deliveries": "count",
    "can.bus.self_s": "s",
    "can.bus.us_per_frame": "us",
    "can.node.sends": "count",
    "can.node.self_s": "s",
    "vehicle.dispatches": "count",
    "vehicle.self_s": "s",
    "hpe.decisions": "count",
    "hpe.self_s": "s",
    "core.syncs": "count",
    "core.table_compiles": "count",
    "core.cache_hit_ratio": "ratio",
    "core.self_s": "s",
    "selinux.checks": "count",
    "selinux.self_s": "s",
    "attacks.executions": "count",
    "attacks.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` file (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checkout's git commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    """Python version, CPU count, numpy availability, commit and source digest."""
    try:
        import numpy  # noqa: F401

        numpy_ok = True
    except ImportError:
        numpy_ok = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_ok,
        "commit": commit(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }

