"""The fleet ledger: one command measuring the fleet simulator end to end
and per layer.

    python3 perfbench/run.py --workload ev_dos_1w --seed 0 --seconds 15 --trace 0

Load model: closed loop, one client, one experiment at a time.  Each
repetition is a fresh interpreter (``experiment.py``) that sets up a
``FleetSession`` from scratch and runs the workload's fleet for
``--seed`` once; repetitions follow one another until their fleets have
run for ``--seconds`` in total (at least three).  No repetition can
inherit another's warm pools or caches.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):
``veh_per_s`` (fleet vehicles / wall seconds from the first spec pulled
to the finished ``FleetResult``), ``setup_s`` (fresh interpreter to a
session ready to simulate) and ``peak_rss_mb`` (VmHWM of the process
plus its workers).  ``--trace 1`` additionally runs the fleet once with
the layer tracer installed and once under ``tracemalloc``, and prints
the per-layer metrics instead.

Every fleet's fingerprint is checked against a reference: pinned in
``reference.json`` for the default seed, otherwise a run of the
``ExperimentConfig.faithful()`` preset on the same fleet, made once per
seed and cached under ``.perfbench/``.  A fleet that raises or misses
its reference fails all of its vehicles; ``failed / attempted`` is the
error rate.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import OUT, ROOT, SRC, Workload, monotonic

EXPERIMENT = Path(__file__).with_name("experiment.py")
PINNED = Path(__file__).with_name("reference.json")

#: Repetitions per run: at least this many, however long they take...
MIN_REPS = 3
#: ...and at most this many, however fast the fleet runs.
MAX_REPS = 40
#: A run must finish within this many seconds of starting.
BUDGET_S = 170.0
#: Stop adding repetitions once this share of the budget is spent, so
#: the reference and traced processes still fit.
REPS_BUDGET_SHARE = 0.45


class ExperimentFailed(RuntimeError):
    """An experiment process exited abnormally or ran out of time."""


def spawn(mode: str, workload: Workload, seed: int, deadline: float, *extra: str) -> dict:
    """Run one experiment process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    command = [
        sys.executable, str(EXPERIMENT), "--mode", mode,
        "--workload", workload.name, "--seed", str(seed), *extra,
    ]
    command += ["--spawned-at", repr(monotonic())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - monotonic()))
    except BaseException:
        # Timeout or interrupt: take down the process and its workers.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    if process.returncode != 0:
        raise ExperimentFailed(f"{mode} process exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ExperimentFailed(f"{mode} process printed no result")
    return json.loads(lines[-1])


def reference(workload: Workload, seed: int, pinned: dict, deadline: float) -> tuple[str, str]:
    """The fleet's reference fingerprint and where it came from."""
    if seed == workloads.DEFAULT_SEED:
        return pinned["fleets"][workload.name], "pinned"
    cache_path = OUT / "references.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    key = f"{workloads.source_digest()}/{workload.scenario}/{workload.vehicles}/{seed}"
    if key not in cache:
        cache[key] = spawn("reference", workload, seed, deadline)["fingerprint"]
        # Replace, never rewrite in place: a concurrent run reads whole files.
        partial = cache_path.with_name(f"{cache_path.name}.{os.getpid()}")
        partial.write_text(json.dumps(cache, indent=1, sort_keys=True))
        partial.replace(cache_path)
        return cache[key], "faithful run"
    return cache[key], "cached faithful run"


def repetitions(workload: Workload, seed: int, seconds: float, started: float) -> list[dict]:
    """Timed repetitions until their fleets ran *seconds* in total."""
    reps: list[dict] = []
    measured = 0.0
    while len(reps) < MAX_REPS:
        rep = spawn("timed", workload, seed, started + BUDGET_S)
        reps.append(rep)
        measured += rep["wall_s"]
        if "error" in rep:
            break
        if len(reps) >= MIN_REPS and (
            measured >= seconds or monotonic() - started > REPS_BUDGET_SHARE * BUDGET_S
        ):
            break
    return reps


def verdict(result: dict, expected: str, warmup: str) -> str:
    """``ok`` or why the experiment's output is not verified."""
    if "error" in result:
        return result["error"]
    if result["fingerprint"] != expected:
        return f"fingerprint {result['fingerprint'][:16]} != reference {expected[:16]}"
    if result["warmup_fingerprint"] != warmup:
        return "warm-up fleet fingerprint differs from the pinned one"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fleet ledger benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not PINNED.is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    started = monotonic()
    deadline = started + BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    reps = repetitions(workload, args.seed, args.seconds, started)
    pinned = json.loads(PINNED.read_text())
    expected, source = reference(workload, args.seed, pinned, deadline)
    checked = [(f"rep {i + 1}", rep) for i, rep in enumerate(reps)]
    traced = memory = None
    if args.trace:
        trace_path = OUT / f"trace-{tag}.json"
        traced = spawn("traced", workload, args.seed, deadline,
                       "--trace-path", str(trace_path))
        memory = spawn("memory", workload, args.seed, deadline)
        checked += [("traced", traced), ("memory", memory)]

    lines = [f"# perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}"]
    failed = 0
    for label, result in checked:
        status = verdict(result, expected, pinned["warmup"])
        failed += workload.vehicles * (status != "ok")
        lines.append(
            f"# {label}: fleet {result['wall_s']:.3f} s, "
            f"{workload.vehicles / result['wall_s']:.1f} veh/s, {status}"
        )
    attempted = workload.vehicles * len(checked)
    lines.append(f"# reference {expected[:16]} ({source})")
    lines.append(f"# error_rate {failed / attempted} ({failed} of {attempted} vehicles unverified)")

    walls = [rep["wall_s"] for rep in reps if "error" not in rep]
    correct = failed == 0 and bool(walls)
    if args.trace:
        metrics = dict(traced["metrics"])
        metrics["api.session.parent_peak_mb"] = memory["parent_peak_mb"]
        metrics["trace.overhead"] = traced["wall_s"] / statistics.median(walls) if walls else 0.0
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        identity_gap = self_sum + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]
        lines.append(f"# layer self_s sum + unattributed - traced wall = {identity_gap:.3e} s")
        if traced["unrestored"]:
            lines.append(f"# not restored after tracing: {traced['unrestored']}")
        correct = correct and not traced["unrestored"] and abs(identity_gap) < 1e-6
        units = workloads.PER_LAYER
    else:
        metrics = {
            "veh_per_s": statistics.median(workload.vehicles / wall for wall in walls)
            if walls else 0.0,
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps if "error" not in rep)
            if walls else 0.0,
        }
        units = workloads.END_TO_END
    environment = workloads.environment()
    lines.append(f"# env {json.dumps(environment, sort_keys=True)}")
    for name, unit in units.items():
        lines.append(f"# {name} {metrics[name]} {unit}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "reference": {"fingerprint": expected, "source": source},
        "experiments": dict(checked),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ExperimentFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(3)
