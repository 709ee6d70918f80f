"""Self-tests of the fleet ledger.

Not collected by the repository's test run (the file name does not
match ``test_*.py``); run them by path::

    python3 -m pytest perfbench/selftest.py -q

They start real experiment processes, so they take about a minute.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time
from importlib import import_module

import pytest

import workloads
from tracer import ENTRY_POINTS, LAYERS, Tracer
from workloads import OUT, ROOT, SRC

sys.path.insert(0, str(SRC))

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_benchmark(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    self_times = {name[: -len(".self_s")] for name in workloads.PER_LAYER if name.endswith(".self_s")}
    assert self_times == set(LAYERS)


def _owner_values() -> list[object]:
    values = []
    for _layer, module_name, owner_name, attribute, _kind in ENTRY_POINTS:
        module = import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        values.append(vars(owner).get(attribute))
    return values


def test_tracer_restores_every_attribute():
    before = _owner_values()
    tracer = Tracer().install()
    try:
        assert len(Tracer.unrestored()) == len(ENTRY_POINTS)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert Tracer.unrestored() == []
    after = _owner_values()
    assert all(a is b for a, b in zip(before, after))
    for (_l, module_name, owner_name, attribute, _k), value in zip(ENTRY_POINTS, after):
        if value is None:  # inherited: the subclass must not keep a copy
            owner = getattr(import_module(module_name), owner_name)
            assert attribute not in vars(owner)
            assert inspect.getattr_static(owner, attribute) is not None


def test_traced_run_matches_untraced_and_self_times_add_up():
    from repro.api import ExperimentConfig, FleetSession
    from repro.casestudy.builder import CaseStudyBuilder

    config = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=5)
    with FleetSession(config, builder=CaseStudyBuilder()) as session:
        untraced = session.run().fingerprint()
    tracer = Tracer().install()
    try:
        # A private builder: its cars are built after the wrappers went in.
        with FleetSession(config, builder=CaseStudyBuilder()) as session:
            tracer.reset()
            start = time.perf_counter()
            traced = session.run().fingerprint()
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert traced == untraced
    layers = tracer.layer_self()
    assert sum(layers.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0 <= wall - tracer.root_s < 0.1 * wall
    for layer in ("api.session", "fleet.runner", "can.bus", "can.node", "vehicle", "attacks"):
        assert layers[layer] > 0, layer
    assert len(tracer.per_vehicle) == 12


@pytest.mark.parametrize("workload", ["ev_dos_1w", "cruise_2w"])
def test_traced_benchmark_run(workload):
    result = result_line(run_benchmark("--workload", workload, "--seed", "0",
                                       "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == set(workloads.PER_LAYER)
    for name, unit in workloads.PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.unattributed_s"] < 0.1 * metrics["trace.wall_s"]
    report = json.loads((OUT / f"report-{workload}-seed0-trace1.json").read_text())
    fingerprints = {e["fingerprint"] for e in report["experiments"].values()}
    assert fingerprints == {report["reference"]["fingerprint"]}
    parallel = workload == "cruise_2w"
    assert (metrics["fleet.transfer.bytes"] > 0) == parallel
    assert (metrics["api.session.wait_s"] > 0) == parallel
    if not parallel:
        largest = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
        assert largest == "can.bus"


def test_non_default_seed_runs_and_verifies():
    result = result_line(run_benchmark("--workload", "ev_dos_1w", "--seed", "11",
                                       "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 900
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        process = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ota_1w", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
