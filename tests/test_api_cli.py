"""Tests for the ``python -m repro`` command line (in-process)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentConfig, FleetSession
from repro.api.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


class TestScenarioCommands:
    def test_list_names_every_registered_scenario(self, capsys):
        assert run_cli("scenarios", "list") == 0
        out = capsys.readouterr().out
        for name in ("baseline_cruise", "fleet_replay_storm", "mixed_ev_dos"):
            assert name in out

    def test_list_json_parses(self, capsys):
        assert run_cli("scenarios", "list", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "fleet_replay_storm" for entry in payload)

    def test_show_prints_mix_and_parameters(self, capsys):
        assert run_cli("scenarios", "show", "fleet_replay_storm") == 0
        out = capsys.readouterr().out
        assert "hpe+selinux" in out
        assert "replay_messages" in out

    def test_show_json_round_trips_the_mix(self, capsys):
        assert run_cli("scenarios", "show", "mixed_ev_dos", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "mixed_ev_dos"
        assert 0 < payload["mix"]["unprotected"] < 1

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert run_cli("scenarios", "show", "nope") == 2
        assert "no registered scenario" in capsys.readouterr().err


class TestConfigCommands:
    def test_presets_lists_the_three_presets(self, capsys):
        assert run_cli("config", "presets") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"debug", "throughput", "faithful"}
        assert payload["faithful"]["compile_tables"] is False

    def test_show_resolves_flags_to_a_full_config(self, capsys):
        assert (
            run_cli(
                "config", "show",
                "--preset", "throughput",
                "--scenario", "mixed_ev_dos",
                "--vehicles", "500",
                "--workers", "2",
            )
            == 0
        )
        config = ExperimentConfig.from_json(capsys.readouterr().out)
        assert config == ExperimentConfig.throughput("mixed_ev_dos", 500, workers=2)

    def test_show_requires_scenario_and_vehicles(self, capsys):
        assert run_cli("config", "show", "--scenario", "x") == 2
        assert "--vehicles" in capsys.readouterr().err


class TestFleetRun:
    def test_json_report_matches_a_direct_api_run(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert (
            run_cli(
                "fleet", "run",
                "--scenario", "mixed_ev_dos",
                "--vehicles", "12",
                "--seed", "42",
                "--json", str(report),
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(report.read_text())
        config = ExperimentConfig.from_dict(payload["config"])
        direct = FleetSession(config).run()
        assert payload["fingerprint"] == direct.fingerprint()
        assert payload["summary"]["vehicles"] == 12
        assert direct.fingerprint() in out  # printed for the record

    def test_config_file_replays_a_saved_experiment(self, tmp_path, capsys):
        config = ExperimentConfig(scenario="baseline_cruise", vehicles=6, seed=3)
        saved = tmp_path / "config.json"
        saved.write_text(config.to_json())
        report = tmp_path / "replay.json"
        assert run_cli("fleet", "run", "--config", str(saved), "--json", str(report)) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert ExperimentConfig.from_dict(payload["config"]) == config
        assert payload["fingerprint"] == FleetSession(config).run().fingerprint()

    def test_config_file_accepts_a_json_report_directly(self, tmp_path, capsys):
        """The --json report itself replays: its config block is unwrapped."""
        first = tmp_path / "report.json"
        assert (
            run_cli(
                "fleet", "run", "--scenario", "baseline_cruise",
                "--vehicles", "5", "--seed", "4", "--json", str(first),
            )
            == 0
        )
        second = tmp_path / "replay.json"
        assert run_cli("fleet", "run", "--config", str(first), "--json", str(second)) == 0
        capsys.readouterr()
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["config"] == b["config"]
        assert a["fingerprint"] == b["fingerprint"]

    def test_report_from_before_the_outcome_memo_still_replays(self, tmp_path, capsys):
        """A report whose config carries the retired ``backend`` key (and
        whose summary has no ``kernel_runs``) replays to its fingerprint."""
        legacy = {
            "config": {
                "backend": "auto",
                "chunk_size": None,
                "chunk_timeout_s": None,
                "compile_tables": True,
                "degrade": True,
                "enforcement": None,
                "first_vehicle_id": 0,
                "inbox_limit": 512,
                "retry": 2,
                "reuse_cars": True,
                "scenario": "baseline_cruise",
                "scenario_parameters": {},
                "seed": 3,
                "spec_transfer": "shm",
                "trace_level": "counters",
                "vehicles": 6,
                "workers": 1,
            },
            "fingerprint": (
                "c832ff308a1af1c3785d97048cd70b4dbbf26d602dff30b00635f7aa65428ba4"
            ),
            "summary": {"scenario": "baseline_cruise", "vehicles": 6},
        }
        saved = tmp_path / "legacy.json"
        saved.write_text(json.dumps(legacy))
        report = tmp_path / "replay.json"
        assert run_cli("fleet", "run", "--config", str(saved), "--json", str(report)) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert "backend" not in payload["config"]
        assert payload["fingerprint"] == legacy["fingerprint"]
        summary = payload["summary"]
        assert 0 < summary["kernel_runs"] <= summary["vehicles"] == 6

    def test_preset_with_config_file_is_rejected(self, tmp_path, capsys):
        saved = tmp_path / "config.json"
        saved.write_text(ExperimentConfig(scenario="baseline_cruise", vehicles=6).to_json())
        assert (
            run_cli(
                "fleet", "run", "--config", str(saved), "--preset", "throughput"
            )
            == 2
        )
        assert "--preset cannot be combined with --config" in capsys.readouterr().err

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        saved = tmp_path / "config.json"
        saved.write_text(ExperimentConfig(scenario="baseline_cruise", vehicles=6).to_json())
        report = tmp_path / "run.json"
        assert (
            run_cli(
                "fleet", "run", "--config", str(saved),
                "--vehicles", "3", "--seed", "8",
                "--json", str(report),
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["config"]["vehicles"] == 3
        assert payload["config"]["seed"] == 8

    def test_enforcement_override_reaches_the_fleet(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert (
            run_cli(
                "fleet", "run",
                "--scenario", "mixed_ev_dos",
                "--vehicles", "5",
                "--enforcement", "unprotected",
                "--json", str(report),
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["config"]["enforcement"] == "unprotected"

    def test_progress_lines_stream(self, capsys):
        assert (
            run_cli(
                "fleet", "run",
                "--scenario", "baseline_cruise",
                "--vehicles", "6",
                "--progress", "2",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "... 2/6 vehicles" in out
        assert "... 6/6 vehicles" in out

    def test_param_overrides_are_recorded(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert (
            run_cli(
                "fleet", "run",
                "--scenario", "baseline_cruise",
                "--vehicles", "2",
                "--param", "accel_range=[10, 20]",
                "--param", "note=quick",
                "--json", str(report),
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["config"]["scenario_parameters"] == {
            "accel_range": [10, 20],
            "note": "quick",
        }

    def test_missing_required_flags_fail_cleanly(self, capsys):
        assert run_cli("fleet", "run", "--scenario", "baseline_cruise") == 2
        assert "--vehicles" in capsys.readouterr().err

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert run_cli("fleet", "run", "--scenario", "nope", "--vehicles", "2") == 2
        assert "no registered scenario" in capsys.readouterr().err

    def test_bad_enforcement_label_fails_cleanly(self, capsys):
        assert (
            run_cli(
                "fleet", "run", "--scenario", "baseline_cruise",
                "--vehicles", "2", "--enforcement", "tinfoil",
            )
            == 2
        )
        assert "enforcement label" in capsys.readouterr().err

    def test_bad_param_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                "fleet", "run", "--scenario", "baseline_cruise",
                "--vehicles", "2", "--param", "novalue",
            )


class TestServiceStackIsLazy:
    def test_fleet_run_never_loads_the_service_stack(self):
        code = """
import sys
from repro.api.cli import main

assert main(["fleet", "run", "--scenario", "baseline_cruise", "--vehicles", "4"]) == 0
print(sorted({"sqlite3", "http.server"} & set(sys.modules)))
"""
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "[]"

    def test_unreachable_service_is_exit_code_2(self, capsys):
        assert run_cli("jobs", "list", "--url", "http://127.0.0.1:1") == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert err.count("\n") == 1

    def test_unknown_job_state_is_exit_code_2(self, capsys):
        assert run_cli("jobs", "list", "--url", "http://127.0.0.1:1", "--state", "lost") == 2
        assert "unknown job state 'lost'" in capsys.readouterr().err
