"""The fleet-scale contract: enforcement visibly works across scenarios.

One single-worker matrix runs three registered scenarios side by side,
with ``first_vehicle_id`` offsets keeping vehicle ids unique across the
combined fleet.  Enforcement must block a share of the checked frames
in every scenario and mitigate most launched attacks.  The helpers that
report such a run (``fleet_totals``, ``render_fleet_scale``) must fold
and draw it faithfully.
"""

import pytest

from repro.analysis.figures import render_fleet_scale
from repro.analysis.metrics import fleet_totals
from repro.api import ExperimentConfig, FleetSession

SCENARIOS = ("baseline_cruise", "fleet_replay_storm", "mixed_ev_dos")
VEHICLES_PER_SCENARIO = 40
SEED = 2018
MIN_MITIGATION_RATE = 0.6


@pytest.fixture(scope="module")
def results():
    configs = [
        ExperimentConfig(
            scenario=name,
            vehicles=VEHICLES_PER_SCENARIO,
            seed=SEED,
            workers=1,
            first_vehicle_id=index * VEHICLES_PER_SCENARIO,
        )
        for index, name in enumerate(SCENARIOS)
    ]
    with FleetSession(configs[0]) as session:
        return {
            config.scenario: result for config, result in session.run_matrix(configs)
        }


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_enforcement_blocks_frames_and_mitigates_attacks(results, scenario):
    result = results[scenario]
    assert 0.0 < result.frame_block_rate < 1.0
    if scenario == "baseline_cruise":
        assert result.attacks_attempted == 0
    else:
        assert result.attack_mitigation_rate > MIN_MITIGATION_RATE


def test_fleet_totals_derive_rates_from_summed_counts(results):
    totals = fleet_totals(results)
    frames = sum(r.frames_transmitted for r in results.values())
    blocked = sum(r.frames_blocked for r in results.values())
    attempted = sum(r.attacks_attempted for r in results.values())
    mitigated = sum(r.attacks_mitigated for r in results.values())
    assert totals["scenarios"] == len(SCENARIOS)
    assert totals["vehicles"] == len(SCENARIOS) * VEHICLES_PER_SCENARIO
    assert totals["frames_transmitted"] == frames
    assert totals["frames_blocked"] == blocked
    assert totals["attacks_attempted"] == attempted
    assert totals["frame_block_rate"] == round(blocked / (frames + blocked), 4)
    assert totals["attack_mitigation_rate"] == round(mitigated / attempted, 4)
    assert totals["attack_mitigation_rate"] > MIN_MITIGATION_RATE


def test_render_fleet_scale_draws_one_bar_per_scenario(results):
    bar_width = 20
    lines = render_fleet_scale(results, bar_width=bar_width).splitlines()
    bars = {line.split()[0]: line.split("|")[1] for line in lines if "|" in line}
    assert list(bars) == sorted(SCENARIOS)
    fastest = max(results, key=lambda name: results[name].frames_per_second)
    assert bars[fastest] == "#" * bar_width


def test_render_fleet_scale_without_scenarios():
    assert render_fleet_scale({}).splitlines()[-1] == "(no scenarios run)"
