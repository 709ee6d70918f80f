"""Tests for fleet outcome aggregation and the determinism fingerprint."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.results import (
    FleetAggregator,
    FleetResult,
    StreamingFleetAggregator,
    VehicleOutcome,
)


def make_outcome(vehicle_id: int, **overrides) -> VehicleOutcome:
    values = dict(
        vehicle_id=vehicle_id,
        scenario="test",
        enforcement="hpe+selinux",
        simulated_seconds=0.3,
        frames_transmitted=100,
        frames_delivered=80,
        frames_blocked=25,
        hpe_decisions=500,
        policy_pushes=9,
        attacks_attempted=2,
        attacks_mitigated=2,
        mean_decision_latency_s=4e-8,
        healthy=True,
        wall_seconds=0.01,
    )
    values.update(overrides)
    return VehicleOutcome(**values)


class TestAggregation:
    def test_sums_and_rates(self):
        aggregator = FleetAggregator("test")
        aggregator.add(make_outcome(0))
        aggregator.add(make_outcome(1, frames_blocked=75, attacks_mitigated=1, healthy=False))
        result = aggregator.result(wall_seconds=2.0)
        assert result.vehicles == 2
        assert result.frames_transmitted == 200
        assert result.frames_blocked == 100
        assert result.frame_block_rate == pytest.approx(100 / 300)
        assert result.attacks_attempted == 4
        assert result.attack_mitigation_rate == pytest.approx(3 / 4)
        assert result.unhealthy_vehicles == 1
        assert result.frames_per_second == pytest.approx(100.0)
        assert result.vehicles_per_second == pytest.approx(1.0)
        assert result.enforcement_mix == {"hpe+selinux": 2}

    def test_memo_hits_count_as_vehicles_not_kernel_runs(self):
        plain = FleetAggregator("test")
        memoised = FleetAggregator("test")
        for i in range(4):
            plain.add(make_outcome(i))
            hit = i % 2 == 1
            memoised.add(make_outcome(i, memo_hit=hit, wall_seconds=0.0 if hit else 0.01))
        a, b = plain.result(), memoised.result()
        assert (a.vehicles, a.kernel_runs) == (4, 4)
        assert (b.vehicles, b.kernel_runs) == (4, 2)
        assert b.fingerprint() == a.fingerprint()
        # Throughput divides kernel runs, not vehicles, by simulation time.
        assert b.sim_vehicles_per_second == pytest.approx(2 / 0.02)

    def test_empty_result_has_zero_rates(self):
        result = FleetAggregator("test").result()
        assert result.vehicles == 0
        assert result.frame_block_rate == 0.0
        assert result.attack_mitigation_rate == 0.0
        assert result.frames_per_second == 0.0
        assert result.latency_p99_s == 0.0

    def test_latency_percentiles_over_vehicles(self):
        aggregator = FleetAggregator("test")
        for i in range(100):
            aggregator.add(make_outcome(i, mean_decision_latency_s=float(i)))
        result = aggregator.result()
        assert result.latency_p50_s == pytest.approx(50.0)
        assert result.latency_p95_s == pytest.approx(94.0)
        assert result.latency_p99_s == pytest.approx(98.0)


class TestStreamingAggregator:
    def test_matches_the_batch_aggregator_bit_for_bit(self):
        outcomes = [
            make_outcome(i, frames_blocked=i * 3, mean_decision_latency_s=i * 1e-8)
            for i in range(25)
        ]
        batch = FleetAggregator("test")
        stream = StreamingFleetAggregator("test")
        for outcome in outcomes:
            batch.add(outcome)
            stream.add(outcome)
        batch_result = batch.result(wall_seconds=1.5)
        stream_result = stream.result(wall_seconds=1.5)
        assert stream_result.fingerprint() == batch_result.fingerprint()
        assert stream_result.frames_blocked == batch_result.frames_blocked
        assert stream_result.latency_p95_s == batch_result.latency_p95_s
        assert stream_result.enforcement_mix == batch_result.enforcement_mix
        assert stream_result.summary() == batch_result.summary()

    def test_rejects_out_of_order_vehicles(self):
        stream = StreamingFleetAggregator("test")
        stream.add(make_outcome(5))
        stream.add(make_outcome(5))  # equal ids are fine
        with pytest.raises(ValueError, match="vehicle-id order"):
            stream.add(make_outcome(4))

    def test_refuses_adds_after_finalisation(self):
        stream = StreamingFleetAggregator("test")
        stream.add(make_outcome(0))
        stream.result()
        with pytest.raises(RuntimeError, match="finalised"):
            stream.add(make_outcome(1))

    def test_count_tracks_folded_outcomes(self):
        stream = StreamingFleetAggregator("test")
        assert stream.count == 0
        stream.add(make_outcome(0))
        stream.add(make_outcome(1))
        assert stream.count == 2


class TestFingerprint:
    def test_arrival_order_does_not_matter(self):
        outcomes = [make_outcome(i, frames_transmitted=100 + i) for i in range(10)]
        forward, backward = FleetAggregator("test"), FleetAggregator("test")
        forward.extend(outcomes)
        backward.extend(list(reversed(outcomes)))
        assert forward.result().fingerprint() == backward.result().fingerprint()
        assert forward.result().frames_transmitted == backward.result().frames_transmitted

    def test_any_deterministic_field_changes_the_fingerprint(self):
        base = FleetAggregator("test")
        base.add(make_outcome(0))
        changed = FleetAggregator("test")
        changed.add(make_outcome(0, frames_blocked=26))
        assert base.result().fingerprint() != changed.result().fingerprint()

    def test_wall_seconds_is_excluded(self):
        fast, slow = FleetAggregator("test"), FleetAggregator("test")
        fast.add(make_outcome(0, wall_seconds=0.001))
        slow.add(make_outcome(0, wall_seconds=9.9))
        assert fast.result(1.0).fingerprint() == slow.result(2.0).fingerprint()

    def test_summary_carries_truncated_fingerprint(self):
        aggregator = FleetAggregator("test")
        aggregator.add(make_outcome(0))
        result = aggregator.result()
        assert result.summary()["fingerprint"] == result.fingerprint()[:16]


#: Exact-value float strategy: any finite double (including awkward
#: shortest-repr cases) must survive the JSON wire bit for bit.
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestVehicleOutcomeRoundTrip:
    def test_dict_round_trip_is_exact(self):
        outcome = make_outcome(3, mean_decision_latency_s=1 / 3, wall_seconds=0.1 + 0.2)
        rebuilt = VehicleOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert rebuilt == outcome
        assert rebuilt.deterministic_tuple() == outcome.deterministic_tuple()

    def test_unknown_keys_rejected(self):
        data = make_outcome(0).to_dict()
        data["frames_dropped"] = 1
        with pytest.raises(ValueError, match="frames_dropped"):
            VehicleOutcome.from_dict(data)

    def test_missing_keys_rejected(self):
        data = make_outcome(0).to_dict()
        del data["healthy"]
        with pytest.raises(ValueError, match="healthy"):
            VehicleOutcome.from_dict(data)

    @settings(max_examples=60, deadline=None)
    @given(
        simulated=_floats,
        latency=_floats,
        wall=_floats,
        frames=st.integers(min_value=0, max_value=2**53),
        healthy=st.booleans(),
    )
    def test_property_json_round_trip(self, simulated, latency, wall, frames, healthy):
        outcome = make_outcome(
            1,
            simulated_seconds=simulated,
            mean_decision_latency_s=latency,
            wall_seconds=wall,
            frames_transmitted=frames,
            healthy=healthy,
        )
        rebuilt = VehicleOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert rebuilt == outcome


class TestFleetResultRoundTrip:
    def _result(self, count: int = 9) -> FleetResult:
        aggregator = FleetAggregator("test")
        for i in range(count):
            aggregator.add(
                make_outcome(
                    i,
                    frames_blocked=i * 3,
                    mean_decision_latency_s=(i + 1) / 7,
                    healthy=bool(i % 2),
                )
            )
        return aggregator.result(wall_seconds=1 / 3)

    def test_dict_round_trip_is_exact(self):
        result = self._result()
        rebuilt = FleetResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()

    def test_fingerprint_preserved_verbatim(self):
        result = self._result()
        rebuilt = FleetResult.from_dict(result.to_dict())
        assert rebuilt.fingerprint() == result.fingerprint()
        assert len(rebuilt.fingerprint()) == 64

    def test_floats_are_exact_not_approximate(self):
        result = self._result()
        rebuilt = FleetResult.from_dict(json.loads(json.dumps(result.to_dict())))
        for name in (
            "simulated_vehicle_seconds",
            "latency_p50_s",
            "latency_p95_s",
            "latency_p99_s",
            "wall_seconds",
        ):
            assert getattr(rebuilt, name) == getattr(result, name), name

    def test_enforcement_mix_round_trips_as_plain_dict(self):
        result = self._result()
        data = json.loads(json.dumps(result.to_dict()))
        assert isinstance(data["enforcement_mix"], dict)
        assert FleetResult.from_dict(data).enforcement_mix == result.enforcement_mix

    def test_unknown_keys_rejected(self):
        data = self._result().to_dict()
        data["vehicels"] = 5
        with pytest.raises(ValueError, match="vehicels"):
            FleetResult.from_dict(data)

    def test_result_stored_before_kernel_runs_reads_every_vehicle_as_run(self):
        data = json.loads(json.dumps(self._result().to_dict()))
        del data["kernel_runs"]
        rebuilt = FleetResult.from_dict(data)
        assert rebuilt.kernel_runs == rebuilt.vehicles == 9
        assert rebuilt.fingerprint() == self._result().fingerprint()

    def test_missing_fingerprint_rejected(self):
        data = self._result().to_dict()
        del data["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            FleetResult.from_dict(data)

    @settings(max_examples=40, deadline=None)
    @given(
        latencies=st.lists(_floats, min_size=1, max_size=20),
        wall=_floats,
    )
    def test_property_json_round_trip(self, latencies, wall):
        aggregator = FleetAggregator("test")
        for i, latency in enumerate(latencies):
            aggregator.add(make_outcome(i, mean_decision_latency_s=latency))
        result = aggregator.result(wall_seconds=wall)
        rebuilt = FleetResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.fingerprint() == result.fingerprint()
        assert rebuilt.to_dict() == result.to_dict()
