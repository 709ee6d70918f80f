"""Experiment-service walkthrough: submit -> dedup -> stream -> metrics.

The ``repro.service`` layer turns the experiment API into a persistent
queue: submissions are durable SQLite rows, drain workers execute them
through long-lived warm :class:`~repro.api.session.FleetSession`\\ s, and
-- because every outcome is a pure function of its config -- identical
configs are served from a result cache instead of being re-simulated.

This demo starts a real service (HTTP server + one drain-worker
process), submits **two identical configs and one distinct one**, and
shows on the telemetry that exactly two simulations ran: the duplicate
is a ``service.cache_hits`` increment, not a third run.

Run with::

    python examples/service_demo.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentConfig, FleetSession
from repro.service import ExperimentService, ServiceClient

# mixed_ev_dos is seed-sensitive, so the two seeds below are genuinely
# different experiments.  The config hash covers only the experiment
# fields (scenario, parameters, vehicles, seed, first vehicle id,
# enforcement), so resubmitting CONFIG -- or any preset of it -- hits
# the cache.
CONFIG = ExperimentConfig(scenario="mixed_ev_dos", vehicles=40, seed=2018)
DISTINCT = ExperimentConfig(scenario="mixed_ev_dos", vehicles=40, seed=2019)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = Path(tmp) / "service.db"
        # port=0 binds an ephemeral port; one drain worker is enough to
        # show the single-flight dedup (it is a queue invariant, not a
        # worker-count accident).
        with ExperimentService(db_path, port=0, drain_workers=1) as service:
            client = ServiceClient(service.url)
            print(f"service up at {service.url} (db: {db_path.name})")
            print()

            # 1. Submit 2 identical + 1 distinct config.  Submission is
            #    cheap and non-blocking: each returns a queued job row.
            print("== Submitting 2 identical + 1 distinct config ==")
            first = client.submit(CONFIG)
            duplicate = client.submit(CONFIG)
            distinct = client.submit(DISTINCT)
            for label, job in (
                ("first", first), ("duplicate", duplicate), ("distinct", distinct)
            ):
                print(f"  {label:>9}: job {job['id']} "
                      f"hash {job['config_hash'][:12]}… state={job['state']}")
            assert first["config_hash"] == duplicate["config_hash"]
            assert first["config_hash"] != distinct["config_hash"]
            print()

            # 2. Wait for all three.  The duplicate never simulates: the
            #    queue skips queued jobs whose hash is in flight, and the
            #    worker then serves it bit-identically from the cache.
            results = {
                label: client.result(client.wait(job["id"])["id"])
                for label, job in (
                    ("first", first),
                    ("duplicate", duplicate),
                    ("distinct", distinct),
                )
            }
            print("== Results ==")
            for label, result in results.items():
                print(f"  {label:>9}: fingerprint {result.fingerprint()}")
            assert results["first"].fingerprint() == results["duplicate"].fingerprint()
            assert results["first"].to_dict() == results["duplicate"].to_dict()
            print("  duplicate == first, bit for bit (served from cache)")
            print()

            # 3. The telemetry proves it: 3 completions, 2 simulations,
            #    1 cache hit.  These counters merge across every drain
            #    worker the service owns.
            snapshot = client.metrics()
            print("== Service telemetry ==")
            for name in (
                "service.jobs_completed", "service.runs", "service.cache_hits"
            ):
                print(f"  {name:>25}: {snapshot.counter(name):g}")
            assert snapshot.counter("service.runs") == 2
            assert snapshot.counter("service.cache_hits") == 1
            print()

            # 4. Per-vehicle outcomes stream over chunked NDJSON -- same
            #    bounded-memory contract as FleetSession.iter_outcomes().
            print("== Streaming outcomes for the cached job ==")
            blocked = 0
            for outcome in client.iter_outcomes(duplicate["id"]):
                blocked += outcome.frames_blocked
            print(f"  {CONFIG.vehicles} vehicles streamed, "
                  f"{blocked} frames blocked in total")
            print()

            # 5. And the service never bends determinism: a foreground
            #    run of the same config fingerprints identically.
            with FleetSession(CONFIG) as session:
                direct = session.run()
            assert direct.fingerprint() == results["first"].fingerprint()
            print("foreground FleetSession run fingerprints identically:")
            print(f"  {direct.fingerprint()}")


if __name__ == "__main__":
    main()
