"""Declarative experiment configuration: one object per fleet run.

The paper's thesis is that *policy is data*; the experiment layer
applies the same idea to the experiments themselves.  An
:class:`ExperimentConfig` is one frozen, validated, JSON-round-trippable
value.  Six of its fields define the experiment (:data:`EXPERIMENT_FIELDS`:
``scenario``, ``scenario_parameters``, ``vehicles``, ``seed``,
``first_vehicle_id`` and ``enforcement``).  The other ten say how to
execute it -- trace retention, inbox bound, workers, chunking, spec
transfer, the pool/compiled-table toggles and the retry/timeout/degrade
posture -- and move time and memory around, never results.  The fleet
fingerprint is a function of the experiment alone, from Python
(:class:`~repro.api.session.FleetSession`), from a sweep
(:meth:`~repro.api.session.FleetSession.run_matrix`) or from the shell
(``python -m repro fleet run``, see :meth:`ExperimentConfig.cli_arguments`),
and so is :meth:`ExperimentConfig.config_hash`.

Named presets bundle the three execution settings everything else is
described in terms of:

* :meth:`ExperimentConfig.debug` -- single worker, full traces,
  unbounded inboxes, a fresh car per vehicle: everything inspectable.
* :meth:`ExperimentConfig.throughput` -- counters-only traces, bounded
  inboxes, pooled cars, compiled tables, multiprocess: the fast path.
* :meth:`ExperimentConfig.faithful` -- the pre-optimisation object
  decision path the fast path is validated against.

All three produce bit-identical fleet fingerprints and one config hash
for the same experiment (the trace-level, pooled-reuse and
compiled-table equivalence suites prove it).  The default and
``throughput()`` configs also serve repeated behaviour keys from the
outcome memo (:class:`~repro.fleet.runner.OutcomeMemo`); ``debug()`` and
``faithful()`` simulate every vehicle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shlex
from dataclasses import dataclass

from repro.can.trace import TraceLevel
from repro.fleet.resilience import RetryPolicy
from repro.fleet.runner import DEFAULT_FLEET_INBOX_LIMIT
from repro.fleet.scenarios import ENFORCEMENT_LABELS, _check_keys, _freeze
from repro.fleet.transfer import SPEC_TRANSFER_MODES

#: The fields that define an experiment: they decide the spec stream, so
#: every outcome and the fleet fingerprint are functions of them alone.
#: :meth:`ExperimentConfig.config_hash` digests exactly these; every other
#: field says how the experiment is executed.
EXPERIMENT_FIELDS = (
    "scenario",
    "scenario_parameters",
    "vehicles",
    "seed",
    "first_vehicle_id",
    "enforcement",
)

#: Keys older configs carried that no longer mean anything: ``from_dict``
#: drops them, so saved reports and queued service jobs still load.
#: ``backend`` chose between execution engines whose fingerprints were
#: identical by construction.
_LEGACY_KEYS = ("backend",)

#: Field overrides applied by :meth:`ExperimentConfig.preset`.
PRESETS: dict[str, dict[str, object]] = {
    "debug": {
        "workers": 1,
        "trace_level": TraceLevel.FULL,
        "inbox_limit": None,
        "reuse_cars": False,
        "compile_tables": True,
        # Debugging wants failures loud and immediate, not healed.
        "retry": 0,
        "degrade": False,
    },
    "throughput": {
        "workers": 4,
        "trace_level": TraceLevel.COUNTERS,
        "inbox_limit": DEFAULT_FLEET_INBOX_LIMIT,
        "spec_transfer": "shm",
        "reuse_cars": True,
        "compile_tables": True,
        # Long multiprocess runs ride out transient worker loss: bounded
        # retries, a dead-worker timeout, and graceful degradation.
        "retry": 2,
        "chunk_timeout_s": 120.0,
        "degrade": True,
    },
    "faithful": {
        "workers": 1,
        "trace_level": TraceLevel.FULL,
        "inbox_limit": None,
        "spec_transfer": "pickle",
        "reuse_cars": False,
        "compile_tables": False,
        "retry": 0,
        "degrade": False,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fleet experiment and how to execute it, as one value.

    The experiment is ``scenario``, ``vehicles``, ``seed``,
    ``first_vehicle_id``, ``enforcement`` and ``scenario_parameters``
    (:data:`EXPERIMENT_FIELDS`); the fleet fingerprint and
    :meth:`config_hash` depend on them alone.  The rest are execution
    settings.

    Parameters
    ----------
    scenario:
        Registered fleet-scenario name (resolved at run time, so configs
        may be built before a custom scenario is registered).
    vehicles:
        Fleet size (>= 1).
    seed:
        Master seed every per-vehicle stream derives from.
    first_vehicle_id:
        Id of the first vehicle (lets sweep entries share one global id
        space).
    enforcement:
        Optional fleet-wide enforcement label overriding the scenario's
        mix (``"unprotected"``, ``"selinux-only"``, ``"hpe-only"``,
        ``"hpe+selinux"``); ``None`` keeps the per-vehicle mix draw.
    scenario_parameters:
        Tunable overrides applied to the scenario via
        :meth:`~repro.fleet.scenarios.FleetScenario.with_parameters`.
        Parameter-aware script factories (those declaring a third
        ``params`` argument) receive them and materialise a different
        fleet; the built-in scripts take two arguments and close over
        their defaults, so for them the overrides are recorded report
        metadata only.
    trace_level:
        Bus-trace retention for every vehicle.
    inbox_limit:
        Per-node inbox retention (``None`` keeps every received frame).
    workers / chunk_size:
        Worker processes and vehicles per work item (``chunk_size=None``
        sizes chunks as fleet size over ``4 * workers``, at least 8).
    spec_transfer:
        How spec chunks reach multiprocess workers (and outcome batches
        come back): ``"shm"`` (default) moves columnar
        :class:`~repro.fleet.transfer.SpecBlock` payloads through
        :mod:`multiprocessing.shared_memory` so only a tiny handle
        crosses the pipe, ``"pickle"`` sends pickled spec lists.
        ``"shm"`` falls back to ``"pickle"`` automatically where shared
        memory is unavailable.
    reuse_cars / compile_tables:
        The pool and compiled-decision-table toggles (both default on).
    retry:
        Times a failed chunk is re-executed before the run gives up on
        parallel execution of it (``0`` disables retries).  Every chunk
        is a pure function of its specs, so a retried chunk is
        bit-identical to the original.
    chunk_timeout_s:
        Seconds the parent waits for one chunk before treating its
        worker as dead or hung and re-queueing the chunk (``None``, the
        default, waits forever -- the pre-resilience behaviour).  A
        too-small timeout costs spurious retries, never correctness.
    degrade:
        When retries exhaust (or the circuit breaker trips), degrade
        gracefully -- shm transfer falls back to pickle, then parallel
        execution falls back to inline-in-parent -- instead of aborting
        the run.  ``False`` surfaces a
        :class:`~repro.fleet.resilience.ChunkFailedError` instead.

    With ``trace_level="counters"`` and ``compile_tables=True`` (the
    defaults) a run simulates each distinct behaviour key once and
    serves repeats from an outcome memo; the result's ``kernel_runs``
    says how many vehicles ran the kernel.  There is no switch for it:
    the other trace levels or ``compile_tables=False`` simulate every
    vehicle.
    """

    scenario: str
    vehicles: int
    seed: int = 0
    first_vehicle_id: int = 0
    enforcement: str | None = None
    scenario_parameters: tuple[tuple[str, object], ...] = ()
    trace_level: TraceLevel = TraceLevel.COUNTERS
    inbox_limit: int | None = DEFAULT_FLEET_INBOX_LIMIT
    workers: int = 1
    chunk_size: int | None = None
    spec_transfer: str = "shm"
    reuse_cars: bool = True
    compile_tables: bool = True
    retry: int = 2
    chunk_timeout_s: float | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or not self.scenario.strip():
            raise ValueError("scenario must be a non-empty scenario name")
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.first_vehicle_id < 0:
            raise ValueError("first_vehicle_id must be >= 0")
        if self.enforcement is not None and self.enforcement not in ENFORCEMENT_LABELS:
            raise ValueError(
                f"unknown enforcement label {self.enforcement!r}; "
                f"known: {ENFORCEMENT_LABELS}"
            )
        items = (
            self.scenario_parameters.items()
            if isinstance(self.scenario_parameters, dict)
            else self.scenario_parameters
        )
        object.__setattr__(
            self,
            "scenario_parameters",
            tuple(sorted((str(key), _freeze(value)) for key, value in items)),
        )
        object.__setattr__(self, "trace_level", TraceLevel.coerce(self.trace_level))
        if self.inbox_limit is not None and self.inbox_limit < 1:
            raise ValueError("inbox_limit must be >= 1 or None")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        if self.spec_transfer not in SPEC_TRANSFER_MODES:
            raise ValueError(
                f"unknown spec_transfer {self.spec_transfer!r}; "
                f"known: {SPEC_TRANSFER_MODES}"
            )
        if self.retry < 0:
            raise ValueError("retry must be >= 0")
        if self.chunk_timeout_s is not None:
            object.__setattr__(self, "chunk_timeout_s", float(self.chunk_timeout_s))
            if self.chunk_timeout_s <= 0:
                raise ValueError("chunk_timeout_s must be > 0 or None")

    # -- derivation -----------------------------------------------------------

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides)

    def effective_chunk_size(self, total: int | None = None) -> int:
        """Vehicles per work item after the default sizing rule.

        An explicit ``chunk_size`` wins; otherwise chunks are sized as
        *total* (defaulting to the config's fleet size -- ``run_specs``
        passes its own spec count) over ``4 * workers``, at least 8.
        The single authority for the rule: the session's submission
        loop derives its chunks from here.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        total = self.vehicles if total is None else total
        return max(8, total // (self.workers * 4) or 1)

    def retry_policy(self) -> RetryPolicy:
        """The chunk :class:`~repro.fleet.resilience.RetryPolicy` this
        config means: ``retry`` extra executions on top of the first,
        with the module's default deterministic backoff schedule.
        """
        return RetryPolicy(max_attempts=self.retry + 1)

    # -- presets --------------------------------------------------------------

    @classmethod
    def preset(
        cls, name: str, scenario: str, vehicles: int, **overrides
    ) -> "ExperimentConfig":
        """Build a named preset (see :data:`PRESETS`), then apply *overrides*."""
        try:
            base = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; known: {sorted(PRESETS)}"
            ) from None
        merged: dict[str, object] = dict(base)
        merged.update(overrides)
        return cls(scenario=scenario, vehicles=vehicles, **merged)

    @classmethod
    def debug(cls, scenario: str, vehicles: int, **overrides) -> "ExperimentConfig":
        """Single worker, full traces, fresh cars: everything inspectable."""
        return cls.preset("debug", scenario, vehicles, **overrides)

    @classmethod
    def throughput(cls, scenario: str, vehicles: int, **overrides) -> "ExperimentConfig":
        """Counters-only, pooled, compiled, multiprocess: the fast path."""
        return cls.preset("throughput", scenario, vehicles, **overrides)

    @classmethod
    def faithful(cls, scenario: str, vehicles: int, **overrides) -> "ExperimentConfig":
        """The pre-optimisation object path the fast path is validated against."""
        return cls.preset("faithful", scenario, vehicles, **overrides)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        data["scenario_parameters"] = dict(self.scenario_parameters)
        data["trace_level"] = self.trace_level.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config serialised by :meth:`to_dict`.

        Unknown keys are rejected with the allowed key set (the
        dataclass fields) named -- a typo'd key would otherwise silently
        run a different experiment.  Fields without a default are
        required.  Legacy keys (:data:`_LEGACY_KEYS`) are dropped: they
        never changed a fingerprint.
        """
        data = {key: value for key, value in data.items() if key not in _LEGACY_KEYS}
        fields = dataclasses.fields(cls)
        required = tuple(f.name for f in fields if f.default is dataclasses.MISSING)
        optional = tuple(f.name for f in fields if f.default is not dataclasses.MISSING)
        _check_keys(data, "ExperimentConfig", required, optional)
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        """The config as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def canonical_json(self) -> str:
        """The *canonical* JSON form of every field: sorted keys, no whitespace.

        Two configs have the same canonical JSON iff they are equal,
        however their dict forms were ordered and however many
        ``to_dict`` / ``from_dict`` round trips they took
        (``__post_init__`` canonicalises parameter values on every
        construction).  The service stores each job in this form, so a
        job replays with its own execution settings.
        """
        return _canonical(self.to_dict())

    def config_hash(self) -> str:
        """SHA-256 hex digest of the experiment's canonical JSON.

        Only the :data:`EXPERIMENT_FIELDS` are digested, serialised as
        :meth:`canonical_json` serialises them.  The experiment
        service's dedup key: a fleet fingerprint is a function of the
        experiment alone, so configs that differ only in how they
        execute (the ``debug()``, ``throughput()`` and ``faithful()``
        presets of one experiment, say) share a hash, and a cached
        result is served without simulating.  Stable across processes,
        dict key orderings and serialisation round trips -- pinned by
        the hash-invariance tests.
        """
        data = self.to_dict()
        experiment = {name: data[name] for name in EXPERIMENT_FIELDS}
        return hashlib.sha256(_canonical(experiment).encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("ExperimentConfig JSON must be an object")
        return cls.from_dict(data)

    # -- CLI equivalence ------------------------------------------------------

    def cli_arguments(self) -> list[str]:
        """``python -m repro`` arguments reproducing this exact config.

        ``python -m repro`` + these arguments runs the same experiment
        (and prints the same fingerprint) as handing the config to a
        :class:`~repro.api.session.FleetSession` -- the shell form of a
        run is derivable from the Python form and vice versa.
        """
        args = [
            "fleet",
            "run",
            "--scenario",
            self.scenario,
            "--vehicles",
            str(self.vehicles),
            "--seed",
            str(self.seed),
            "--workers",
            str(self.workers),
            "--trace-level",
            self.trace_level.value,
            "--inbox-limit",
            "none" if self.inbox_limit is None else str(self.inbox_limit),
            "--spec-transfer",
            self.spec_transfer,
            "--max-retries",
            str(self.retry),
            "--chunk-timeout",
            "none" if self.chunk_timeout_s is None else str(self.chunk_timeout_s),
        ]
        if not self.degrade:
            args += ["--no-degrade"]
        if self.first_vehicle_id:
            args += ["--first-vehicle-id", str(self.first_vehicle_id)]
        if self.enforcement is not None:
            args += ["--enforcement", self.enforcement]
        if self.chunk_size is not None:
            args += ["--chunk-size", str(self.chunk_size)]
        if not self.reuse_cars:
            args += ["--no-reuse-cars"]
        if not self.compile_tables:
            args += ["--no-compile-tables"]
        for key, value in self.scenario_parameters:
            encoded = json.dumps(value, default=list, separators=(",", ":"))
            args += ["--param", f"{key}={encoded}"]
        return args

    def cli_command(self) -> str:
        """The full shell command reproducing this config (shell-quoted)."""
        return "python -m repro " + shlex.join(self.cli_arguments())


def _canonical(data: dict) -> str:
    """Sorted keys, no whitespace, tuples as lists: one text per value."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=list)
