"""Declarative experiment configuration: one object per fleet run.

The paper's thesis is that *policy is data*; the experiment layer
applies the same idea to the experiments themselves.  An
:class:`ExperimentConfig` is one frozen, validated, JSON-round-trippable
value.  Six of its fields define the experiment (:data:`EXPERIMENT_FIELDS`:
``scenario``, ``scenario_parameters``, ``vehicles``, ``seed``,
``first_vehicle_id`` and ``enforcement``).  The other seven say how to
execute it -- the fast or the reference path, workers, chunking, spec
transfer and the retry/timeout/degrade posture -- and move time and
memory around, never results.  The fleet fingerprint is a function of
the experiment alone, from Python
(:class:`~repro.api.session.FleetSession`), from a sweep
(:meth:`~repro.api.session.FleetSession.run_matrix`) or from the shell
(``python -m repro fleet run``, see :meth:`ExperimentConfig.cli_arguments`),
and so is :meth:`ExperimentConfig.config_hash`.

Two named presets bundle the execution settings:

* :meth:`ExperimentConfig.throughput` -- the fast path on four workers:
  counters-only traces, bounded inboxes, pooled cars, compiled tables
  and the outcome memo (:class:`~repro.fleet.runner.OutcomeMemo`), which
  serves repeated behaviour keys without running the kernel.
* :meth:`ExperimentConfig.faithful` -- ``reference=True``, the path the
  fast one is validated against: full traces, unbounded inboxes, a fresh
  car per vehicle, the approved-list object decision path and no memo.

Both produce bit-identical fleet fingerprints and one config hash for
the same experiment (the execution-plan property in
``tests/test_fleet_memo.py`` proves it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shlex
from dataclasses import dataclass
from typing import Callable

from repro.can.trace import TraceLevel
from repro.fleet.resilience import RetryPolicy
from repro.fleet.scenarios import ENFORCEMENT_LABELS, _check_fields, _freeze
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

#: The values a field annotated so accepts, checked on construction: a
#: ``--config`` file or service body is outside input.  ``bool`` is an
#: ``int`` subclass, so it passes only where ``bool`` is named.
_ANNOTATION_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "bool": (bool,),
    "float | None": (int, float, type(None)),
}


def _legacy_toggle(name: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be bool, not {value!r}")
    return value


def _legacy_inbox_limit(value: object) -> bool:
    if value is not None and (type(value) is not int or value < 1):
        raise ValueError(f"inbox_limit must be an int >= 1 or None, not {value!r}")
    return False


def _legacy_reuse_cars(value: object) -> bool:
    _legacy_toggle("reuse_cars", value)
    return False


#: Keys older configs carried, each mapped to whether its value ran the
#: reference path: ``from_dict`` drops them and sets ``reference`` when
#: one did, so saved reports and queued service jobs still load and
#: still count the kernel runs they counted.  What ran without the
#: outcome memo is the reference path: a trace level other than
#: ``counters``, or ``compile_tables`` off.  A value the old field
#: refused is still refused.  ``backend`` chose between execution
#: engines whose fingerprints were identical by construction.
_LEGACY_KEYS: dict[str, Callable[[object], bool]] = {
    "backend": lambda value: False,
    "trace_level": lambda value: TraceLevel.coerce(value) is not TraceLevel.COUNTERS,
    "inbox_limit": _legacy_inbox_limit,
    "reuse_cars": _legacy_reuse_cars,
    "compile_tables": lambda value: not _legacy_toggle("compile_tables", value),
}

#: Field overrides applied by :meth:`ExperimentConfig.preset`.
PRESETS: dict[str, dict[str, object]] = {
    "throughput": {
        "reference": False,
        "workers": 4,
        "spec_transfer": "shm",
        # Long multiprocess runs ride out transient worker loss: bounded
        # retries, a dead-worker timeout, and graceful degradation.
        "retry": 2,
        "chunk_timeout_s": 120.0,
        "degrade": True,
    },
    "faithful": {
        "reference": True,
        "workers": 1,
        "spec_transfer": "pickle",
        # The reference wants failures loud and immediate, not healed.
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
        Overrides of parameters the scenario declares, applied via
        :meth:`~repro.fleet.scenarios.FleetScenario.with_parameters`
        when a session resolves the scenario.  Every scenario script
        reads its parameters, so an override materialises a different
        fleet; a name the scenario does not declare is refused there,
        before any spec is generated.
    reference:
        ``False`` (the default) runs the fast path: counters-only bus
        traces, ECU inboxes bounded at
        :data:`~repro.fleet.runner.DEFAULT_FLEET_INBOX_LIMIT`, pooled
        cars, compiled decision tables, and the session's outcome memo,
        which simulates each distinct behaviour key once and serves
        repeats (the result's ``kernel_runs`` says how many vehicles ran
        the kernel).  ``True`` runs the reference path the fast one is
        validated against: full traces, unbounded inboxes, a fresh car
        per vehicle, the approved-list object decision path, and every
        vehicle through the kernel.  Fingerprints are identical.
    workers / chunk_size:
        Worker processes, and the most vehicles one work item covers
        (``chunk_size=None`` sizes it as fleet size over
        ``4 * workers``, at least 8).  A parallel run cuts its work
        items from the stream by kernel runs: an item also closes at
        ``ceil(chunk_size / (workers + 2))`` vehicles the outcome memo
        cannot serve (every vehicle on the reference path), and
        the parent admits up to ``(workers + 2) * chunk_size`` vehicles
        ahead of its consumer.
    spec_transfer:
        How spec chunks reach multiprocess workers (and outcome batches
        come back): ``"shm"`` (default) moves columnar
        :class:`~repro.fleet.transfer.SpecBlock` payloads through
        :mod:`multiprocessing.shared_memory` so only a tiny handle
        crosses the pipe, ``"pickle"`` sends pickled spec lists.
        ``"shm"`` falls back to ``"pickle"`` automatically where shared
        memory is unavailable.
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
    """

    scenario: str
    vehicles: int
    seed: int = 0
    first_vehicle_id: int = 0
    enforcement: str | None = None
    scenario_parameters: tuple[tuple[str, object], ...] = ()
    reference: bool = False
    workers: int = 1
    chunk_size: int | None = None
    spec_transfer: str = "shm"
    retry: int = 2
    chunk_timeout_s: float | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or not self.scenario.strip():
            raise ValueError("scenario must be a non-empty scenario name")
        for item in dataclasses.fields(self):
            types = _ANNOTATION_TYPES.get(item.type, (object,))
            value = getattr(self, item.name)
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                raise ValueError(f"{item.name} must be {item.type}, not {value!r}")
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.first_vehicle_id < 0:
            raise ValueError("first_vehicle_id must be >= 0")
        if self.enforcement is not None and self.enforcement not in ENFORCEMENT_LABELS:
            raise ValueError(
                f"unknown enforcement label {self.enforcement!r}; "
                f"known: {ENFORCEMENT_LABELS}"
            )
        # A mapping or (key, value) pairs; a repeated key keeps its last value.
        items = dict(self.scenario_parameters).items()
        object.__setattr__(
            self,
            "scenario_parameters",
            tuple(sorted((str(key), _freeze(value)) for key, value in items)),
        )
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
    def throughput(cls, scenario: str, vehicles: int, **overrides) -> "ExperimentConfig":
        """The fast path on four workers, healing worker failures."""
        return cls.preset("throughput", scenario, vehicles, **overrides)

    @classmethod
    def faithful(cls, scenario: str, vehicles: int, **overrides) -> "ExperimentConfig":
        """The reference path the fast path is validated against."""
        return cls.preset("faithful", scenario, vehicles, **overrides)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        data["scenario_parameters"] = dict(self.scenario_parameters)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config serialised by :meth:`to_dict`.

        Unknown keys are rejected with the allowed key set (the
        dataclass fields) named -- a typo'd key would otherwise silently
        run a different experiment.  Fields without a default are
        required.  Legacy keys (:data:`_LEGACY_KEYS`) never changed a
        fingerprint: they are dropped, and set ``reference`` when their
        old values ran the reference path.
        """
        data = dict(data)
        for key, ran_reference in _LEGACY_KEYS.items():
            if key in data and ran_reference(data.pop(key)):
                data["reference"] = True
        _check_fields(data, cls)
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
        execute (the ``throughput()`` and ``faithful()`` presets of one
        experiment, say) share a hash, and a cached
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
        run is derivable from the Python form and vice versa.  Every
        field is stated (``none`` for an unset optional one), rendered
        from the one flag table :data:`repro.api.cli.CONFIG_FLAGS`.
        """
        from repro.api.cli import config_arguments  # the CLI imports this module

        return ["fleet", "run", *config_arguments(self)]

    def cli_command(self) -> str:
        """The full shell command reproducing this config (shell-quoted)."""
        return "python -m repro " + shlex.join(self.cli_arguments())


def _canonical(data: dict) -> str:
    """Sorted keys, no whitespace, tuples as lists: one text per value."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=list)
