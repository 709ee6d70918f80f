"""Named, parameterised fleet workloads.

A *fleet scenario* composes the existing single-vehicle machinery --
Table I attack scenarios, replay/DoS/fuzzing primitives, car modes and
post-deployment policy updates -- into a workload definition that the
:class:`~repro.api.session.FleetSession` can stamp out over thousands of
vehicles.  Scenario materialisation is split from execution:

* :meth:`FleetScenario.iter_vehicle_specs` runs in the parent process
  and streams (scenario, fleet size, seed) into fully explicit,
  picklable :class:`VehicleSpec` objects -- every randomised choice
  (enforcement mix, attack times, flood sizes) is drawn here from
  seeded streams, one vehicle at a time, so the parent never has to
  hold the whole fleet (:meth:`FleetScenario.vehicle_specs` is the
  same stream materialised as a list).
* Workers only ever see specs, so what a vehicle does is a pure
  function of its spec and worker count cannot leak into results.

Scenarios register under a name in the module registry; benchmarks and
examples look them up with :func:`get_scenario`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, Iterator

from repro.fleet.kernel import derive_seed

#: Enforcement labels a scenario mix may use (resolved to configurations
#: by the runner; mirrors ``EnforcementConfig.label``).
ENFORCEMENT_LABELS = ("unprotected", "selinux-only", "hpe-only", "hpe+selinux")


def _check_keys(
    data: dict, kind: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Validate a ``from_dict`` payload's key set with a precise error."""
    allowed = set(required) | set(optional)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {kind} key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"missing required {kind} key(s) {missing}")


def _check_fields(data: dict, cls: type) -> None:
    """:func:`_check_keys` on *cls*'s fields; those with a default are optional."""
    optional = tuple(f.name for f in fields(cls) if f.default is not MISSING)
    required = tuple(f.name for f in fields(cls) if f.name not in optional)
    _check_keys(data, cls.__name__, required, optional)


def _freeze(value: object) -> object:
    """Canonicalise a parameter value into a hashable form, recursively.

    Sequences become tuples and mappings become sorted ``(key, value)``
    pair tuples.  JSON round-trips turn tuples into lists; freezing on
    construction means an action rebuilt from JSON compares equal to
    (and hashes the same as) the original, and any action, spec or
    experiment config stays hashable whatever parameter shapes it
    carries.
    """
    if isinstance(value, dict):
        return tuple(sorted((str(key), _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class VehicleAction:
    """One timed, declarative action in a vehicle's script.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs
    with sequence values frozen to tuples, so actions are hashable,
    picklable and serialise canonically (including through JSON).
    """

    time: float
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Canonical float time: the columnar transfer codec stores times
        # in IEEE-754 double columns, so int-valued times would decode
        # as floats -- coercing here keeps a spec identical whichever
        # transfer mode carried it (and 0 == 0.0, so equality of
        # existing callers is unchanged).
        object.__setattr__(self, "time", float(self.time))
        items = self.params.items() if isinstance(self.params, dict) else self.params
        pairs = tuple(sorted((str(key), _freeze(value)) for key, value in items))
        object.__setattr__(self, "params", pairs)

    def param(self, key: str, default: object = None) -> object:
        """The named parameter, or *default* when absent."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {"time": self.time, "kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "VehicleAction":
        """Rebuild an action serialised by :meth:`to_dict`.

        Unknown keys are rejected rather than silently dropped -- a
        typo'd key in a hand-written spec would otherwise produce a
        subtly different fleet.
        """
        _check_fields(data, cls)
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class VehicleSpec:
    """A fully materialised, picklable description of one fleet vehicle.

    Every action is timed within the vehicle's ``duration_s`` (an action
    at exactly ``duration_s`` still runs): the kernel stops there, so a
    later action would silently never run.
    """

    vehicle_id: int
    scenario: str
    enforcement: str
    seed: int
    duration_s: float
    actions: tuple[VehicleAction, ...] = ()

    def __post_init__(self) -> None:
        # Same canonicalisation as VehicleAction.time: float durations
        # make the spec a fixed point of the columnar codec's double
        # columns, so fingerprints cannot differ between pickle and shm
        # transfer for hand-built int-valued specs.
        object.__setattr__(self, "duration_s", float(self.duration_s))
        for action in self.actions:
            if action.time > self.duration_s:
                raise ValueError(
                    f"vehicle {self.vehicle_id}: {action.kind!r} action at "
                    f"{action.time} s is after the vehicle's duration of "
                    f"{self.duration_s} s, so it would never run"
                )

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {
            "vehicle_id": self.vehicle_id,
            "scenario": self.scenario,
            "enforcement": self.enforcement,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VehicleSpec":
        """Rebuild a spec serialised by :meth:`to_dict` (unknown keys rejected)."""
        _check_fields(data, cls)
        return cls(
            vehicle_id=int(data["vehicle_id"]),
            scenario=str(data["scenario"]),
            enforcement=str(data["enforcement"]),
            seed=int(data["seed"]),
            duration_s=float(data["duration_s"]),
            actions=tuple(
                VehicleAction.from_dict(action) for action in data.get("actions", [])
            ),
        )


#: Builds one vehicle's action script from its index in the fleet, a
#: seeded per-vehicle rng and the scenario's parameters: every declared
#: name, with :meth:`FleetScenario.with_parameters` overrides applied.
ScriptFactory = Callable[[int, random.Random, dict], tuple[VehicleAction, ...]]


@dataclass(frozen=True)
class FleetScenario:
    """A named, parameterised fleet workload.

    Parameters
    ----------
    name:
        Registry key.
    description:
        One-line description shown by reports.
    duration_s:
        Simulated seconds each vehicle runs for.
    mix:
        ``(enforcement_label, weight)`` pairs; each vehicle draws its
        enforcement configuration from this distribution.
    script:
        Factory producing a vehicle's action script from its index, a
        per-vehicle seeded RNG and the scenario's parameter dict
        (:data:`ScriptFactory`).
    parameters:
        The scenario's tunable knobs and their defaults: the only names
        the script may read, and the only names :meth:`with_parameters`
        accepts.  An override changes the materialised fleet.
    """

    name: str
    description: str
    duration_s: float
    mix: tuple[tuple[str, float], ...]
    script: ScriptFactory = field(repr=False)
    parameters: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("scenario name must be non-empty")
        if self.duration_s <= 0:
            raise ValueError("scenario duration must be positive")
        for label, weight in self.mix:
            if label not in ENFORCEMENT_LABELS:
                raise ValueError(
                    f"unknown enforcement label {label!r}; known: {ENFORCEMENT_LABELS}"
                )
            if weight <= 0:
                raise ValueError(f"mix weight for {label!r} must be positive")

    def with_parameters(self, **overrides) -> "FleetScenario":
        """A copy with some declared parameters overridden; an undeclared
        name (which the script would never read) raises ValueError."""
        merged = dict(self.parameters)
        unknown = sorted(set(overrides) - set(merged))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"declared: {sorted(merged)}"
            )
        merged.update(overrides)
        return replace(self, parameters=tuple(sorted(merged.items())))

    def iter_vehicle_specs(
        self, vehicles: int, seed: int, first_vehicle_id: int = 0
    ) -> Iterator[VehicleSpec]:
        """Generate *vehicles* fully explicit specs, one at a time.

        Every randomised decision is drawn here from streams derived via
        :func:`~repro.fleet.kernel.derive_seed`, so the yielded specs --
        and therefore the whole fleet run -- are a pure function of
        ``(scenario, vehicles, seed)``.  Streaming is what keeps the
        parent O(chunk) at 10^5+ vehicles: the
        :class:`~repro.api.session.FleetSession` chunks this generator
        straight into worker submissions without ever holding the whole
        fleet (:meth:`vehicle_specs` is this stream, materialised).
        """
        if vehicles <= 0:
            raise ValueError("fleet size must be positive")
        return self._generate_specs(vehicles, seed, first_vehicle_id)

    def _generate_specs(
        self, vehicles: int, seed: int, first_vehicle_id: int
    ) -> Iterator[VehicleSpec]:
        labels = [label for label, _ in self.mix]
        weights = [weight for _, weight in self.mix]
        # A one-label mix always draws its label, and the mix stream is
        # used for nothing else, so skipping the draw leaves every spec
        # unchanged.
        only_label = labels[0] if len(labels) == 1 else None
        params = dict(self.parameters)
        for index in range(vehicles):
            vehicle_id = first_vehicle_id + index
            # Every per-vehicle draw (mix, script, sim seed) keys on the
            # vehicle id, never on batch position, so specs generated
            # in batches compose identically to one combined call.
            if only_label is None:
                mix_rng = random.Random(
                    derive_seed(seed, f"{self.name}/mix-{vehicle_id}")
                )
                enforcement = mix_rng.choices(labels, weights=weights, k=1)[0]
            else:
                enforcement = only_label
            script_rng = random.Random(
                derive_seed(seed, f"{self.name}/script-{vehicle_id}")
            )
            actions = self.script(index, script_rng, params)
            yield VehicleSpec(
                vehicle_id=vehicle_id,
                scenario=self.name,
                enforcement=enforcement,
                seed=derive_seed(seed, f"{self.name}/sim-{vehicle_id}"),
                duration_s=self.duration_s,
                actions=tuple(sorted(actions, key=lambda a: a.time)),
            )

    def vehicle_specs(
        self, vehicles: int, seed: int, first_vehicle_id: int = 0
    ) -> list[VehicleSpec]:
        """:meth:`iter_vehicle_specs`, materialised as a list."""
        return list(
            self.iter_vehicle_specs(vehicles, seed, first_vehicle_id=first_vehicle_id)
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, FleetScenario] = {}


def register_scenario(
    scenario: FleetScenario | None = None,
    replace_existing: bool = False,
    *,
    name: str | None = None,
    description: str = "",
    duration_s: float | None = None,
    mix: tuple[tuple[str, float], ...] | None = None,
    parameters: tuple[tuple[str, object], ...] | dict = (),
):
    """Register a scenario under its name; returns it for chaining.

    Two forms:

    * ``register_scenario(scenario)`` -- register an existing
      :class:`FleetScenario` object (the historical form).
    * As a decorator on a script factory, which builds and registers the
      scenario around the decorated function (its first docstring line
      becomes the description unless one is given explicitly)::

          @register_scenario(name="rush_hour", duration_s=0.3,
                             mix=(("hpe+selinux", 1.0),),
                             parameters={"accel": 90})
          def rush_hour(index, rng, params):
              '''Dense commuter traffic.'''
              return (VehicleAction(0.0, "drive", {"accel": params["accel"]}),)

      The decorator returns the registered :class:`FleetScenario` (not
      the bare function), so the module attribute is the scenario itself.
    """
    if scenario is not None:
        if not isinstance(scenario, FleetScenario):
            raise TypeError(
                "register_scenario takes a FleetScenario positionally; use "
                "keyword arguments (name=, duration_s=, mix=) for the "
                "decorator form"
            )
        if scenario.name in _REGISTRY and not replace_existing:
            raise ValueError(f"scenario {scenario.name!r} is already registered")
        _REGISTRY[scenario.name] = scenario
        return scenario

    if name is None or duration_s is None or mix is None:
        raise TypeError(
            "the decorator form of register_scenario requires name=, "
            "duration_s= and mix= keyword arguments"
        )

    def decorate(script: ScriptFactory) -> FleetScenario:
        doc = (script.__doc__ or "").strip().splitlines()
        built = FleetScenario(
            name=name,
            description=description or (doc[0] if doc else ""),
            duration_s=duration_s,
            mix=tuple(mix),
            script=script,
            parameters=tuple(sorted(dict(parameters).items())),
        )
        return register_scenario(built, replace_existing=replace_existing)

    return decorate


@contextmanager
def temporary_scenario(scenario: FleetScenario) -> Iterator[FleetScenario]:
    """Register *scenario* for the duration of a ``with`` block only.

    Tests and benchmarks used to mutate the global registry and leak
    entries (or clobber built-ins) when an assertion failed before the
    cleanup ran.  This context manager registers on entry -- shadowing
    any existing scenario of the same name -- and restores the previous
    registry state on exit, exception or not::

        with temporary_scenario(my_scenario):
            FleetSession(config).run()
    """
    previous = _REGISTRY.get(scenario.name)
    _REGISTRY[scenario.name] = scenario
    try:
        yield scenario
    finally:
        if previous is None:
            _REGISTRY.pop(scenario.name, None)
        else:
            _REGISTRY[scenario.name] = previous


def unregister_scenario(name: str) -> FleetScenario:
    """Remove and return the named scenario."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise KeyError(f"no registered scenario {name!r}") from None


def get_scenario(name: str) -> FleetScenario:
    """The registered scenario with the given name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no registered scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def registered_scenarios() -> Iterator[FleetScenario]:
    """All registered scenarios in name order."""
    return iter(sorted(_REGISTRY.values(), key=lambda s: s.name))


# ---------------------------------------------------------------------------
# Built-in workloads
# ---------------------------------------------------------------------------


def _baseline_cruise_script(
    index: int, rng: random.Random, params: dict
) -> tuple[VehicleAction, ...]:
    """Heterogeneous steady driving: pure frame-throughput workload."""
    return (
        VehicleAction(0.0, "drive", {"accel": rng.randint(*params["accel_range"])}),
    )


def _replay_storm_script(
    index: int, rng: random.Random, params: dict
) -> tuple[VehicleAction, ...]:
    """Capture door-unlock traffic while parked, replay it in motion."""
    capture_at = round(rng.uniform(0.01, 0.05), 4)
    replay_at = round(rng.uniform(0.15, 0.25), 4)
    return (
        VehicleAction(
            capture_at,
            "replay",
            {
                "capture_duration_s": 0.1,
                "messages": params["replay_messages"],
            },
        ),
        VehicleAction(replay_at, "attack", {"threat_id": "T13"}),
    )


def _ota_rollout_script(
    index: int, rng: random.Random, params: dict
) -> tuple[VehicleAction, ...]:
    """Staggered post-deployment policy update under an active attacker."""
    update_at = round(rng.uniform(*params["update_window_s"]), 4)
    return (
        VehicleAction(0.0, "drive", {"accel": rng.randint(40, 80)}),
        VehicleAction(0.05, "attack", {"threat_id": "T01"}),
        VehicleAction(update_at, "policy_update", {"description": "staggered OTA wave"}),
        VehicleAction(update_at + 0.05, "attack", {"threat_id": "T05"}),
    )


def _mixed_ev_dos_script(
    index: int, rng: random.Random, params: dict
) -> tuple[VehicleAction, ...]:
    """Targeted disablement plus arbitration flooding against the EV fleet."""
    target = rng.choice(params["dos_targets"])
    return (
        VehicleAction(0.0, "drive", {"accel": rng.randint(50, 90)}),
        VehicleAction(
            round(rng.uniform(0.02, 0.08), 4),
            "targeted_dos",
            {"target": target, "repetitions": rng.randint(2, 5)},
        ),
        VehicleAction(
            round(rng.uniform(0.1, 0.2), 4),
            "flood",
            {"frames": rng.randint(30, 80), "window_s": 0.1, "flood_id": 0},
        ),
    )


def _fuzz_probe_script(
    index: int, rng: random.Random, params: dict
) -> tuple[VehicleAction, ...]:
    """Seeded random-frame fuzzing as a fleet-wide coverage probe."""
    return (
        VehicleAction(0.0, "drive", {"accel": rng.randint(30, 70)}),
        VehicleAction(0.05, "fuzz", {"frames": rng.randint(*params["frames_range"])}),
    )


register_scenario(
    FleetScenario(
        name="baseline_cruise",
        description="Steady heterogeneous driving; pure throughput baseline",
        duration_s=0.3,
        mix=(("hpe+selinux", 1.0),),
        script=_baseline_cruise_script,
        parameters=(("accel_range", (30, 90)),),
    )
)

register_scenario(
    FleetScenario(
        name="fleet_replay_storm",
        description="Fleet-wide replay of captured door-lock traffic in motion",
        duration_s=0.35,
        mix=(("hpe+selinux", 0.7), ("unprotected", 0.3)),
        script=_replay_storm_script,
        parameters=(("replay_messages", ("DOOR_UNLOCK_CMD", "DOOR_LOCK_CMD")),),
    )
)

register_scenario(
    FleetScenario(
        name="staggered_ota_rollout",
        description="Staggered post-deployment policy update under active attack",
        duration_s=0.45,
        mix=(("hpe+selinux", 1.0),),
        script=_ota_rollout_script,
        parameters=(("update_window_s", (0.08, 0.3)),),
    )
)

register_scenario(
    FleetScenario(
        name="mixed_ev_dos",
        description="Targeted EV disablement and bus flooding across a mixed fleet",
        duration_s=0.35,
        mix=(
            ("hpe+selinux", 0.4),
            ("hpe-only", 0.2),
            ("selinux-only", 0.2),
            ("unprotected", 0.2),
        ),
        script=_mixed_ev_dos_script,
        parameters=(("dos_targets", ("EV-ECU", "Engine", "EPS")),),
    )
)

register_scenario(
    FleetScenario(
        name="fuzz_probe",
        description="Seeded random-frame fuzzing as a fleet coverage probe",
        duration_s=0.3,
        mix=(("hpe+selinux", 0.5), ("hpe-only", 0.5)),
        script=_fuzz_probe_script,
        parameters=(("frames_range", (40, 120)),),
    )
)
