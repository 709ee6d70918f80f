"""Per-layer host-time attribution for a traced fleet run.

The tracer wraps the public entry points of the repo's modules (one
*layer* per module) from outside the program: it replaces class and
module attributes with timing wrappers and puts every original back on
:meth:`Tracer.uninstall`.  A wrapper opens a span on entry and closes it
on exit; a layer's ``self`` time is the duration of its spans minus the
part of them covered by nested spans, so the self times of all layers
add up exactly to the time spent inside outermost spans.

Spans are aggregated in memory, not stored one by one (a fleet run
opens millions of them): per layer, self seconds and entries from
another layer; per wrapped function, calls, summed return values and
inclusive seconds; and per simulated vehicle, the self seconds each
layer spent on it (keyed by vehicle id, written out by the caller at
the end of the run).

Install the tracer before the first car is built: ECU receive hooks
and periodic-send partials bind their methods when a car is
constructed, so a car built earlier keeps calling the unwrapped code.
"""

from __future__ import annotations

import inspect
import time
from importlib import import_module

#: Traced layers, one per module of the repo.
LAYERS = (
    "api.session",
    "fleet.scenarios",
    "fleet.transfer",
    "fleet.results",
    "fleet.runner",
    "casestudy.pool",
    "fleet.kernel",
    "can.scheduler",
    "can.bus",
    "can.node",
    "vehicle",
    "hpe",
    "core",
    "selinux",
    "attacks",
)

#: ``(layer, module, owner class or None for a module attribute,
#: attribute, kind)``.  Kinds: ``call`` times the call; ``sum`` also
#: adds the (integer) return value to the function's total; ``iter``
#: times every pull from the returned iterator and counts the items;
#: ``vehicle`` is a ``call`` whose first argument is a vehicle spec, and
#: books the layer time spent inside it to that vehicle.  A function
#: the program imports by name into another module is listed once per
#: module that holds it.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str, str], ...] = (
    ("api.session", "repro.api.session", "FleetSession", "run", "call"),
    ("api.session", "repro.api.session", "FleetSession", "run_config", "call"),
    ("fleet.scenarios", "repro.fleet.scenarios", "FleetScenario", "iter_vehicle_specs", "iter"),
    ("fleet.transfer", "repro.fleet.transfer", "SpecBlock", "encode", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "SpecBlock", "decode", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "SpecBlock", "to_bytes", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "SpecBlock", "from_bytes", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "OutcomeBlock", "encode", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "OutcomeBlock", "decode", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "OutcomeBlock", "to_bytes", "call"),
    ("fleet.transfer", "repro.fleet.transfer", "OutcomeBlock", "from_bytes", "call"),
    ("fleet.transfer", "repro.fleet.transfer", None, "write_block", "call"),
    ("fleet.transfer", "repro.fleet.transfer", None, "read_block", "call"),
    ("fleet.transfer", "repro.fleet.transfer", None, "discard_segment", "call"),
    ("fleet.transfer", "repro.api.session", None, "write_block", "call"),
    ("fleet.transfer", "repro.api.session", None, "read_block", "call"),
    ("fleet.transfer", "repro.api.session", None, "discard_segment", "call"),
    ("fleet.results", "repro.fleet.results", "StreamingFleetAggregator", "add", "call"),
    ("fleet.results", "repro.fleet.results", "StreamingFleetAggregator", "result", "call"),
    ("fleet.runner", "repro.fleet.runner", None, "simulate_vehicle", "vehicle"),
    ("fleet.runner", "repro.api.session", None, "simulate_vehicle", "vehicle"),
    ("casestudy.pool", "repro.casestudy.builder", "CarPool", "acquire", "call"),
    ("casestudy.pool", "repro.casestudy.builder", "CaseStudyBuilder", "build_car", "call"),
    ("fleet.kernel", "repro.fleet.kernel", "FleetKernel", "run", "sum"),
    ("can.scheduler", "repro.can.scheduler", "EventScheduler", "run", "sum"),
    ("can.bus", "repro.can.bus", "CANBus", "submit", "call"),
    ("can.bus", "repro.can.bus", "CANBus", "_complete_transmission", "call"),
    ("can.bus", "repro.can.bus", "CANBus", "attach", "call"),
    ("can.bus", "repro.can.bus", "CANBus", "detach", "call"),
    ("can.node", "repro.can.node", "CANNode", "send", "call"),
    ("can.node", "repro.can.node", "CANNode", "wire_receive", "call"),
    ("vehicle", "repro.vehicle.ecu", "VehicleECU", "_dispatch", "call"),
    ("vehicle", "repro.vehicle.ecu", "VehicleECU", "_periodic_send_message", "call"),
    ("vehicle", "repro.vehicle.ecu", "VehicleECU", "send_message", "call"),
    ("vehicle", "repro.vehicle.ecu", "VehicleECU", "send_raw", "call"),
    ("vehicle", "repro.vehicle.car", "ConnectedCar", "sync_enforcement", "call"),
    ("vehicle", "repro.vehicle.car", "ConnectedCar", "park_and_arm", "call"),
    ("vehicle", "repro.vehicle.car", "ConnectedCar", "health", "call"),
    ("hpe", "repro.hpe.engine", "HardwarePolicyEngine", "permit_read", "call"),
    ("hpe", "repro.hpe.engine", "HardwarePolicyEngine", "permit_write", "call"),
    ("hpe", "repro.hpe.engine", "HardwarePolicyEngine", "update_policy", "call"),
    ("hpe", "repro.hpe.engine", "HardwarePolicyEngine", "install_compiled_table", "call"),
    ("hpe", "repro.hpe.engine", "HardwarePolicyEngine", "reset_for_reuse", "call"),
    ("core", "repro.core.enforcement", "EnforcementCoordinator", "sync", "call"),
    ("core", "repro.core.enforcement", "EnforcementCoordinator", "apply_policy", "call"),
    ("core", "repro.core.enforcement", "EnforcementCoordinator", "fit", "call"),
    ("core", "repro.core.updates", "PolicyUpdateClient", "apply", "call"),
    ("core", "repro.core.updates", "PolicyUpdateBundle", "create", "call"),
    ("core", "repro.core.policy", "SecurityPolicy", "next_version", "call"),
    ("selinux", "repro.selinux.hooks", "SoftwareEnforcementPoint", "check_operation", "call"),
    ("selinux", "repro.selinux.policy_store", "ModularPolicyStore", "install", "call"),
    ("attacks", "repro.attacks.scenarios", "AttackScenario", "execute", "call"),
    ("attacks", "repro.attacks.dos", "TargetedDisableAttack", "execute", "call"),
    ("attacks", "repro.attacks.dos", "BusFloodAttack", "execute", "call"),
    ("attacks", "repro.attacks.replay", "ReplayAttack", "capture", "call"),
    ("attacks", "repro.attacks.replay", "ReplayAttack", "replay", "call"),
    ("attacks", "repro.attacks.fuzzing", "FuzzingAttack", "execute", "call"),
)

_MISSING = object()


class Tracer:
    """Install timing wrappers on :data:`ENTRY_POINTS` and aggregate spans."""

    def __init__(self) -> None:
        self._layer_index = {name: i for i, name in enumerate(LAYERS)}
        #: Per layer: self seconds, and spans entered from another layer.
        self.self_s = [0.0] * len(LAYERS)
        self.entries = [0] * len(LAYERS)
        #: Per wrapped function (keyed by its qualified name in
        #: :attr:`slots`): calls, summed return values / yielded items,
        #: and inclusive seconds.
        self.slots: dict[str, int] = {}
        self.calls: list[int] = []
        self.returned: list[int] = []
        self.inclusive: list[float] = []
        #: Open spans, innermost last: ``[child seconds, layer index]``.
        #: The bottom entry collects the duration of outermost spans.
        self._root = [0.0, -1]
        self._stack = [self._root]
        #: ``vehicle id -> {layer: self seconds spent on that vehicle}``.
        self.per_vehicle: dict[int, dict[str, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point (idempotence is refused: install once)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, module_name, owner_name, attribute, kind in ENTRY_POINTS:
            module = import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attribute)
            function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            slot = self._slot(f"{function.__module__}.{function.__qualname__}")
            wrapper = self._wrap(function, self._layer_index[layer], slot, kind)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, wrapper)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse installation order."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    @staticmethod
    def unrestored() -> list[str]:
        """Entry points whose attribute is not the program's own function.

        Empty when nothing is installed: every attribute holds the
        function its module defined (a wrapper's qualified name names
        this module instead).
        """
        bad = []
        for _layer, module_name, owner_name, attribute, _kind in ENTRY_POINTS:
            module = import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attribute)
            function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if function.__module__ == __name__:
                bad.append(f"{module_name}.{owner_name or ''}.{attribute}")
        return bad

    def _slot(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = len(self.calls)
            self.calls.append(0)
            self.returned.append(0)
            self.inclusive.append(0.0)
        return slot

    # -- accounting -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator in place (wrappers hold the same lists)."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot reset the tracer inside an open span")
        for values in (self.self_s, self.inclusive):
            values[:] = [0.0] * len(values)
        for counts in (self.entries, self.calls, self.returned):
            counts[:] = [0] * len(counts)
        self._root[0] = 0.0
        self.per_vehicle.clear()

    @property
    def root_s(self) -> float:
        """Seconds spent inside outermost spans (= the sum of all self times)."""
        return self._root[0]

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer."""
        return dict(zip(LAYERS, self.self_s))

    def layer_entries(self, layer: str) -> int:
        """Spans of *layer* opened from another layer (or from outside)."""
        return self.entries[self._layer_index[layer]]

    def function(self, qualified_name: str) -> tuple[int, int, float]:
        """``(calls, returned, inclusive seconds)`` of one wrapped function."""
        slot = self.slots.get(qualified_name)
        if slot is None:
            return 0, 0, 0.0
        return self.calls[slot], self.returned[slot], self.inclusive[slot]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, function, layer: int, slot: int, kind: str):
        stack = self._stack
        self_s = self.self_s
        entries = self.entries
        calls = self.calls
        returned = self.returned
        inclusive = self.inclusive
        clock = time.perf_counter

        def close(frame: list, parent: list, elapsed: float) -> None:
            stack.pop()
            self_s[layer] += elapsed - frame[0]
            parent[0] += elapsed
            calls[slot] += 1
            inclusive[slot] += elapsed
            if parent[1] != layer:
                entries[layer] += 1

        def call(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                # close() inlined: this runs millions of times per fleet,
                # and the wrapper's own cost lands on the parent layer.
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                parent[0] += elapsed
                calls[slot] += 1
                inclusive[slot] += elapsed
                if parent[1] != layer:
                    entries[layer] += 1

        if kind == "call":
            return call

        if kind == "sum":

            def summed(*args, **kwargs):
                result = call(*args, **kwargs)
                returned[slot] += result
                return result

            return summed

        if kind == "vehicle":
            per_vehicle = self.per_vehicle

            def vehicle(spec, *args, **kwargs):
                before = self_s[:]
                try:
                    return call(spec, *args, **kwargs)
                finally:
                    spent = {
                        LAYERS[i]: after - was
                        for i, (after, was) in enumerate(zip(self_s, before))
                        if after != was
                    }
                    per_vehicle[spec.vehicle_id] = spent

            return vehicle

        if kind == "iter":

            def pulls(iterator):
                while True:
                    parent = stack[-1]
                    frame = [0.0, layer]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(frame, parent, clock() - start)
                    returned[slot] += 1
                    yield item

            def iterate(*args, **kwargs):
                return pulls(call(*args, **kwargs))

            return iterate

        raise ValueError(f"unknown entry-point kind {kind!r}")
