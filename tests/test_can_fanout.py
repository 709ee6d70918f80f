"""Compiled receive fan-out: counter-exact against the object path.

A counters-only bus serves repeated ``(sender, can_id)`` frames from
:class:`~repro.can.bus.FanoutPlan` records and expands their counter
deltas lazily (see :mod:`repro.can.fanout`).  That is admissible only
if no counter can tell: these tests run a counters-only bus with
compiled tables and a FULL-trace twin whose engines hold no tables --
every receiver through :meth:`~repro.can.node.CANNode.wire_receive` --
through the same random interleaving of frames (standard and extended
ids) and every receive-state mutator, applied between runs, from
scheduled events while tallies are pending, and from receive hooks in
the middle of a frame.  After every run each side must report the same
trace summary (key order included), per-node and per-id counts, node,
controller, transceiver and decision-block counters, bus statistics,
received ids, inbox contents and hook calls.

A second property drives two pooled connected cars the same way
(compiled counters versus the uncompiled FULL object path) across
``CarPool`` resets, rogue nodes and policy re-syncs.
"""

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentConfig, FleetSession
from repro.attacks.attacker import MaliciousNode
from repro.can.bus import CANBus
from repro.can.frame import MAX_STANDARD_ID, CANFrame
from repro.can.node import ApplicationHooks, CANNode
from repro.can.scheduler import EventScheduler
from repro.can.trace import TraceEventKind, TraceLevel
from repro.casestudy.builder import CaseStudyBuilder
from repro.core.compiled import CompiledDecisionTable, build_mask
from repro.core.enforcement import EnforcementConfig
from repro.hpe.engine import HardwarePolicyEngine

KEY = 0xC0FFEE

STANDARD_IDS = (0x010, 0x020, 0x030, 0x0F0, 0x7FF)
EXTENDED_IDS = (0x800, 0x1ABCDE)
IDS = STANDARD_IDS + EXTENDED_IDS

#: Read sets an engine's policy moves between (writes are always open).
READ_SETS = (
    frozenset({0x010, 0x020}),
    frozenset({0x030, 0x0F0, 0x7FF, 0x800}),
    frozenset(IDS),
)

NAMES = ("a", "b", "c", "d", "e")
ENGINE_NAMES = ("a", "c", "e")
ROGUE = "rogue"
KINDS = list(TraceEventKind)


def _table(name: str, reads, writes) -> CompiledDecisionTable:
    return CompiledDecisionTable(
        node=name,
        read_mask=build_mask(reads),
        write_mask=build_mask(writes),
        read_overflow=frozenset(i for i in reads if i > MAX_STANDARD_ID),
        write_overflow=frozenset(i for i in writes if i > MAX_STANDARD_ID),
    )


class Side:
    """One bus of the twin: compiled counters-only, or the FULL object path."""

    def __init__(self, compiled: bool) -> None:
        self.compiled = compiled
        level = TraceLevel.COUNTERS if compiled else TraceLevel.FULL
        self.bus = CANBus(EventScheduler(), trace_level=level)
        #: ``(hook, node, can_id)`` per application hook call, in order.
        self.log: list[tuple[str, str, int]] = []
        #: Node name -> mutator its next ``on_receive`` runs mid-frame.
        self.armed: dict[str, tuple] = {}
        self.nodes: dict[str, CANNode] = {}
        self.engines: dict[str, HardwarePolicyEngine] = {}
        self.reads: dict[str, frozenset[int]] = {}
        for index, name in enumerate(NAMES):
            engine = None
            if name in ENGINE_NAMES:
                self.reads[name] = READ_SETS[index % len(READ_SETS)]
                engine = HardwarePolicyEngine(
                    name, approved_reads=self.reads[name], approved_writes=IDS
                )
                self.engines[name] = engine
                self._install(name)
            node = CANNode(
                name,
                policy_engine=engine,
                hooks=ApplicationHooks(on_receive=partial(self._received, name)),
            )
            if name in ("b", "c"):
                node.controller.rx_filters.set_default_reject()
                node.controller.rx_filters.add_exact(0x010)
                node.controller.rx_filters.add_exact(0x7FF)
                node.controller.rx_filters.add_exact(0x800, extended=True)
            node.controller.rx_filters.compile_mask()
            self.bus.attach(node)
            self.nodes[name] = node
        self.nodes[ROGUE] = CANNode(
            ROGUE, hooks=ApplicationHooks(on_receive=partial(self._received, ROGUE))
        )

    # -- hooks --------------------------------------------------------------------

    def _received(self, name: str, frame: CANFrame) -> None:
        self.log.append(("receive", name, frame.can_id))
        op = self.armed.pop(name, None)
        if op is not None:
            self.apply(op)

    def _blocked(self, name: str, frame: CANFrame, reason: str) -> None:
        self.log.append((reason, name, frame.can_id))

    # -- operations -------------------------------------------------------------------

    def _install(self, name: str) -> None:
        if self.compiled:
            self.engines[name].install_compiled_table(_table(name, self.reads[name], IDS))

    def apply(self, op: tuple) -> None:
        kind, *args = op
        bus = self.bus
        node = self.nodes.get(args[0]) if args and isinstance(args[0], str) else None
        if kind == "send":
            _, can_id, count = args
            if node.bus is None:
                return
            for i in range(count):
                node.send(CANFrame(can_id, bytes([i]), extended=can_id > MAX_STANDARD_ID))
        elif kind == "run":
            bus.run(args[0])
        elif kind == "standby":
            node.transceiver.standby()
        elif kind == "enable":
            node.transceiver.enable()
        elif kind == "filter_add":
            node.controller.rx_filters.add_exact(args[1], extended=args[1] > MAX_STANDARD_ID)
        elif kind == "filter_reject":
            node.controller.rx_filters.set_default_reject()
        elif kind == "filter_accept":
            node.controller.rx_filters.set_default_accept()
        elif kind == "filter_clear":
            node.controller.rx_filters.clear()
        elif kind == "filter_compile":
            node.controller.rx_filters.compile_mask()
        elif kind == "filter_compromise":
            node.controller.rx_filters.compromise()
        elif kind == "filter_restore":
            node.controller.rx_filters.restore()
        elif kind == "compromise":
            node.compromise_firmware()
        elif kind == "restore":
            node.restore_firmware()
        elif kind == "policy":
            # An equal or a different read set; only the compiled side
            # re-installs a table (the twin stays on the object path).
            name, index, install = args
            self.reads[name] = READ_SETS[index]
            assert self.engines[name].update_policy(self.reads[name], IDS, key=KEY)
            if install:
                self._install(name)
        elif kind == "clear_table":
            self.engines[args[0]].clear_compiled_table()
        elif kind == "drop_engine":
            node.policy_engine = None
        elif kind == "rx_error":
            node.controller.record_rx_error()
        elif kind == "inbox_limit":
            node.set_inbox_limit(args[1])
        elif kind == "hook_blocked":
            node.hooks.on_receive_blocked = partial(self._blocked, args[0]) if args[1] else None
        elif kind == "clear_trace":
            bus.trace.clear()
        elif kind == "query":
            self.log.append(("query", "", len(bus.trace)))
        elif kind == "rogue_attach":
            if ROGUE not in bus.node_names():
                bus.attach(self.nodes[ROGUE])
        elif kind == "rogue_detach":
            if ROGUE in bus.node_names():
                bus.detach(ROGUE)
        elif kind == "reset":
            # What pool reuse does: rogue off, bus and nodes rewound,
            # engines reset and re-synced.
            if ROGUE in bus.node_names():
                bus.detach(ROGUE)
            bus.reset()
            for name in NAMES:
                self.nodes[name].reset_for_reuse()
            for name, engine in self.engines.items():
                engine.reset_for_reuse()
                assert engine.update_policy(self.reads[name], IDS, key=KEY)
                self._install(name)
        elif kind == "later":
            bus.scheduler.schedule(args[0], partial(self.apply, args[1]))
        elif kind == "arm":
            self.armed[args[0]] = args[1]
        else:  # pragma: no cover - strategy and harness out of step
            raise AssertionError(op)


def snapshot(bus: CANBus, nodes, engines, log=()) -> dict:
    """Every counter the bus, its nodes and their engines expose.

    Attributes are read before any trace query: a query settles pending
    tallies, so reading them first checks that ``run()`` settled them.
    """
    state = {
        "statistics": repr(bus.statistics),
        "nodes": {
            node.name: (
                dataclasses.astuple(node.counters),
                node.controller.frames_accepted,
                node.controller.frames_rejected,
                node.controller.frames_transmitted,
                node.controller.tx_error_counter,
                node.controller.rx_error_counter,
                node.transceiver.frames_received,
                node.transceiver.frames_sent,
                node.received_ids(),
                list(node.inbox),
            )
            for node in nodes
        },
        "engines": {
            name: [
                (block.decisions_made, block.grants, block.blocks, repr(block.total_latency_s))
                for block in (engine._read_block, engine._write_block)
            ]
            for name, engine in engines.items()
        },
        "log": list(log),
    }
    trace = bus.trace
    names = [node.name for node in nodes]
    return state | {
        "summary": list(trace.summary().items()),
        "len": len(trace),
        "blocked": (trace.blocked_count(), trace.policy_block_count(), trace.filter_block_count()),
        "per_node": {
            name: [trace.count_for_node(name, kind) for kind in KINDS]
            + [trace.count_for_node(name)]
            for name in names + [""]
        },
        "per_id": {
            can_id: [trace.count_for_frame_id(can_id, kind) for kind in KINDS]
            + [trace.count_for_frame_id(can_id)]
            for can_id in sorted(trace._id_counts)
        },
    }


def _side_snapshot(side: Side) -> dict:
    return snapshot(side.bus, list(side.nodes.values()), side.engines, side.log)


def run_twin(ops) -> tuple[Side, Side]:
    compiled, reference = Side(compiled=True), Side(compiled=False)
    for op in list(ops) + [("run", 1.0)]:
        compiled.apply(op)
        reference.apply(op)
        if op[0] == "run":
            assert _side_snapshot(compiled) == _side_snapshot(reference)
    return compiled, reference


names = st.sampled_from(NAMES)
ids = st.sampled_from(IDS)
mutators = st.one_of(
    st.tuples(st.just("standby"), names),
    st.tuples(st.just("enable"), names),
    st.tuples(st.just("filter_add"), names, ids),
    st.tuples(st.just("filter_reject"), names),
    st.tuples(st.just("filter_accept"), names),
    st.tuples(st.just("filter_clear"), names),
    st.tuples(st.just("filter_compile"), names),
    st.tuples(st.just("filter_compromise"), names),
    st.tuples(st.just("filter_restore"), names),
    st.tuples(st.just("compromise"), names),
    st.tuples(st.just("restore"), names),
    st.tuples(
        st.just("policy"),
        st.sampled_from(ENGINE_NAMES),
        st.integers(0, len(READ_SETS) - 1),
        st.booleans(),
    ),
    st.tuples(st.just("clear_table"), st.sampled_from(ENGINE_NAMES)),
    st.tuples(st.just("rx_error"), names),
    st.tuples(st.just("inbox_limit"), names, st.sampled_from((None, 1, 3))),
    st.tuples(st.just("hook_blocked"), names, st.booleans()),
    st.tuples(st.just("clear_trace")),
    st.tuples(st.just("query")),
)
#: Mutators that change the node set; not run from inside a receive
#: hook, where the object path's delivery loop would see its node
#: dict change size mid-iteration.
topology = st.one_of(
    st.tuples(st.just("rogue_attach")),
    st.tuples(st.just("rogue_detach")),
    st.tuples(st.just("reset")),
)
#: Few senders and ids, so plans are reused between mutations.
sends = st.tuples(
    st.just("send"),
    st.sampled_from(("a", "d", ROGUE)),
    st.sampled_from((0x010, 0x020, 0x7FF, 0x800)),
    st.integers(1, 4),
)
runs = st.tuples(st.just("run"), st.sampled_from((0.0003, 0.001, 0.004)))
mutations = st.one_of(
    mutators,
    topology,
    st.tuples(st.just("later"), st.sampled_from((0.0002, 0.0009)), st.one_of(mutators, topology)),
    st.tuples(st.just("arm"), names, mutators),
)


@st.composite
def operations(draw):
    """Rounds of frames, up to two mutations, and a run."""
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        ops += draw(st.lists(sends, min_size=1, max_size=3))
        ops += draw(st.lists(mutations, max_size=2))
        ops += draw(st.lists(sends, max_size=2))
        ops.append(draw(runs))
    return ops


class TestBusTwin:
    @settings(max_examples=300, deadline=None)
    @given(ops=operations())
    def test_counters_match_the_object_path(self, ops):
        run_twin(ops)

    def test_repeated_frames_run_on_plans(self):
        ops = [("send", "a", 0x010, 4), ("send", "b", 0x7FF, 4), ("run", 0.01)] * 3
        compiled, _ = run_twin(ops)
        bus = compiled.bus
        assert bus.fanout_plans >= 2
        assert bus.fanout_planned_frames > 0
        assert bus.fanout_planned_frames + bus.fanout_fused_frames == (
            bus.statistics.frames_transmitted
        )

    def test_every_step_settles(self):
        compiled, reference = Side(compiled=True), Side(compiled=False)
        for side in (compiled, reference):
            side.apply(("send", "d", 0x010, 4))
        while compiled.bus.scheduler.step():
            assert reference.bus.scheduler.step()
            assert _side_snapshot(compiled) == _side_snapshot(reference)
        assert compiled.bus.fanout_planned_frames == 3

    def test_object_path_twin_never_plans(self):
        ops = [("send", "a", 0x010, 4), ("run", 0.01)]
        _, reference = run_twin(ops)
        assert reference.bus.fanout_plans == 0
        assert reference.bus.fanout_planned_frames == 0

    def test_extended_ids_and_uncompiled_engines_take_the_fused_loop(self):
        ops = [("clear_table", "a"), ("send", "b", 0x010, 3)]
        ops += [("send", "b", 0x800, 3), ("run", 0.01)]
        compiled, _ = run_twin(ops)
        bus = compiled.bus
        assert bus.fanout_planned_frames == 0
        assert bus.fanout_fused_frames == bus.statistics.frames_transmitted == 6


#: Receive-state changes, each altering what warm plans for ``d``'s
#: frames decided: ``(setup, mutations)``, the setup applied before the
#: plans are compiled.
MUTATIONS = {
    "standby": ([], [("standby", "a")]),
    "enable": ([("standby", "a")], [("enable", "a")]),
    "filter_add": ([], [("filter_add", "b", 0x020)]),
    "filter_reject": ([], [("filter_reject", "a")]),
    "filter_accept": ([("filter_clear", "b")], [("filter_accept", "b")]),
    "filter_clear": ([], [("filter_clear", "b")]),
    "filter_compromise": ([], [("filter_compromise", "b")]),
    "filter_restore": ([("filter_compromise", "b")], [("filter_restore", "b")]),
    "compromise": ([], [("compromise", "b")]),
    "restore": ([("compromise", "b")], [("restore", "b")]),
    "policy": ([], [("policy", "a", 1, True)]),
    "clear_table": ([], [("clear_table", "a")]),
    "rx_error": ([], [("rx_error", "a")]),
    # Several errors: the deliveries after them keep moving the counter.
    "rx_errors": ([], [("rx_error", "a")] * 3),
    "inbox_limit": ([], [("inbox_limit", "a", 1)]),
    "hook_blocked": ([], [("hook_blocked", "e", True)]),
    "engine_rebind": ([], [("drop_engine", "e")]),
    "rogue_attach": ([], [("rogue_attach",)]),
    "rogue_detach": ([("rogue_attach",)], [("rogue_detach",)]),
    "reset": ([], [("reset",)]),
    "clear_trace": ([], [("clear_trace",)]),
}


class TestEveryMutator:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_between_planned_frames(self, name):
        setup, mutations = MUTATIONS[name]
        frames = [("send", "d", 0x010, 3), ("send", "d", 0x020, 3), ("run", 0.01)]
        compiled, _ = run_twin(setup + frames + mutations + frames)
        assert compiled.bus.fanout_planned_frames > 0


class TestMidFrame:
    def test_hook_compromises_a_later_receiver(self):
        # "b" rejects 0x020 in software; a hook on "a" (an earlier
        # receiver) compromises b's firmware while a planned 0x020
        # frame from "d" is being delivered, so b must accept it.
        ops = [("send", "d", 0x020, 3), ("run", 0.01)]
        ops += [("arm", "a", ("compromise", "b")), ("send", "d", 0x020, 3), ("run", 0.01)]
        compiled, reference = run_twin(ops)
        assert compiled.bus.fanout_planned_frames > 0
        b = compiled.nodes["b"]
        assert b.firmware_compromised
        assert b.received_ids() == [0x020, 0x020, 0x020]
        assert b.counters.receive_blocked_by_filter == 3
        assert _side_snapshot(compiled) == _side_snapshot(reference)

    def test_hook_query_settles_part_of_a_frame(self):
        ops = [("send", "d", 0x010, 3), ("run", 0.01)]
        ops += [("arm", "a", ("query",)), ("send", "d", 0x010, 3), ("run", 0.01)]
        compiled, reference = run_twin(ops)
        queries = [entry for entry in compiled.log if entry[0] == "query"]
        assert queries == [entry for entry in reference.log if entry[0] == "query"]
        assert compiled.bus.fanout_planned_frames > 0

    @pytest.mark.parametrize("warm", [False, True], ids=["compile-frame", "planned-frame"])
    def test_hook_clears_the_trace_mid_frame(self, warm):
        # Warm: the clear lands in a planned frame; cold: in the frame
        # that compiles the plan (the fused loop).
        ops = [("send", "d", 0x010, 3), ("run", 0.01)] if warm else []
        ops += [("arm", "a", ("clear_trace",)), ("send", "d", 0x010, 3), ("run", 0.01)]
        compiled, reference = run_twin(ops)
        assert compiled.bus.trace.count_for_frame_id(0x010) == (
            reference.bus.trace.count_for_frame_id(0x010)
        )

    def test_trace_clear_with_pending_tallies(self):
        # A scheduled event clears the trace while planned frames'
        # tallies are pending: node counters keep them, the trace
        # restarts at zero.
        compiled, reference = Side(compiled=True), Side(compiled=False)
        seen = {}
        for side in (compiled, reference):
            side.apply(("send", "d", 0x010, 6))

            def clear(side=side):
                received = side.nodes["a"].counters.received
                side.bus.trace.clear()
                settled = side.nodes["a"].counters.received
                seen[side.compiled] = (received, settled, len(side.bus.trace))

            side.bus.scheduler.schedule(0.0007, clear)
            side.bus.run(0.01)
        # Before the clear the compiled side's counter lagged (tallies
        # pending); the clear expanded them and the trace restarted.
        lagging, settled, cleared_len = seen[True]
        assert lagging < settled == seen[False][1]
        assert cleared_len == seen[False][2] == 0
        assert compiled.nodes["a"].counters.received == 6
        assert _side_snapshot(compiled) == _side_snapshot(reference)


class TestTelemetry:
    def test_planned_and_fused_frames_cover_every_transmission(self):
        config = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, workers=1, seed=4)
        with FleetSession(config, telemetry=True) as session:
            result = session.run()
            metrics = session.metrics_snapshot()
        planned = metrics.counter("bus.fanout.planned_frames")
        fused = metrics.counter("bus.fanout.fused_frames")
        assert planned + fused == result.frames_transmitted
        assert metrics.counter("bus.fanout.plans") > 0
        # Most of a heterogeneous fleet's frames repeat a plan.
        assert planned > fused

    def test_fanout_counters_stay_out_of_the_fingerprint(self):
        config = ExperimentConfig(scenario="mixed_ev_dos", vehicles=6, workers=1, seed=4)
        faithful = ExperimentConfig.faithful("mixed_ev_dos", 6, seed=4)
        with FleetSession(config, telemetry=True) as session:
            planned = session.run()
        with FleetSession(faithful) as session:
            reference = session.run()
        assert planned.fingerprint() == reference.fingerprint()


# -- connected cars through CarPool -------------------------------------------------------

ECUS = ("EV-ECU", "EPS", "Sensors", "Telematics", "Infotainment", "DoorLocks", "Gateway")


@pytest.fixture(scope="module")
def pools():
    builder = CaseStudyBuilder()
    return builder.pool(), builder.pool()


def _acquire(pools):
    compiled_pool, reference_pool = pools
    compiled = compiled_pool.acquire(
        EnforcementConfig.full(), trace_level=TraceLevel.COUNTERS, inbox_limit=4
    )
    reference = reference_pool.acquire(
        EnforcementConfig(compile_tables=False), trace_level=TraceLevel.FULL, inbox_limit=4
    )
    return compiled, reference


def _car_snapshot(car) -> dict:
    nodes = list(car.bus.nodes)
    return snapshot(car.bus, nodes, car.enforcement_coordinator.engines) | {
        "health": car.health(),
        "mode": car.mode,
    }


def _apply_car(car, op) -> None:
    kind, *args = op
    if kind == "run":
        car.run(args[0])
    elif kind == "send":
        car.ecu(args[0]).send_raw(args[1], b"\x01")
    elif kind == "rogue":
        name, can_id, count = args
        MaliciousNode(car, name=name).flood(can_id, count, b"\x01")
    elif kind == "rogue_detach":
        for name in list(car.bus.node_names()):
            if name not in car.node_names():
                car.bus.detach(name)
    elif kind == "compromise":
        car.ecus()[args[0]].compromise_firmware()
    elif kind == "restore":
        car.ecus()[args[0]].restore_firmware()
    elif kind == "standby":
        car.ecus()[args[0]].node.transceiver.standby()
    elif kind == "enable":
        car.ecus()[args[0]].node.transceiver.enable()
    elif kind == "rx_error":
        car.ecus()[args[0]].node.controller.record_rx_error()
    elif kind == "inbox_limit":
        car.ecus()[args[0]].node.set_inbox_limit(args[1])
    elif kind == "drive":
        car.sensors.set_pedals(accel=60, brake=0)
        car.sensors.set_gear(1)
        car.door_locks.set_motion(True)
        car.sync_enforcement()
    elif kind == "sync":
        car.sync_enforcement()
    elif kind == "ota":
        coordinator = car.enforcement_coordinator
        coordinator.apply_policy(coordinator.policy.next_version("ota"), car)
    elif kind == "park":
        car.park_and_arm()
    else:  # pragma: no cover
        raise AssertionError(op)


ecu_index = st.integers(0, 8)
car_ops = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.sampled_from((0.002, 0.01, 0.05))),
        st.tuples(
            st.just("send"), st.sampled_from(ECUS), st.sampled_from((0x010, 0x100, 0x2A0, 0x7FF))
        ),
        st.tuples(
            st.just("rogue"),
            st.sampled_from(("RogueA", "RogueB")),
            st.sampled_from((0x000, 0x0A0, 0x150, 0x7FE)),
            st.integers(1, 6),
        ),
        st.tuples(st.just("rogue_detach")),
        st.tuples(
            st.sampled_from(("compromise", "restore", "standby", "enable", "rx_error")), ecu_index
        ),
        st.tuples(st.just("inbox_limit"), ecu_index, st.sampled_from((None, 2))),
        st.tuples(st.sampled_from(("drive", "sync", "ota", "park"))),
        st.tuples(st.just("pool_reset")),
    ),
    max_size=16,
)


class TestPooledCars:
    @settings(max_examples=40, deadline=None)
    @given(ops=car_ops)
    def test_pooled_cars_match_the_object_path(self, pools, ops):
        compiled, reference = _acquire(pools)
        for op in list(ops) + [("run", 0.02)]:
            if op[0] == "pool_reset":
                compiled, reference = _acquire(pools)
            else:
                _apply_car(compiled, op)
                _apply_car(reference, op)
            assert _car_snapshot(compiled) == _car_snapshot(reference)
