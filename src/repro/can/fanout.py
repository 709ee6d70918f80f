"""Receive-state epoch and pending fan-out tallies.

At ``COUNTERS`` retention a bus lowers its receive fan-out for a
standard-id frame into a plan per ``(sender, can_id)`` (see
:class:`repro.can.bus.FanoutPlan`): everything the fused delivery loop
decides per receiver -- transceiver on/off, compiled HPE read permit,
software acceptance filter, which counters move -- is fixed until some
node's receive state changes.  A planned frame only appends to the
inboxes it reaches, calls their receive hooks and bumps its plan's
frame tally; the counters that tally stands for are expanded later by
:func:`settle`.

This module holds the two process-wide pieces of state that make that
safe:

* :data:`epoch` -- every mutator of receive state calls
  :func:`invalidate`, which moves it; a bus drops every plan it holds
  when it sees the epoch has moved.  The epoch can only over-invalidate:
  a mutation nobody's plan depended on costs a recompile, never a stale
  decision.  An HPE's side of receive state is its read decision: a
  table install moves the epoch only when the read mask or read
  overflow changes, a policy push whose lists equal the installed ones
  keeps the table and moves nothing, and clearing a table or resetting
  decision counters always moves it (see
  :class:`~repro.hpe.engine.HardwarePolicyEngine`).
* :data:`pending` -- the plans holding tallies not yet expanded.
  :func:`settle` expands them; it runs when
  :meth:`~repro.can.scheduler.EventScheduler.run` or
  :meth:`~repro.can.scheduler.EventScheduler.step` returns, before every
  :class:`~repro.can.trace.BusTrace` count query, and inside
  :func:`invalidate` *before* the mutation it announces -- so a counter
  reset or trace clear never races a pending tally.  Counter attributes
  (node, controller, transceiver, decision-block and bus statistics) are
  therefore exact whenever no event is executing; read inside an event
  callback they may lag until ``run()`` returns.

Like the rest of the simulation, this state assumes one simulating
thread per process (fleet workers are processes).
"""

from __future__ import annotations

#: Process-wide receive-state epoch (see :func:`invalidate`).
epoch = 0

#: Plans with tallies not yet expanded into the counters they stand for.
#: A plan may appear more than once; expanding it twice is a no-op.
pending: list = []


def settle() -> None:
    """Expand every pending tally into the counters it stands for.

    A plan whose frame is still being delivered (a receive hook is
    running) expands the part of that frame already handled and stays
    pending for the rest.
    """
    if not pending:
        return
    for plan in pending:
        plan.expand()
    pending[:] = [plan for plan in pending if plan.open]


def invalidate() -> None:
    """Announce a receive-state change: settle, then move the epoch.

    Callers invoke this *before* they mutate, so every tally taken under
    the old state lands in the counters it was taken against.
    """
    global epoch
    settle()
    epoch += 1
