"""CAN bus substrate.

A message-level simulation of the Controller Area Network bus used by
the paper's connected-car case study (Figs. 2-3).  The simulation is
faithful at the level the security mechanisms operate on: frame
identifiers, read/write direction, broadcast delivery, priority
arbitration and acceptance filtering.  The physical layer (differential
signalling, bit stuffing) is abstracted to a per-frame bit-length used
only for timing.

Modules
-------
* :mod:`repro.can.frame` -- CAN data/remote frames.
* :mod:`repro.can.errors` -- exception hierarchy.
* :mod:`repro.can.scheduler` -- deterministic discrete-event simulator.
* :mod:`repro.can.filters` -- mask/ID acceptance filters (software).
* :mod:`repro.can.trace` -- bus activity trace for analysis.
* :mod:`repro.can.transceiver` -- CAN transceiver model.
* :mod:`repro.can.controller` -- CAN controller with error counters.
* :mod:`repro.can.bus` -- the shared broadcast bus with arbitration.
* :mod:`repro.can.fanout` -- receive-state epoch and pending tallies of
  the bus's compiled receive fan-out.
* :mod:`repro.can.node` -- a complete CAN node (transceiver + controller
  + processor application), with optional policy-engine hooks.
"""

from repro.can.bus import BusStatistics, CANBus
from repro.can.controller import CANController, ControllerState
from repro.can.errors import (
    BusOffError,
    CANError,
    FilterRejectedError,
    FrameError,
    InvalidFrameError,
    NodeDetachedError,
)
from repro.can.filters import AcceptanceFilter, FilterBank
from repro.can.frame import CANFrame, FrameKind
from repro.can.node import ApplicationHooks, CANNode, PolicyHook
from repro.can.scheduler import Event, EventScheduler
from repro.can.trace import BusTrace, TraceEventKind, TraceLevel, TraceRecord
from repro.can.transceiver import CANTransceiver

__all__ = [
    "AcceptanceFilter",
    "ApplicationHooks",
    "BusOffError",
    "BusStatistics",
    "BusTrace",
    "CANBus",
    "CANController",
    "CANError",
    "CANFrame",
    "CANNode",
    "CANTransceiver",
    "ControllerState",
    "Event",
    "EventScheduler",
    "FilterBank",
    "FilterRejectedError",
    "FrameError",
    "FrameKind",
    "InvalidFrameError",
    "NodeDetachedError",
    "PolicyHook",
    "TraceEventKind",
    "TraceLevel",
    "TraceRecord",
]
