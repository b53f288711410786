"""The ingress plane's clock: a thin facade over one simulator.

A wall-clock event loop cannot give the repo's core guarantee — *same
seed, byte-identical run* — because its ready-queue interleaving depends
on host timing.  The plane is therefore written as plain callbacks on
:class:`repro.net.simulator.Simulator`, whose heap orders them by
``(time, insertion_seq)``: the plane's interleaving is a pure function
of the event timeline.  :class:`SimRuntime` is the handle the plane, the
chaos runner and the benchmark share, so ingress, chaos and net code run
on one clock.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.simulator import EventHandle, Simulator


class SimRuntime:
    """The clock facade over one :class:`Simulator`."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now

    def call_at(self, at_s: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule a plain callback at an absolute virtual time."""
        return self.sim.schedule_at(at_s, callback)

    def run_until(self, t_end_s: float) -> None:
        """Drive the simulator to ``t_end_s``."""
        self.sim.run_until(t_end_s)
