"""Discrete-event simulation engine.

The engine is a classic event-heap kernel: callbacks are scheduled at
absolute simulated times and executed in non-decreasing time order.  Heap
entries are plain ``(time, seq, fn, args)`` tuples, so ordering is done by
C-level tuple comparison; ties at the same time break by insertion order
(``seq``) only, and runs are fully deterministic.

The engine is deliberately callback-based for speed -- the IDS testbed pushes
hundreds of thousands of packet events through it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import ScheduleError, SimulationError

__all__ = ["Engine"]


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in simulated seconds.

    Examples
    --------
    >>> eng = Engine()
    >>> seen = []
    >>> eng.schedule(1.0, seen.append, "a")
    >>> eng.schedule(0.5, seen.append, "b")
    >>> eng.schedule(1.0, seen.append, "c")
    >>> eng.run()
    1.0
    >>> seen
    ['b', 'a', 'c']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of heap entries; a pending stream counts as one."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ScheduleError(
                f"cannot schedule at t={time!r}; clock already at {self._now!r}"
            )
        if not callable(fn):
            raise ScheduleError(f"callback {fn!r} is not callable")
        heapq.heappush(self._heap, (float(time), self._seq, fn, args))
        self._seq += 1

    def schedule_stream(
        self,
        records,
        sink: Callable[..., Any],
        start_at: float = 0.0,
        speedup: float = 1.0,
    ) -> None:
        """Deliver a time-sorted record stream through one reusable cursor.

        ``records`` is a non-empty sequence of ``(time, payload)`` pairs in
        non-decreasing time order; record ``i`` is delivered as
        ``sink(payload_i)`` at ``start_at + (time_i - time_0) / speedup`` --
        the exact expression per-record scheduling would use.  Only one heap
        entry exists at a time instead of ``len(records)``.

        Event ordering is *identical* to eager per-record ``schedule_at``
        calls: the cursor reserves the contiguous sequence-number block
        those calls would have consumed and stamps record ``i``'s number
        on each re-push, so ties against unrelated events at the same time
        break exactly the same way.
        """
        n = len(records)
        if n == 0:
            raise ScheduleError("schedule_stream needs at least one record")
        if speedup <= 0:
            raise ScheduleError(f"non-positive speedup {speedup!r}")
        if not callable(sink):
            raise ScheduleError(f"sink {sink!r} is not callable")
        t0 = records[0][0]
        first_at = start_at + (records[0][0] - t0) / speedup
        if first_at < self._now:
            raise ScheduleError(
                f"cannot schedule at t={first_at!r}; "
                f"clock already at {self._now!r}")
        base = self._seq
        self._seq += n  # reserve the block eager scheduling would have used
        heap = self._heap
        idx = 0

        def fire() -> None:
            nonlocal idx
            record = records[idx]
            idx += 1
            if idx < n:
                heapq.heappush(heap, (start_at + (records[idx][0] - t0) / speedup,
                                      base + idx, fire, ()))
            sink(record[1])

        heapq.heappush(heap, (float(first_at), base, fire, ()))

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        compose like wall-clock intervals.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _, fn, args = pop(heap)
                if time < self._now:  # pragma: no cover - internal guard
                    raise SimulationError("event heap yielded an event in the past")
                self._now = time
                fn(*args)
                self.events_executed += 1
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False
        return self._now
