"""A minimal discrete-event simulation engine.

The on-demand and hybrid simulators (Sections 1 and 4 motivate both) need
ordered event processing: client arrivals, service completions, broadcast
ticks.  This engine is a deliberately small priority-queue kernel —
deterministic (FIFO among simultaneous events), introspectable, and with a
hard safety valve against runaway schedules.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import SimulationError

__all__ = ["EventLoop"]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventLoop:
    """A deterministic discrete-event loop.

    Events scheduled for the same time fire in scheduling order (FIFO), so
    simulations are reproducible run to run.
    """

    def __init__(self, max_events: int = 10_000_000) -> None:
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._max_events = max_events

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule_at(
        self, time: float, action: Callable[[], None]
    ) -> _ScheduledEvent:
        """Schedule ``action`` at absolute simulation time ``time``.

        Returns a handle that :meth:`cancel` accepts.

        Raises:
            SimulationError: If ``time`` lies in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; simulation time is {self._now}"
            )
        event = _ScheduledEvent(
            time=time, sequence=next(self._sequence), action=action
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self, delay: float, action: Callable[[], None]
    ) -> _ScheduledEvent:
        """Schedule ``action`` after a non-negative delay from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, action)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a scheduled event (lazy removal)."""
        event.cancelled = True

    def advance(self, time: float) -> None:
        """Fire every event due strictly before ``time``, then set the
        clock to ``time``; events due at ``time`` itself stay queued."""
        if time < self._now:
            raise SimulationError(
                f"cannot advance to {time}; simulation time is {self._now}"
            )
        self.run(until=math.nextafter(time, -math.inf))
        self._now = time

    def run(self, until: float | None = None) -> float:
        """Process events in time order.

        Args:
            until: Stop once the next event would fire strictly after this
                time (the event stays queued); ``None`` drains the queue.

        Returns:
            The final simulation time.

        Raises:
            SimulationError: If more than ``max_events`` events fire
                (runaway self-scheduling loop).
        """
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            self._now = event.time
            self._processed += 1
            if self._processed > self._max_events:
                raise SimulationError(
                    f"event budget of {self._max_events} exhausted at "
                    f"t={self._now}; likely a self-scheduling loop"
                )
            event.action()
        if until is not None and until > self._now:
            self._now = until
        return self._now
