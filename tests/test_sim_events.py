"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.sim.events import EventLoop


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, lambda: fired.append("c"))
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(2.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        loop = EventLoop()
        fired = []
        for tag in "abc":
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.5]
        assert loop.now == 2.5

    def test_schedule_after(self):
        loop = EventLoop()
        times = []
        loop.schedule_at(1.0, lambda: loop.schedule_after(
            2.0, lambda: times.append(loop.now)))
        loop.run()
        assert times == [3.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            loop.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError, match="non-negative"):
            loop.schedule_after(-1.0, lambda: None)


class TestAdvance:
    def test_fires_only_events_strictly_before(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(2.0, lambda: fired.append("b"))
        loop.advance(2.0)
        assert fired == ["a"]
        assert loop.now == 2.0
        loop.advance(2.0)  # same time again: still held
        assert fired == ["a"]
        loop.run(until=2.0)
        assert fired == ["a", "b"]

    def test_cannot_advance_into_the_past(self):
        loop = EventLoop()
        loop.advance(3.0)
        with pytest.raises(SimulationError, match="cannot advance"):
            loop.advance(1.0)


class TestRun:
    def test_run_until_leaves_future_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(10.0, lambda: fired.append(10))
        loop.run(until=5.0)
        assert fired == [1]
        assert loop.pending == 1
        assert loop.now == 5.0
        loop.run()
        assert fired == [1, 10]

    def test_run_empty_queue(self):
        loop = EventLoop()
        assert loop.run() == 0.0

    def test_processed_counter(self):
        loop = EventLoop()
        for t in range(5):
            loop.schedule_at(float(t), lambda: None)
        loop.run()
        assert loop.processed == 5

    def test_event_budget_guards_runaway(self):
        loop = EventLoop(max_events=10)

        def respawn():
            loop.schedule_after(1.0, respawn)

        loop.schedule_at(0.0, respawn)
        with pytest.raises(SimulationError, match="budget"):
            loop.run()

    def test_self_scheduling_chains(self):
        loop = EventLoop()
        counter = {"value": 0}

        def tick():
            counter["value"] += 1
            if counter["value"] < 10:
                loop.schedule_after(1.0, tick)

        loop.schedule_at(0.0, tick)
        loop.run()
        assert counter["value"] == 10
        assert loop.now == 9.0


class TestCancel:
    def test_cancelled_events_do_not_fire(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule_at(1.0, lambda: fired.append("x"))
        loop.schedule_at(2.0, lambda: fired.append("y"))
        loop.cancel(handle)
        loop.run()
        assert fired == ["y"]

    def test_cancel_inside_event(self):
        loop = EventLoop()
        fired = []
        later = loop.schedule_at(2.0, lambda: fired.append("late"))
        loop.schedule_at(1.0, lambda: loop.cancel(later))
        loop.run()
        assert fired == []
