"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(2.0, seen.append, "late")
        eng.schedule(1.0, seen.append, "early")
        eng.run()
        assert seen == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        times = []
        eng.schedule(1.5, lambda: times.append(eng.now))
        eng.schedule(3.25, lambda: times.append(eng.now))
        eng.run()
        assert times == [1.5, 3.25]

    def test_ties_broken_by_insertion_order(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, "a")
        eng.schedule_at(1.0, seen.append, "b")
        eng.schedule(0.5, seen.append, "early")
        eng.schedule(1.0, seen.append, "c")
        eng.run()
        assert seen == ["early", "a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ScheduleError):
            Engine().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(ScheduleError):
            eng.schedule_at(9.0, lambda: None)

    def test_non_callable_rejected(self):
        with pytest.raises(ScheduleError):
            Engine().schedule(1.0, "not callable")  # type: ignore[arg-type]

    def test_bad_streams_rejected(self):
        eng = Engine(start_time=5.0)
        with pytest.raises(ScheduleError):
            eng.schedule_stream([], lambda p: None, start_at=5.0)
        with pytest.raises(ScheduleError):
            eng.schedule_stream([(0.0, "x")], lambda p: None, start_at=5.0,
                                speedup=0.0)
        with pytest.raises(ScheduleError):
            eng.schedule_stream([(0.0, "x")], "not callable", start_at=5.0)  # type: ignore[arg-type]
        with pytest.raises(ScheduleError):
            eng.schedule_stream([(0.0, "x")], lambda p: None, start_at=4.0)
        assert eng.pending == 0

    def test_schedule_from_callback(self):
        eng = Engine()
        seen = []
        def first():
            seen.append(("first", eng.now))
            eng.schedule(2.0, lambda: seen.append(("second", eng.now)))
        eng.schedule(1.0, first)
        eng.run()
        assert seen == [("first", 1.0), ("second", 3.0)]

    def test_zero_delay_runs_at_same_time_after_current(self):
        eng = Engine()
        seen = []
        def a():
            eng.schedule(0.0, seen.append, "b")
            seen.append("a")
        eng.schedule(1.0, a)
        eng.run()
        assert seen == ["a", "b"]
        assert eng.now == 1.0


class TestRunControl:
    def test_run_until_advances_clock_exactly(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        assert eng.run(until=5.0) == 5.0
        assert eng.now == 5.0

    def test_run_until_leaves_later_events_pending(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, "in")
        eng.schedule(10.0, seen.append, "out")
        eng.run(until=5.0)
        assert seen == ["in"]
        eng.run()
        assert seen == ["in", "out"]

    def test_run_not_reentrant(self):
        eng = Engine()
        def reenter():
            with pytest.raises(SimulationError):
                eng.run()
        eng.schedule(1.0, reenter)
        eng.run()

    def test_events_executed_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.events_executed == 4


class TestProperties:
    @given(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_execution_times_nondecreasing(self, delays):
        # few distinct delays force ties, which must break by insertion order
        eng = Engine()
        fired = []
        times = []
        for i, d in enumerate(delays):
            eng.schedule(d, lambda i=i: (fired.append(i), times.append(eng.now)))
        eng.run()
        assert times == sorted(times)
        assert fired == sorted(range(len(delays)), key=lambda i: (delays[i], i))
