"""Unit tests for the benchmark suites' shared timer, :func:`repro.bench.time_sides`."""

import pytest

import repro.bench
from repro.bench import Timing, time_sides


class FakeTime:
    """A clock that only moves when a side or a preparation sleeps on it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(repro.bench, "time", fake)
    return fake


def _logging_sides(names, log, clock=None, seconds=None):
    def side(name):
        def run(*args):
            log.append(name)
            if clock is not None:
                clock.sleep(seconds[name])
            return len(log)

        return run

    return {name: side(name) for name in names}


class TestTimeSides:
    def test_rounds_interleave_and_the_first_side_alternates(self):
        log = []
        time_sides(_logging_sides("ab", log), rounds=4)
        assert log == list("abbaabba")
        log.clear()
        time_sides(_logging_sides("abc", log), rounds=3)
        assert log == list("abccbaabc")

    def test_samples_are_each_sides_timed_calls_in_order(self, clock):
        log = []
        timings = time_sides(
            _logging_sides("ab", log, clock, {"a": 2.0, "b": 3.0}), rounds=3
        )
        assert timings["a"].samples == (2.0, 2.0, 2.0)
        assert timings["b"].samples == (3.0, 3.0, 3.0)
        # The result is what the side's last timed call returned.
        assert timings["a"].result == 5 and timings["b"].result == 6

    def test_warm_calls_precede_each_timed_call_off_the_clock(self, clock):
        calls = {"a": 0, "b": 0}
        log = []

        def side(name):
            def run():
                calls[name] += 1
                log.append(name)
                # Odd calls are the warm ones: they take 100 s.
                clock.sleep(100.0 if calls[name] % 2 else 1.0)
                return calls[name]

            return run

        timings = time_sides({"a": side("a"), "b": side("b")}, rounds=2, warm=True)
        assert log == list("aabbbbaa")
        assert timings["a"].samples == timings["b"].samples == (1.0, 1.0)
        assert timings["a"].result == 4

    def test_preparation_runs_off_the_clock_and_fresh_for_every_call(self, clock):
        prepared, seen = [], []

        def prepare():
            clock.sleep(50.0)
            prepared.append(object())
            return prepared[-1]

        def run(state):
            seen.append(state)
            clock.sleep(0.5)

        timings = time_sides(
            {"prepared": run, "plain": lambda: clock.sleep(0.25)},
            rounds=3,
            warm=True,
            prepare={"prepared": prepare},
        )
        assert timings["prepared"].samples == (0.5, 0.5, 0.5)
        assert timings["plain"].samples == (0.25, 0.25, 0.25)
        # One preparation per call, warm calls included, each passed on.
        assert seen == prepared and len(prepared) == 6

    def test_best_median_and_interquartile_range(self):
        timing = Timing((3.0, 1.0, 4.0, 2.0))
        assert timing.best == 1.0
        assert timing.median == 2.5
        assert timing.iqr == pytest.approx(1.5)  # quartiles 1.75 and 3.25
        single = Timing((0.25,))
        assert single.best == single.median == 0.25
        assert single.iqr == 0.0
