"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.core import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_arguments_passed_to_callback(self, sim):
        seen = []
        sim.schedule(0.1, seen.append, 42)
        sim.run()
        assert seen == [42]

    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        seen = []
        for tag in range(5):
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_past_time_runs_now(self, sim):
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        sim.run()
        assert sim.now == 1.0

    def test_call_soon_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]

    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append("outer")
            sim.schedule(1.0, lambda: seen.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 2.0


class TestRun:
    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_does_not_fire_later_events(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.run(until=1.0)
        assert seen == []
        assert sim.now == 1.0
        sim.run()
        assert seen == ["late"]

    def test_run_max_events(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(float(i), seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_processed_events_counter(self, sim):
        for i in range(4):
            sim.schedule(0.1 * i, lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_pending_events_excludes_cancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_run_until_predicate(self, sim):
        counter = []
        for i in range(10):
            sim.schedule(float(i), counter.append, i)
        satisfied = sim.run_until(lambda: len(counter) >= 3, deadline=100.0)
        assert satisfied
        assert len(counter) == 3

    def test_run_until_predicate_deadline(self, sim):
        satisfied = sim.run_until(lambda: False, deadline=2.0)
        assert not satisfied
        assert sim.now == 2.0

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False


class TestFuture:
    def test_resolve_delivers_value(self, sim):
        future = sim.future()
        future.resolve(7)
        assert future.done
        assert future.value == 7

    def test_value_before_resolve_raises(self, sim):
        future = sim.future()
        with pytest.raises(SimulationError):
            _ = future.value

    def test_double_resolve_raises(self, sim):
        future = sim.future()
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_callback_fires_after_resolve(self, sim):
        future = sim.future()
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        future.resolve("ok")
        sim.run()
        assert seen == ["ok"]

    def test_callback_added_after_resolve_still_fires(self, sim):
        future = sim.future()
        future.resolve("ok")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        sim.run()
        assert seen == ["ok"]

    def test_fail_propagates_exception(self, sim):
        future = sim.future()
        future.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = future.value

    def test_drain_waits_for_all(self, sim):
        futures = [sim.future() for _ in range(3)]
        for i, future in enumerate(futures):
            sim.schedule(float(i + 1), future.resolve, i)
        assert sim.drain(futures, deadline=10.0)
        assert [f.value for f in futures] == [0, 1, 2]

    def test_drain_deadline(self, sim):
        future = sim.future()
        assert not sim.drain([future], deadline=1.0)


class TestProcess:
    def test_process_sleeps(self, sim):
        seen = []

        def proc():
            seen.append(sim.now)
            yield 1.0
            seen.append(sim.now)
            yield 2.0
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [0.0, 1.0, 3.0]

    def test_process_returns_value(self, sim):
        def proc():
            yield 1.0
            return 42

        process = sim.spawn(proc())
        sim.run()
        assert process.result.value == 42

    def test_process_waits_on_future(self, sim):
        future = sim.future()
        seen = []

        def proc():
            value = yield future
            seen.append((sim.now, value))

        sim.spawn(proc())
        sim.schedule(2.0, future.resolve, "ready")
        sim.run()
        assert seen == [(2.0, "ready")]

    def test_process_yield_none_continues(self, sim):
        seen = []

        def proc():
            yield None
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [0.0]

    def test_process_interrupt(self, sim):
        seen = []

        def proc():
            yield 1.0
            seen.append("should not happen")

        process = sim.spawn(proc())
        process.interrupt()
        sim.run()
        assert seen == []
        assert process.result.done

    def test_failed_future_raises_inside_process(self, sim):
        future = sim.future()
        caught = []

        def proc():
            try:
                yield future
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(proc())
        sim.schedule(1.0, future.fail, RuntimeError("broken"))
        sim.run()
        assert caught == ["broken"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            simulator = Simulator()
            trace = []

            def tick(i):
                trace.append((simulator.now, i))
                if i < 20:
                    simulator.schedule(0.1 * (i % 3) + 0.01, tick, i + 1)

            simulator.schedule(0.0, tick, 0)
            simulator.run()
            return trace

        assert build() == build()


class TestTieBreakPermutation:
    """Seeded same-timestamp shuffling for RaceSan (tie_seed)."""

    @staticmethod
    def order(tie_seed, n=8):
        from repro.sim.core import Simulator

        simulator = Simulator(tie_seed=tie_seed)
        seen = []
        for tag in range(n):
            simulator.schedule_at(1.0, seen.append, tag)
        simulator.run()
        return seen

    def test_tie_seed_none_keeps_fifo_order(self):
        assert self.order(None) == list(range(8))

    def test_tie_seed_permutes_same_timestamp_events(self):
        permuted = self.order(1)
        assert sorted(permuted) == list(range(8))
        assert permuted != list(range(8))

    def test_same_seed_same_order(self):
        assert self.order(5) == self.order(5)

    def test_different_seeds_differ(self):
        orders = {tuple(self.order(seed)) for seed in range(1, 5)}
        assert len(orders) > 1

    def test_time_order_still_respected(self):
        from repro.sim.core import Simulator

        simulator = Simulator(tie_seed=3)
        seen = []
        simulator.schedule_at(2.0, seen.append, "late")
        for tag in range(4):
            simulator.schedule_at(1.0, seen.append, tag)
        simulator.run()
        assert seen[-1] == "late"
        assert sorted(seen[:-1]) == [0, 1, 2, 3]

    def test_set_tie_seed_rejected_with_events_pending(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.set_tie_seed(1)

    def test_network_fifo_preserved_under_permutation(self):
        # the per-link FIFO clamp must survive the shuffle: two sends
        # on one connection arrive in send order under every tie seed
        from repro.sim.core import Simulator
        from repro.sim.network import ConstantLatency, Network

        for tie_seed in (None, 1, 2, 3):
            simulator = Simulator(tie_seed=tie_seed)
            network = Network(simulator, ConstantLatency(0.001))
            inbox = []

            class Sink:
                def deliver(self, src, message):
                    inbox.append(message)

            network.register(0, Sink())
            network.register(1, Sink())
            for i in range(6):
                network.send(1, 0, i)
            simulator.run()
            assert inbox == list(range(6)), f"tie_seed={tie_seed}"
