"""Unit tests for the CPU / thread-pool model."""

import collections

import pytest

from repro.sim import CPU, ThreadPool


@pytest.fixture
def cpu(sim):
    return CPU(sim, physical_cores=8, hardware_threads=16, ht_yield=1.3)


class TestCapacity:
    def test_single_task_full_speed(self, cpu):
        assert cpu.capacity(1) == pytest.approx(1.0)

    def test_linear_up_to_physical_cores(self, cpu):
        assert cpu.capacity(8) == pytest.approx(8.0)

    def test_hyperthreading_yield(self, cpu):
        assert cpu.capacity(16) == pytest.approx(8 * 1.3)

    def test_capacity_caps_at_hardware_threads(self, cpu):
        assert cpu.capacity(100) == cpu.capacity(16)

    def test_background_load_shrinks_capacity(self, sim):
        cpu = CPU(sim)
        cpu.set_background_load(0.5)
        assert cpu.capacity(8) == pytest.approx(4.0)

    def test_invalid_background_load(self, cpu):
        with pytest.raises(ValueError):
            cpu.set_background_load(1.0)

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            CPU(sim, physical_cores=0)
        with pytest.raises(ValueError):
            CPU(sim, physical_cores=8, hardware_threads=4)
        with pytest.raises(ValueError):
            CPU(sim, ht_yield=2.5)


class TestExecution:
    def test_single_task_duration(self, sim, cpu):
        future = cpu.submit(2.0)
        sim.run()
        assert future.done
        assert sim.now == pytest.approx(2.0)

    def test_zero_work_completes_immediately(self, sim, cpu):
        future = cpu.submit(0.0)
        sim.run()
        assert future.done
        assert sim.now == 0.0

    def test_negative_work_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.submit(-1.0)

    def test_parallel_tasks_share_cores(self, sim, cpu):
        futures = [cpu.submit(1.0) for _ in range(8)]
        sim.run()
        assert all(f.done for f in futures)
        assert sim.now == pytest.approx(1.0)  # 8 tasks, 8 cores

    def test_oversubscription_slows_down(self, sim, cpu):
        futures = [cpu.submit(1.0) for _ in range(16)]
        sim.run()
        assert all(f.done for f in futures)
        # 16 core-seconds of work / 10.4 core capacity
        assert sim.now == pytest.approx(16.0 / 10.4, rel=1e-6)

    def test_queueing_beyond_hardware_threads(self, sim, cpu):
        futures = [cpu.submit(1.0) for _ in range(32)]
        assert cpu.queued_tasks == 16
        sim.run()
        assert all(f.done for f in futures)
        assert sim.now == pytest.approx(2 * 16.0 / 10.4, rel=1e-6)

    def test_throughput_matches_capacity(self, sim, cpu):
        """Figure 6's premise: sustained rate = capacity / cost."""
        cost = 0.001
        done = [0]
        for _ in range(20000):
            cpu.submit(cost).add_callback(lambda _f: done.__setitem__(0, done[0] + 1))
        sim.run(until=1.0)
        assert done[0] == pytest.approx(10.4 / cost, rel=0.05)

    def test_tasks_completed_counter(self, sim, cpu):
        for _ in range(5):
            cpu.submit(0.1)
        sim.run()
        assert cpu.tasks_completed == 5

    def test_utilization(self, sim, cpu):
        cpu.submit(1.0)
        sim.run()
        assert cpu.utilization(1.0) == pytest.approx(1.0 / 8.0)


class TestThreadPool:
    def test_pool_limits_concurrency(self, sim, cpu):
        pool = ThreadPool(cpu, workers=2)
        for _ in range(4):
            pool.submit(1.0)
        assert pool.in_flight == 2
        assert pool.backlog == 2
        sim.run()
        assert pool.tasks_completed == 4
        assert sim.now == pytest.approx(2.0)

    def test_pool_callback(self, sim, cpu):
        pool = ThreadPool(cpu, workers=1)
        seen = []
        pool.submit(0.5, seen.append, "done")
        sim.run()
        assert seen == ["done"]

    def test_single_worker_serializes(self, sim, cpu):
        pool = ThreadPool(cpu, workers=1)
        for _ in range(3):
            pool.submit(1.0)
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_sixteen_workers_reach_ht_capacity(self, sim, cpu):
        """The paper's 16 signing threads on 16 hardware threads."""
        pool = ThreadPool(cpu, workers=16)
        count = 2080  # 16 * 130
        for _ in range(count):
            pool.submit(0.01)
        sim.run()
        assert sim.now == pytest.approx(count * 0.01 / 10.4, rel=0.01)

    def test_invalid_worker_count(self, cpu):
        with pytest.raises(ValueError):
            ThreadPool(cpu, workers=0)

    def test_two_pools_compete_for_cpu(self, sim, cpu):
        pool_a = ThreadPool(cpu, workers=8)
        pool_b = ThreadPool(cpu, workers=8)
        for _ in range(8):
            pool_a.submit(1.0)
            pool_b.submit(1.0)
        sim.run()
        assert sim.now == pytest.approx(16.0 / 10.4, rel=1e-6)


class TestCompletionsAreCalls:
    """A task's only event is its completion timer: what happens at that
    instant -- free the worker, start the backlog, call back -- is a
    chain of calls from the timer's handler (docs/KERNEL.md)."""

    def test_callbacks_fire_in_submission_order_at_the_completion_instant(
        self, sim, cpu
    ):
        pool = ThreadPool(cpu, workers=2)
        seen = []
        for index in range(6):
            pool.submit(1.0, lambda i: seen.append((i, sim.now)), index)
        sim.run()
        # two workers on eight cores: pairs finish at exactly 1.0, 2.0, 3.0
        assert seen == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0), (5, 3.0)]

    def test_one_event_per_completion_timer_not_three_per_task(self, sim, cpu):
        pool = ThreadPool(cpu, workers=2)
        seen = []
        for index in range(6):
            pool.submit(1.0, seen.append, index)
        assert sim.processed_events == 0
        sim.run()
        assert seen == list(range(6))
        # three completion instants, one timer each; the six tasks and
        # their six callbacks add no event of their own
        assert sim.processed_events == 3
        assert pool.tasks_completed == cpu.tasks_completed == 6

    def test_staggered_tasks_cost_one_event_each(self, sim, cpu):
        pool = ThreadPool(cpu, workers=4)
        seen = []
        for index in range(4):
            pool.submit(0.5 + index, lambda i: seen.append((i, sim.now)), index)
        sim.run()
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert [t for _, t in seen] == pytest.approx([0.5, 1.5, 2.5, 3.5])
        assert sim.processed_events == 4

    def test_callback_may_resubmit_to_the_same_pool(self, sim, cpu):
        pool = ThreadPool(cpu, workers=1)
        seen = []

        def again(left):
            seen.append((left, sim.now, pool.in_flight, pool.backlog))
            if left:
                pool.submit(1.0, again, left - 1)

        pool.submit(1.0, again, 3)
        pool.submit(1.0, seen.append, "queued behind the first")
        sim.run()
        # the worker freed by a completion takes the backlog before the
        # callback runs, so a re-submission queues behind it
        assert seen == [
            (3, 1.0, 1, 0),
            "queued behind the first",
            (2, 3.0, 0, 0),
            (1, 4.0, 0, 0),
            (0, 5.0, 0, 0),
        ]
        assert pool.tasks_completed == 5
        assert (pool.in_flight, pool.backlog) == (0, 0)
        assert (cpu.running_tasks, cpu.queued_tasks) == (0, 0)

    def test_callback_may_resubmit_while_other_tasks_finish_with_it(self, sim, cpu):
        """Sixteen tasks finish in one ``_sync``; each callback submits
        again while the others' completions are still to be called."""
        pool = ThreadPool(cpu, workers=16)
        seen = []

        def first(index):
            pool.submit(1.0, seen.append, index)

        for index in range(16):
            pool.submit(1.0, first, index)
        sim.run()
        assert seen == list(range(16))
        assert sim.now == pytest.approx(2 * 16.0 / 10.4, rel=1e-6)
        assert sim.processed_events == 2

    def test_one_completion_timer_is_scheduled_per_completion_instant(
        self, sim, cpu, monkeypatch
    ):
        """36 tasks on 16 workers complete at three instants.  The
        backlog entries a completion starts leave the timer to the
        reschedule after the completions (each scheduled one of its own
        before, cancelled a moment later: 17 and 5 handles, not 1 and 1)."""
        scheduled = collections.Counter()
        real = sim.schedule

        def counting(delay, fn, *args):
            scheduled[sim.now] += 1
            return real(delay, fn, *args)

        monkeypatch.setattr(sim, "schedule", counting)
        pool = ThreadPool(cpu, workers=16)
        finished = []
        for _ in range(36):
            pool.submit(1.0, lambda: finished.append(sim.now))
        assert scheduled == {0.0: 16}  # one per submission, outside any completion
        sim.run()
        instants = sorted(set(finished))
        assert len(instants) == 3 and len(finished) == 36
        assert sim.processed_events == 3
        # the last instant leaves nothing running, so nothing to time
        assert [scheduled[t] for t in instants] == [1, 1, 0]
        assert sum(scheduled.values()) == 16 + 2

    def test_zero_work_does_not_call_back_inside_submit(self, sim, cpu):
        pool = ThreadPool(cpu, workers=1)
        seen = []
        pool.submit(0.0, seen.append, "a")
        pool.submit(0.0, seen.append, "b")  # behind "a": the worker is taken
        assert seen == []
        assert (pool.in_flight, pool.backlog) == (1, 1)
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 0.0
        assert sim.processed_events == 2  # one posted event per task
        assert pool.tasks_completed == 2

    def test_cpu_submit_future_resolves_at_the_completion_instant(self, sim, cpu):
        future = cpu.submit(2.0)
        resolved_at = []
        future.add_callback(lambda f: resolved_at.append(sim.now))
        sim.run(until=1.999)
        assert not future.done
        sim.run()
        assert future.done and resolved_at == [2.0]

    def test_two_pools_sharing_a_cpu_call_back_at_the_same_instant(self, sim, cpu):
        pool_a = ThreadPool(cpu, workers=8)
        pool_b = ThreadPool(cpu, workers=8)
        seen = []
        for index in range(8):
            pool_a.submit(1.0, lambda i: seen.append(("a", i, sim.now)), index)
            pool_b.submit(1.0, lambda i: seen.append(("b", i, sim.now)), index)
        sim.run()
        assert sim.now == pytest.approx(16.0 / 10.4, rel=1e-6)
        # CPU order, i.e. submission order across both pools
        assert [(p, i) for p, i, _ in seen] == [
            (p, i) for i in range(8) for p in ("a", "b")
        ]
        assert {t for _, _, t in seen} == {sim.now}
