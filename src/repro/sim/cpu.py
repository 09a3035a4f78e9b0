"""Processor-sharing CPU model with hyper-threading.

Models the paper's Dell PowerEdge R410 (two quad-core 2.27 GHz Xeon
E5520 with hyper-threading: 8 physical cores, 16 hardware threads).

A :class:`CPU` runs *tasks*, each demanding a fixed amount of work in
core-seconds (work at speed 1.0 on a dedicated physical core).  At most
``hardware_threads`` tasks run simultaneously; surplus tasks queue.
When more tasks run than there are physical cores, hyper-threading
gives each doubled-up core a total yield of ``ht_yield`` (< 2.0)
instead of 2.0.  Capacity is fair-shared:

    capacity(k) = min(k, P) + max(0, min(k, T) - P) * (ht_yield - 1)

where ``P`` is physical cores and ``T`` hardware threads.  With
``ht_yield = 1.3`` this reproduces the knee of Figure 6: near-linear
signature scaling up to 8 workers, then diminishing returns up to 16.

A :class:`ThreadPool` bounds the number of tasks one component may keep
in flight (the ordering node's 16 signing workers), while other
components (the replication protocol's I/O threads) compete for the
same cores via :meth:`CPU.set_background_load`.

A task carries the callable that completes it.  The only event a task
costs is the completion timer -- the instant simulated time has to
reach; what happens *at* that instant (free the pool's worker, start
the backlog, hand the signed block on) is a chain of plain calls made
from the timer's handler, not further zero-delay events
(docs/KERNEL.md, "Completions are calls, not events").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.core import EventHandle, Future, Simulator


class _Task:
    __slots__ = ("remaining", "done", "args")

    def __init__(self, work: float, done: Callable[..., Any], args: tuple):
        self.remaining = work
        self.done = done
        self.args = args


class CPU:
    """A multicore processor shared by all tasks submitted to it."""

    def __init__(
        self,
        sim: Simulator,
        physical_cores: int = 8,
        hardware_threads: Optional[int] = None,
        ht_yield: float = 1.3,
    ):
        if physical_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.physical_cores = physical_cores
        self.hardware_threads = hardware_threads or physical_cores * 2
        if self.hardware_threads < physical_cores:
            raise ValueError("hardware_threads must be >= physical_cores")
        if not 1.0 <= ht_yield <= 2.0:
            raise ValueError("ht_yield must be in [1.0, 2.0]")
        self.ht_yield = ht_yield
        self._running: list[_Task] = []
        self._queued: deque[_Task] = deque()
        self._last_update = 0.0
        self._completion_event: Optional[EventHandle] = None
        #: True while ``_sync`` calls completions (see there)
        self._completing = False
        self._background_fraction = 0.0
        self.busy_core_seconds = 0.0
        self.tasks_completed = 0
        #: core-seconds *demanded* per activity label (resource
        #: attribution for repro.obs; contention does not change demand)
        self.activity_core_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # capacity model
    # ------------------------------------------------------------------
    def capacity(self, running: Optional[int] = None) -> float:
        """Aggregate speed (in core-equivalents) with ``running`` tasks."""
        k = len(self._running) if running is None else running
        k = min(k, self.hardware_threads)
        base = min(k, self.physical_cores)
        doubled = max(0, k - self.physical_cores)
        raw = base + doubled * (self.ht_yield - 1.0)
        return raw * (1.0 - self._background_fraction)

    def set_background_load(self, fraction: float) -> None:
        """Reserve ``fraction`` of the machine for other software.

        Used to model BFT-SMaRt's own I/O threads and queues, which the
        paper reports can take up to 60% of CPU while ordering.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError("background fraction must be in [0, 1)")
        self._sync()
        self._background_fraction = fraction
        self._reschedule()

    def _rate_per_task(self) -> float:
        k = len(self._running)
        if k == 0:
            return 0.0
        return self.capacity(k) / k

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------
    def submit(
        self, work_core_seconds: float, activity: Optional[str] = None
    ) -> Future:
        """Submit a task needing ``work_core_seconds`` of core time.

        ``activity`` labels the work for resource attribution (e.g.
        ``"sign"``); the demanded core-seconds accumulate in
        :attr:`activity_core_seconds`.  The returned future resolves at
        the completion instant (for generator processes and tests; a
        component that only needs to be called back uses
        :class:`ThreadPool`).
        """
        future = self.sim.future()
        self._start(work_core_seconds, activity, future.resolve, (None,))
        return future

    def _start(
        self,
        work_core_seconds: float,
        activity: Optional[str],
        done: Callable[..., Any],
        args: tuple,
    ) -> None:
        """Run a task and call ``done(*args)`` at its completion instant.

        ``done`` is never called from inside this method: a zero-work
        task completes through one posted event.
        """
        if work_core_seconds < 0:
            raise ValueError("work must be non-negative")
        if activity is not None:
            self.activity_core_seconds[activity] = (
                self.activity_core_seconds.get(activity, 0.0) + work_core_seconds
            )
        if work_core_seconds == 0:
            self.sim.post(0.0, done, *args)
            return
        task = _Task(work_core_seconds, done, args)
        self._sync()
        if len(self._running) < self.hardware_threads:
            self._running.append(task)
        else:
            self._queued.append(task)
        self._reschedule()

    @property
    def running_tasks(self) -> int:
        return len(self._running)

    @property
    def queued_tasks(self) -> int:
        return len(self._queued)

    def utilization(self, elapsed: float) -> float:
        """Average busy core-fraction over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (elapsed * self.physical_cores)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Advance all running tasks to the current time.

        Tasks that finish are completed here, by direct call, after the
        CPU's own state is final for this instant (``_running`` rebuilt,
        ``_queued`` promoted): a completion may submit again.  Every
        caller of ``_sync`` reschedules the completion timer right after
        it, so ``_reschedule`` does nothing while completions run: the
        tasks they start are timed once, by that reschedule -- one timer
        per completion instant, the last one scheduled, as before.
        """
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._running:
            return
        rate = self._rate_per_task()
        self.busy_core_seconds += self.capacity() * dt
        finished: list[_Task] = []
        still_running: list[_Task] = []
        for task in self._running:
            task.remaining -= rate * dt
            if task.remaining <= 1e-12:
                finished.append(task)
            else:
                still_running.append(task)
        self._running = still_running
        while self._queued and len(self._running) < self.hardware_threads:
            self._running.append(self._queued.popleft())
        self.tasks_completed += len(finished)
        self._completing = True
        try:
            for task in finished:
                task.done(*task.args)
        finally:
            self._completing = False

    def _reschedule(self) -> None:
        if self._completing:
            return
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._running:
            return
        rate = self._rate_per_task()
        if rate <= 0.0:
            return
        shortest = min(task.remaining for task in self._running)
        delay = shortest / rate
        self._completion_event = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._sync()
        self._reschedule()


class ThreadPool:
    """A bounded pool of workers executing tasks on a shared CPU.

    At most ``workers`` tasks from this pool occupy the CPU at once;
    further submissions queue in FIFO order.  Mirrors the signing
    thread pool of the ordering node (paper section 5.1).
    """

    def __init__(self, cpu: CPU, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.cpu = cpu
        self.workers = workers
        self._in_flight = 0
        self._backlog: deque[
            tuple[float, Optional[str], Optional[Callable[..., Any]], tuple]
        ] = deque()
        self.tasks_completed = 0

    def submit(
        self,
        work_core_seconds: float,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
        activity: Optional[str] = None,
    ) -> None:
        """Run a task through the pool; ``callback(*args)`` is called at
        the instant it completes (never from inside ``submit``)."""
        if self._in_flight < self.workers:
            self._in_flight += 1
            self.cpu._start(
                work_core_seconds, activity, self._finish, (callback, args)
            )
        else:
            self._backlog.append((work_core_seconds, activity, callback, args))

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _finish(self, callback: Optional[Callable[..., Any]], args: tuple) -> None:
        """One worker is done: free it, start the next backlog entry on
        it, then hand the result on."""
        self.tasks_completed += 1
        if self._backlog:
            work, activity, next_callback, next_args = self._backlog.popleft()
            self.cpu._start(work, activity, self._finish, (next_callback, next_args))
        else:
            self._in_flight -= 1
        if callback is not None:
            callback(*args)
