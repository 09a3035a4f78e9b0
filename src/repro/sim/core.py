"""Discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of
scheduled callbacks.  Protocol components are written in an
event-driven style (``schedule`` + message handlers); a one-shot
result that several callers wait for is a :class:`Future` they attach
callbacks to.

The kernel is fully deterministic: ties in time are broken by a
monotonically increasing sequence number, and all randomness must come
from :class:`repro.sim.randomness.RandomStreams`.

Tie-break permutation (RaceSan)
-------------------------------

The default tie-break -- same-timestamp events fire in scheduling
order -- is *one* legal serialization of simulated concurrency, not a
guarantee protocol code may lean on.  Constructing a simulator with
``tie_seed=N`` (every deployment builder takes the simulator to build
on) replaces the heap's ``seq`` key component with a
seeded bijective mix of it, so every same-timestamp group pops in a
per-seed shuffled order while distinct timestamps are untouched.  Each
seed is still fully deterministic; ``None`` (the default) is byte-for-
byte the historical order.  ``python -m repro.analysis racesan`` uses
this to prove protocol outcomes are schedule-independent (see
docs/ANALYSIS.md).

Two entry shapes
----------------

The heap stores 4-tuples so ordering is decided by C-level tuple
comparison (``seq`` is unique, so nothing after it is ever compared).
A fire-and-forget event -- :meth:`Simulator.post` /
:meth:`Simulator.post_at` / :meth:`Simulator.post_many`, and the push
``Network.broadcast`` inlines -- *is* its heap entry,
``(time, seq, fn, args)``: nothing is allocated besides the tuple and
nothing exists that a caller could cancel.  A cancellable timer
(:meth:`Simulator.schedule`) is the one thing that needs an object with
identity: its entry is ``(time, seq, None, handle)`` and the run loop
reads ``fn`` / ``args`` / ``cancelled`` off the :class:`EventHandle`.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

_heappush = heapq.heappush

_MASK64 = (1 << 64) - 1

def _tie_mixer(seed: int) -> Callable[[int], int]:
    """A keyed bijection on 64-bit ints (SplitMix64 finalizer).

    Bijectivity is what keeps the permuted order total and
    deterministic: distinct sequence numbers always map to distinct
    keys, so the handle itself is still never compared.
    """
    offset = ((seed * 0x9E3779B97F4A7C15) + 0x6A09E667F3BCC909) & _MASK64

    def mix(seq: int, _offset: int = offset) -> int:
        z = (seq + _offset) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    return mix


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Only :meth:`Simulator.schedule` creates one; the ``post*`` paths
    put the callback on the heap directly.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Future:
    """A one-shot value that callbacks can wait on."""

    __slots__ = ("sim", "_value", "_done", "_failed", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._done = False
        self._failed: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        if self._failed is not None:
            raise self._failed
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Complete the future; wakes every waiter at the current time."""
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception its ``value`` raises."""
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._failed = exc
        self._fire()

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            self.sim.post(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        if callbacks:
            self.sim.post_many(0.0, callbacks, self)


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, tie_seed: Optional[int] = None):
        self.now: float = 0.0
        #: ``(time, seq, fn, args)`` for a posted event,
        #: ``(time, seq, None, handle)`` for a cancellable one
        self._heap: list[Tuple[float, int, Optional[Callable[..., Any]], Any]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._running = False
        self._id_streams: Dict[str, Iterator[int]] = {}
        #: seeded same-timestamp permutation (RaceSan); None = the
        #: historical scheduling-order tie-break
        self.tie_seed: Optional[int] = None
        self._tie_key: Optional[Callable[[int], int]] = None
        if tie_seed is not None:
            self.set_tie_seed(tie_seed)

    def set_tie_seed(self, seed: Optional[int]) -> None:
        """Install (or clear) the seeded same-timestamp permutation.

        Must be called before events are scheduled: mixing keys for
        only part of the heap would still be a total order, but not a
        pure permutation of each tie group.
        """
        if self._heap:
            raise SimulationError("cannot change tie_seed with events pending")
        self.tie_seed = seed
        self._tie_key = None if seed is None else _tie_mixer(seed)

    def id_stream(self, name: str) -> Iterator[int]:
        """The run's counter called ``name``: 0, 1, 2, ... in draw order.

        Every identity a run mints -- envelope and transaction ids,
        request uids -- is drawn from a stream of its simulator, so it
        depends on the run's own history and on nothing else that
        happened in the process.  Producers fetch their stream once and
        call ``next`` on it; all producers of one name share one counter.
        """
        stream = self._id_streams.get(name)
        if stream is None:
            stream = self._id_streams[name] = itertools.count()
        return stream

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns a cancellable handle, owned by the caller.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        time = self.now + delay
        handle = EventHandle(time, seq := next(self._seq), fn, args)
        tie_key = self._tie_key
        if tie_key is not None:
            seq = tie_key(seq)
        _heappush(self._heap, (time, seq, None, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule(max(0.0, time - self.now), fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self.schedule(0.0, fn, *args)

    # -- fire-and-forget ---------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, nothing to cancel."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        seq = next(self._seq)
        tie_key = self._tie_key
        if tie_key is not None:
            seq = tie_key(seq)
        _heappush(self._heap, (self.now + delay, seq, fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, nothing to cancel."""
        now = self.now
        if time < now:
            time = now
        seq = next(self._seq)
        tie_key = self._tie_key
        if tie_key is not None:
            seq = tie_key(seq)
        _heappush(self._heap, (time, seq, fn, args))

    def post_many(
        self, delay: float, fns: Iterable[Callable[..., Any]], *args: Any
    ) -> None:
        """Batch-schedule ``fn(*args)`` for every ``fn`` at ``now + delay``.

        One push per callback without per-call dispatch overhead;
        callbacks fire in iteration order (consecutive sequence numbers;
        under a ``tie_seed`` the batch is subject to the same seeded
        permutation as every other same-timestamp group).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        time = self.now + delay
        heap = self._heap
        push = _heappush
        nextseq = self._seq.__next__
        tie_key = self._tie_key
        for fn in fns:
            seq = nextseq()
            if tie_key is not None:
                seq = tie_key(seq)
            push(heap, (time, seq, fn, args))

    def future(self) -> Future:
        return Future(self)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return sum(
            1 for _, _, fn, arg in self._heap if fn is not None or not arg.cancelled
        )

    @property
    def processed_events(self) -> int:
        return self._processed

    def step(self) -> bool:
        """Process the next event; returns ``False`` when idle."""
        heap = self._heap
        while heap:
            time, _seq, fn, args = heapq.heappop(heap)
            if fn is None:
                handle = args  # a cancellable timer: the fourth slot is its handle
                if handle.cancelled:
                    continue
                fn, args = handle.fn, handle.args
                handle.cancel()  # release references
            self.now = time
            self._processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty, ``until`` is reached,
        or ``max_events`` events have run.

        When ``until`` is given the clock always advances to exactly
        ``until`` even if the queue drains earlier.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        # Pause cyclic GC for the duration of the loop: per-event garbage
        # is acyclic (tuples, messages) and freed by refcounting, while
        # the rare reference cycles live as long as the deployment anyway.
        # This removes periodic gen-0 scans from the hot loop (~15-20%
        # of wall time at high event rates) and cannot affect semantics.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if until is not None and max_events is None:
                # the benchmark/deployment shape -- run(until=...): the
                # per-event max_events and until-is-None tests are
                # hoisted out of the loop
                while heap:
                    time, _seq, fn, args = heap[0]
                    if fn is None:
                        handle = args  # a cancellable timer
                        if handle.cancelled:
                            pop(heap)
                            continue
                        if time > until:
                            break
                        fn, args = handle.fn, handle.args
                        handle.cancel()  # release references
                    elif time > until:
                        break
                    pop(heap)
                    self.now = time
                    self._processed += 1
                    fn(*args)
            else:
                while heap:
                    time, _seq, fn, args = heap[0]
                    if fn is None and args.cancelled:
                        pop(heap)
                        continue
                    if until is not None and time > until:
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    pop(heap)
                    if fn is None:
                        handle = args
                        fn, args = handle.fn, handle.args
                        handle.cancel()  # release references
                    self.now = time
                    self._processed += 1
                    fn(*args)
                    processed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def run_until(self, predicate: Callable[[], bool], deadline: float) -> bool:
        """Run until ``predicate()`` is true or ``deadline`` passes.

        Returns ``True`` if the predicate became true.  The predicate is
        evaluated after every processed event.
        """
        if predicate():
            return True
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                continue
            if entry[0] > deadline:
                break
            self.step()
            if predicate():
                return True
        if self.now < deadline:
            self.now = deadline
        return predicate()

    def drain(self, futures: Iterable[Future], deadline: float) -> bool:
        """Run until every future in ``futures`` resolves (or deadline)."""
        futures = list(futures)
        return self.run_until(lambda: all(f.done for f in futures), deadline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now:.6f} pending={self.pending_events}>"
