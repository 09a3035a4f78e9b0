"""The calibration kernel: what a host CPU second is worth right now.

The reference box is a 2-core slice of a shared host whose speed drifts
by up to +-40 % over seconds to minutes (README, "Estimator").  A raw
``time.process_time()`` interval therefore measures the neighbours as
much as the program.  The kernel below is a fixed piece of work of the
program's own kind -- a heap-driven event loop delivering small vote
messages between four replicas that count quorums in dicts and sets and
hash a payload -- timed right after every slice of the measured
window.  The ratio window time / kernel time is what the benchmark
estimates; :data:`KERNEL_REF_S` scales it back to seconds of the quiet
reference box.

Nothing here imports ``repro``: an optimisation of the program must not
speed the yardstick up with it.  Changing the kernel changes the unit
of every host-time metric, so it is a change to the benchmark, with the
baseline measured again.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time
from typing import Dict, List, Set, Tuple

#: kernel rounds per timing: about 1.3 ms, long against the clock's
#: resolution and short against a slice (4 % of a window in all)
KERNEL_ROUNDS = 3
#: ``time_kernel()`` on the reference box when nothing else runs; only
#: fixes the unit of the calibrated times, never their ratios
KERNEL_REF_S = 0.0013

_REPLICAS = 4
_QUORUM = 3
_INSTANCES = 12
_PAYLOAD = b"x" * 1024


class _Vote:
    __slots__ = ("kind", "sender", "seq", "digest")

    def __init__(self, kind: str, sender: int, seq: int, digest: bytes):
        self.kind = kind
        self.sender = sender
        self.seq = seq
        self.digest = digest


class _Replica:
    def __init__(self, ident: int):
        self.ident = ident
        self.votes: Dict[Tuple[str, int, bytes], Set[int]] = {}
        self.decided: Dict[int, bytes] = {}

    def propose(self, loop: "_Loop", seq: int) -> None:
        digest = hashlib.sha256(_PAYLOAD[: 64 + seq % 64]).digest()
        loop.broadcast(_Vote("write", self.ident, seq, digest))

    def receive(self, loop: "_Loop", vote: _Vote) -> None:
        key = (vote.kind, vote.seq, vote.digest)
        voters = self.votes.get(key)
        if voters is None:
            voters = self.votes[key] = set()
        voters.add(vote.sender)
        if len(voters) != _QUORUM:
            return
        if vote.kind == "write":
            loop.broadcast(_Vote("accept", self.ident, vote.seq, vote.digest))
        elif vote.seq not in self.decided:
            self.decided[vote.seq] = vote.digest


class _Loop:
    """Replicas never point back at the loop, so a round leaves no
    reference cycle behind for the program's collector to find."""

    def __init__(self) -> None:
        self.now = 0.0
        self.count = 0
        self.heap: List[tuple] = []
        self.replicas = [_Replica(ident) for ident in range(_REPLICAS)]

    def schedule(self, delay: float, replica: _Replica, vote) -> None:
        self.count += 1
        heapq.heappush(self.heap, (self.now + delay, self.count, replica, vote))

    def broadcast(self, vote: _Vote) -> None:
        for replica in self.replicas:
            jitter = 0.0001 * ((replica.ident * 7 + vote.seq) % 5)
            self.schedule(0.001 + jitter, replica, vote)

    def run(self) -> None:
        heap = self.heap
        while heap:
            self.now, _, replica, item = heapq.heappop(heap)
            if isinstance(item, _Vote):
                replica.receive(self, item)
            else:
                replica.propose(self, item)


def kernel() -> int:
    """One round: every replica proposes in every instance and all
    decide; returns the number of events processed."""
    loop = _Loop()
    for seq in range(_INSTANCES):
        for replica in loop.replicas:
            loop.schedule(seq * 0.01, replica, seq)
    loop.run()
    if any(len(replica.decided) != _INSTANCES for replica in loop.replicas):
        raise AssertionError("calibration kernel did not decide every instance")
    return loop.count


def time_kernel() -> float:
    """Host CPU seconds of :data:`KERNEL_ROUNDS` rounds.

    The collector is paused meanwhile, so no collection runs inside the
    kernel and none of the program's heap is billed to it; the kernel's
    objects hold no cycles and die by reference count.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(KERNEL_ROUNDS):
            kernel()
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()
