"""Client-side service proxy (BFT-SMaRt's ``ServiceProxy``).

Sends requests to every replica of the current view and matches their
replies.  Two delivery modes mirror the paper:

- **final** replies (classic BFT-SMaRt): wait for matching replies
  from replicas with combined weight > f·Vmax (i.e. at least one
  correct replica vouches for the result);
- **tentative** replies (WHEAT): replies arrive one communication step
  earlier but the client must wait for a full WRITE-quorum's weight of
  matching replies (paper section 4).

The ordering-service frontends use :meth:`invoke_async`, which does
not wait for per-request replies at all -- generated blocks flow back
through the custom replier instead (paper section 5.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional


from repro.crypto.hashing import sha256
from repro.sim.core import Future, Simulator
from repro.sim.network import Network
from repro.smart.messages import ClientRequest, Reply, request_uids
from repro.smart.view import View


def _result_key(result: Any) -> bytes:
    """Canonical digest used to compare replies from different replicas."""
    try:
        return sha256("reply", result)
    except TypeError:
        return sha256("reply-repr", repr(result))


@dataclass
class _PendingInvocation:
    request: ClientRequest
    future: Future
    final_weights: Dict[bytes, Dict[int, float]]
    tentative_weights: Dict[bytes, Dict[int, float]]
    results: Dict[bytes, Any]
    retries: int = 0


class ServiceProxy:
    """One client's gateway to the replicated service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        client_id: int,
        view: View,
        accept_tentative: bool = False,
        invoke_timeout: float = 4.0,
        max_retries: int = 8,
        register: bool = True,
        backoff_factor: float = 2.0,
        max_backoff: float = 30.0,
        jitter_fraction: float = 0.1,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.network = network
        self.client_id = client_id
        self.view = view
        self.accept_tentative = accept_tentative
        self.invoke_timeout = invoke_timeout
        self.max_retries = max_retries
        #: retransmission backoff: the k-th retry waits
        #: ``invoke_timeout * backoff_factor**k`` (capped at
        #: ``max_backoff``), spread by ``jitter_fraction`` when a seeded
        #: ``rng`` is supplied -- with no rng the backoff is pure
        #: exponential, so the proxy never touches ambient randomness
        self.backoff_factor = backoff_factor
        self.max_backoff = max_backoff
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        self._sequence = 0
        self._uids = request_uids(sim)
        self._pending: Dict[int, _PendingInvocation] = {}
        self.replies_received = 0
        #: optional repro.obs.Observability hub (attached externally)
        self.obs = None
        if register:
            network.register(client_id, self)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def next_sequence(self) -> int:
        seq = self._sequence
        self._sequence += 1
        return seq

    def invoke(
        self, operation: Any, size_bytes: int = 0, reconfig: bool = False
    ) -> Future:
        """Submit an operation; the future resolves with the result."""
        request = ClientRequest(
            client_id=self.client_id,
            sequence=self.next_sequence(),
            operation=operation,
            size_bytes=size_bytes,
            reconfig=reconfig,
            submit_time=self.sim.now,
            uid=next(self._uids),
        )
        invocation = _PendingInvocation(
            request=request,
            future=self.sim.future(),
            final_weights={},
            tentative_weights={},
            results={},
        )
        self._pending[request.sequence] = invocation
        if self.obs is not None:
            self.obs.on_invoke(self.client_id, asynchronous=False)
        self._transmit(request)
        self.sim.post(self.invoke_timeout, self._check_retry, request.sequence)
        return invocation.future

    def invoke_async(self, operation: Any, size_bytes: int = 0) -> ClientRequest:
        """Fire-and-forget ordering (the ordering-service mode)."""
        request = ClientRequest(
            client_id=self.client_id,
            sequence=self.next_sequence(),
            operation=operation,
            size_bytes=size_bytes,
            submit_time=self.sim.now,
            uid=next(self._uids),
        )
        if self.obs is not None:
            self.obs.on_invoke(self.client_id, asynchronous=True)
        self._transmit(request)
        return request

    def _transmit(self, request: ClientRequest) -> None:
        self.network.broadcast(
            self.client_id, self.view.processes, request, request.wire_size()
        )

    def retry_delay(self, retries: int) -> float:
        """Wait before the next retransmission check.

        Capped exponential backoff -- ``invoke_timeout * factor**k``,
        never more than ``max_backoff`` -- with multiplicative jitter
        from the proxy's seeded rng (when one is wired) so a thundering
        herd of same-deadline clients decorrelates.  No rng, no jitter:
        the default path stays bit-deterministic.
        """
        delay = min(
            self.invoke_timeout * self.backoff_factor ** retries,
            self.max_backoff,
        )
        if self.rng is not None and self.jitter_fraction > 0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * self.rng.random() - 1.0)
        return delay

    def _check_retry(self, sequence: int) -> None:
        invocation = self._pending.get(sequence)
        if invocation is None:
            return
        invocation.retries += 1
        if invocation.retries > self.max_retries:
            self._pending.pop(sequence, None)
            invocation.future.fail(
                TimeoutError(f"request {self.client_id}:{sequence} gave up")
            )
            return
        if self.obs is not None:
            self.obs.on_retry(self.client_id)
        self._transmit(invocation.request)
        self.sim.post(self.retry_delay(invocation.retries), self._check_retry, sequence)

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if not isinstance(message, Reply):
            return
        if message.client_id != self.client_id:
            return
        invocation = self._pending.get(message.sequence)
        if invocation is None:
            return
        if message.sender not in self.view.weights:
            return
        self.replies_received += 1
        key = _result_key(message.result)
        invocation.results[key] = message.result
        weight = self.view.weight_of(message.sender)
        bucket = (
            invocation.tentative_weights if message.tentative else invocation.final_weights
        )
        bucket.setdefault(key, {})[message.sender] = weight
        self._check_complete(invocation, key)

    def _check_complete(self, invocation: _PendingInvocation, key: bytes) -> None:
        final = sum(invocation.final_weights.get(key, {}).values())
        if self.view.is_reply_quorum(final, tentative=False):
            self._complete(invocation, key)
            return
        if self.accept_tentative:
            tentative = sum(invocation.tentative_weights.get(key, {}).values())
            # final replies also vouch for the value
            tentative += final
            if self.view.is_reply_quorum(tentative, tentative=True):
                self._complete(invocation, key)

    def _complete(self, invocation: _PendingInvocation, key: bytes) -> None:
        self._pending.pop(invocation.request.sequence, None)
        if not invocation.future.done:
            if self.obs is not None:
                latency = self.sim.now - invocation.request.submit_time
                self.obs.on_reply(self.client_id, latency)
            invocation.future.resolve(invocation.results[key])

    # ------------------------------------------------------------------
    def update_view(self, view: View) -> None:
        """Adopt a new view (after reconfiguration)."""
        self.view = view
