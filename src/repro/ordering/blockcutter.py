"""The block cutter (paper section 5.1).

Ordering nodes store the totally-ordered envelope stream in a
*blockcutter*; once it holds a pre-determined number of envelopes (the
block size -- 10 or 100 in the paper's experiments) it drains them
into the next block.  Mirrors Fabric's ``blockcutter`` package,
including the byte-based early cut and the immediate cut of config
envelopes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope


class BlockCutter:
    """Accumulates ordered envelopes and emits batches deterministically.

    Determinism matters: every ordering node runs the same cutter over
    the same envelope stream, so all nodes cut identical blocks.
    """

    def __init__(self, config: ChannelConfig):
        self.config = config
        self._pending: List[Envelope] = []
        self._pending_bytes = 0
        self.batches_cut = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def ordered(self, envelope: Envelope) -> List[List[Envelope]]:
        """Feed one ordered envelope; returns zero or more cut batches."""
        return self.ordered_run((envelope,), 0, 1)[0]

    def ordered_run(
        self, envelopes: Sequence[Envelope], start: int, stop: int
    ) -> Tuple[List[List[Envelope]], int]:
        """Feed ``envelopes[start:stop]`` in order, up to and including
        the first envelope that cuts.

        Returns the batches that envelope cut (none if the run ended
        first) and the index of the next envelope not yet fed, so a
        caller can act on a cut -- assemble the blocks, arm a timer --
        exactly where feeding one envelope at a time would have, and
        then resume.  This loop is the cutting rule; :meth:`ordered` is
        its one-envelope case.
        """
        preferred_max_bytes = self.config.preferred_max_bytes
        max_message_count = self.config.max_message_count
        pending = self._pending
        pending_bytes = self._pending_bytes
        count = len(pending)
        batches: List[List[Envelope]] = []
        index = start
        while index < stop and not batches:
            envelope = envelopes[index]
            index += 1
            if envelope.is_config:
                # config envelopes get a block of their own, after flushing
                if count:
                    batches.append(self.cut())
                batches.append([envelope])
                self.batches_cut += 1
                return batches, index
            size = envelope.payload_size
            if count and pending_bytes + size > preferred_max_bytes:
                # the message would overflow the pending batch: cut first
                batches.append(self.cut())
                pending, pending_bytes, count = self._pending, 0, 0
            pending.append(envelope)
            pending_bytes += size
            count += 1
            if count >= max_message_count:
                batches.append(self.cut())
                return batches, index
        self._pending_bytes = pending_bytes
        return batches, index

    def cut(self) -> List[Envelope]:
        """Drain the pending envelopes as one batch (may be empty)."""
        batch, self._pending = self._pending, []
        self._pending_bytes = 0
        if batch:
            self.batches_cut += 1
        return batch
