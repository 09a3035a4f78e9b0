"""Global invariants checked after every fault run.

The checks mirror what the paper's fault model promises:

- **no fork** -- no two correct replicas execute divergent histories,
  and the durable operation logs of any two replicas agree on every
  consensus instance both logged;
- **block agreement** -- no ordering node ever signs two different
  blocks with one number, all nodes agree on each number's digest, and
  every frontend (which waits for ``2f+1`` matching copies) delivers
  the same hash chain;
- **durability** -- a recovered replica's log is consistent with its
  peers' (subsumed by the log-agreement check, which runs after
  crash/recover schedules too);
- **liveness** -- once faults heal, every submitted envelope is
  eventually ordered and delivered;
- **serializability** (the Fabric path) -- every transaction a
  committing peer marks valid read the latest committed version of each
  key, every MVCC conflict read a stale one, and peers at one height
  hold the same world state.

Checkers return :class:`Violation` lists instead of asserting, so the
schedule explorer can aggregate, report and shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.fabric.api import BlockDelivery
from repro.fabric.committer import ValidationCode
from repro.smart.messages import Accept, Write


@dataclass(frozen=True)
class Violation:
    """One invariant breach with enough detail to debug it."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


# ----------------------------------------------------------------------
# replica-level safety
# ----------------------------------------------------------------------
def check_history_prefixes(
    histories: Mapping[Any, Sequence], exclude: Sequence = ()
) -> List[Violation]:
    """No fork: every pair of histories must be prefix-consistent."""
    violations: List[Violation] = []
    items = [(rid, list(h)) for rid, h in histories.items() if rid not in set(exclude)]
    for i, (id_a, hist_a) in enumerate(items):
        for id_b, hist_b in items[i + 1 :]:
            common = min(len(hist_a), len(hist_b))
            if hist_a[:common] != hist_b[:common]:
                index = next(
                    k for k in range(common) if hist_a[k] != hist_b[k]
                )
                violations.append(
                    Violation(
                        "fork",
                        f"replicas {id_a} and {id_b} diverge at position "
                        f"{index}: {hist_a[index]!r} != {hist_b[index]!r}",
                    )
                )
    return violations


def check_log_agreement(
    log_digests: Mapping[Any, Mapping[int, bytes]], exclude: Sequence = ()
) -> List[Violation]:
    """Durable logs agree: same cid => same decided-batch hash."""
    violations: List[Violation] = []
    reference: Dict[int, tuple] = {}
    excluded = set(exclude)
    for rid in sorted(log_digests, key=repr):
        if rid in excluded:
            continue
        for cid, digest in sorted(log_digests[rid].items()):
            seen = reference.get(cid)
            if seen is None:
                reference[cid] = (rid, digest)
            elif seen[1] != digest:
                violations.append(
                    Violation(
                        "fork",
                        f"consensus instance {cid} decided differently at "
                        f"replicas {seen[0]} and {rid}",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# block-level safety (ordering service)
# ----------------------------------------------------------------------
class BlockRecorder:
    """Network tap recording every block copy any node disseminates.

    Install on a network (it is a pass-through filter) before the run;
    afterwards :meth:`check` reports equivocation (one node, one
    number, two digests) and cross-node disagreement.
    """

    def __init__(self, network=None):
        self.copies: List[tuple] = []  # (source, channel, number, digest)
        if network is not None:
            network.add_filter(self)

    def __call__(self, src, dst, payload):
        if isinstance(payload, BlockDelivery):
            block = payload.block
            self.copies.append(
                (
                    payload.source,
                    block.channel_id,
                    block.header.number,
                    block.header.digest(),
                )
            )
        return payload

    def check(self) -> List[Violation]:
        violations: List[Violation] = []
        per_node: Dict[tuple, bytes] = {}
        per_number: Dict[tuple, tuple] = {}
        for source, channel, number, digest in self.copies:
            node_key = (source, channel, number)
            if node_key in per_node and per_node[node_key] != digest:
                violations.append(
                    Violation(
                        "block-equivocation",
                        f"node {source} signed two different blocks for "
                        f"{channel}#{number}",
                    )
                )
            per_node.setdefault(node_key, digest)
            num_key = (channel, number)
            seen = per_number.get(num_key)
            if seen is None:
                per_number[num_key] = (source, digest)
            elif seen[1] != digest:
                violations.append(
                    Violation(
                        "block-fork",
                        f"nodes {seen[0]} and {source} disagree on "
                        f"{channel}#{number}",
                    )
                )
        return violations


class VoteRecorder:
    """Network tap recording every WRITE/ACCEPT vote any replica sends.

    Backs the *no equivocation by amnesia* invariant: a replica that
    crashes, loses its volatile state and restarts from its WAL must
    never send a WRITE/ACCEPT for a (cid, regency) slot with a
    different value hash than its pre-crash incarnation did.  Only
    network-visible votes matter -- a vote that never left the replica
    cannot mislead anyone.
    """

    def __init__(self, network=None):
        self.votes: List[tuple] = []  # (sender, phase, cid, regency, hash)
        if network is not None:
            network.add_filter(self)

    def __call__(self, src, dst, payload):
        if isinstance(payload, Write):
            self.votes.append(
                (payload.sender, "write", payload.cid, payload.regency, payload.value_hash)
            )
        elif isinstance(payload, Accept):
            self.votes.append(
                (payload.sender, "accept", payload.cid, payload.regency, payload.value_hash)
            )
        return payload

    def check(self, exclude: Sequence = ()) -> List[Violation]:
        violations: List[Violation] = []
        excluded = set(exclude)
        seen: Dict[tuple, bytes] = {}
        reported: set = set()
        for sender, phase, cid, regency, value_hash in self.votes:
            if sender in excluded:
                continue
            key = (sender, phase, cid, regency)
            first = seen.setdefault(key, value_hash)
            if first != value_hash and key not in reported:
                reported.add(key)
                violations.append(
                    Violation(
                        "vote-equivocation",
                        f"replica {sender} sent two different {phase.upper()} "
                        f"values for cid={cid} regency={regency}",
                    )
                )
        return violations


def check_durable_logs(replicas: Sequence) -> List[Violation]:
    """Every replica's durable log verifies (CRC-framed, no internal
    conflicts) -- the durable-log-under-torn-write invariant.

    Replicas with plain in-memory logs (no ``verify`` hook) are
    skipped.
    """
    violations: List[Violation] = []
    for replica in replicas:
        verify = getattr(replica.log, "verify", None)
        if verify is None:
            continue
        for problem in verify():
            violations.append(
                Violation(
                    "durable-log",
                    f"replica {replica.replica_id}: {problem}",
                )
            )
    return violations


def check_frontend_agreement(frontends: Sequence) -> List[Violation]:
    """All frontends deliver the same per-channel digest chain.

    A slower frontend may have delivered a prefix of a faster one; any
    disagreement *within* the common prefix is a fork.
    """
    violations: List[Violation] = []
    channels = sorted({c for fe in frontends for c in fe.delivered_digests})
    for channel in channels:
        chains = [
            (fe.name, fe.delivered_digests.get(channel, [])) for fe in frontends
        ]
        for i, (name_a, chain_a) in enumerate(chains):
            for name_b, chain_b in chains[i + 1 :]:
                common = min(len(chain_a), len(chain_b))
                if chain_a[:common] != chain_b[:common]:
                    violations.append(
                        Violation(
                            "frontend-disagreement",
                            f"frontends {name_a} and {name_b} delivered "
                            f"different chains on channel {channel!r}",
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# the Fabric path: serializability
# ----------------------------------------------------------------------
def _replay_violations(peer) -> List[Violation]:
    """Replay ``peer``'s commits in block order against the versions the
    valid writes before each transaction left."""
    violations: List[Violation] = []
    versions: Dict[str, tuple] = {}  # key -> version of its last valid write
    for record in peer.commits:
        number = record.block.header.number
        for index, (envelope, code) in enumerate(zip(record.block.envelopes, record.codes)):
            tx = envelope.transaction
            if tx is None:
                continue
            stale = [
                key
                for key, version in sorted(tx.read_set.reads.items())
                if (tuple(version) if version is not None else None) != versions.get(key)
            ]
            where = f"peer {peer.name}: block {number} transaction {index}"
            if code is ValidationCode.VALID:
                if stale:
                    violations.append(
                        Violation(
                            "serializability",
                            f"{where} is VALID but read {stale[0]!r} at "
                            f"{tx.read_set.reads[stale[0]]}, not at its last "
                            f"valid write {versions.get(stale[0])}",
                        )
                    )
                for key, value in sorted(tx.write_set.writes.items()):
                    if value is None:
                        versions.pop(key, None)  # a delete
                    else:
                        versions[key] = (number, index)
            elif code is ValidationCode.MVCC_READ_CONFLICT and not stale:
                violations.append(
                    Violation(
                        "serializability",
                        f"{where} is an MVCC_READ_CONFLICT but read every key "
                        f"at its last valid write",
                    )
                )
    return violations


def check_serializability(peers: Sequence) -> List[Violation]:
    """Replay each committing peer's ledger in block order:

    - every ``VALID`` transaction read, for each key, exactly the version
      of the last ``VALID`` write before it, or ``None`` if there was none;
    - every ``MVCC_READ_CONFLICT`` transaction read some other version;
    - peers at the same ledger height hold equal world state.
    """
    violations: List[Violation] = []
    for peer in peers:
        violations.extend(_replay_violations(peer))
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            if (
                peer_a.ledger.height == peer_b.ledger.height
                and peer_a.state.snapshot() != peer_b.state.snapshot()
            ):
                violations.append(
                    Violation(
                        "serializability",
                        f"peers {peer_a.name} and {peer_b.name} are both at "
                        f"height {peer_a.ledger.height} with different world state",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# backpressure: no silent drops
# ----------------------------------------------------------------------
class SubmissionRecorder:
    """Records the explicit outcome of every frontend submission.

    Wraps each frontend's ``submit`` -- covering both direct calls and
    ``SubmitEnvelope`` deliveries arriving over the network (adversarial
    floods) -- and taps its ``on_block`` hook.  Afterwards every offered
    envelope id can be classified: *admitted* (verdict ``None``),
    *explicitly rejected* (a :class:`~repro.ordering.admission.Rejected`
    with a reason) or *committed*.  :func:`check_no_silent_drop` turns
    the classification into the backpressure invariant.
    """

    def __init__(self, frontends=()):
        #: envelope id -> verdict of each submission (None = admitted)
        self.outcomes: Dict[int, List[Any]] = {}
        self.committed: set = set()
        for frontend in frontends:
            self.attach(frontend)

    def attach(self, frontend) -> None:
        original = frontend.submit

        def recording_submit(envelope, _original=original):
            verdict = _original(envelope)
            self.outcomes.setdefault(envelope.envelope_id, []).append(verdict)
            return verdict

        frontend.submit = recording_submit
        frontend.on_block.append(self._on_block)

    def _on_block(self, block) -> None:
        for envelope in block.envelopes:
            self.committed.add(envelope.envelope_id)

    def admitted_ids(self) -> set:
        return {
            envelope_id
            for envelope_id, verdicts in self.outcomes.items()
            if any(verdict is None for verdict in verdicts)
        }

    def unresolved_ids(self) -> set:
        """Admitted but not (yet) committed -- silent drops if final."""
        return self.admitted_ids() - self.committed


def check_no_silent_drop(recorder: SubmissionRecorder) -> List[Violation]:
    """Every submission ends explicitly: committed, or rejected with a
    reason.  An envelope the service accepted and then lost -- and a
    rejection carrying no reason the client could act on -- are both
    violations (the backpressure contract of docs/WORKLOADS.md)."""
    violations: List[Violation] = []
    unresolved = sorted(recorder.unresolved_ids())
    if unresolved:
        head = ", ".join(str(envelope_id) for envelope_id in unresolved[:8])
        suffix = ", ..." if len(unresolved) > 8 else ""
        violations.append(
            Violation(
                "no-silent-drop",
                f"{len(unresolved)} envelope(s) admitted but never "
                f"committed (ids {head}{suffix})",
            )
        )
    for envelope_id, verdicts in sorted(recorder.outcomes.items()):
        for verdict in verdicts:
            if verdict is not None and not getattr(verdict, "reason", ""):
                violations.append(
                    Violation(
                        "no-silent-drop",
                        f"envelope {envelope_id} rejected without a reason",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
def check_liveness(submitted: int, delivered: int) -> List[Violation]:
    """After healing and draining, everything submitted was ordered."""
    if delivered < submitted:
        return [
            Violation(
                "liveness",
                f"only {delivered} of {submitted} envelopes delivered "
                "after faults healed",
            )
        ]
    return []


# ----------------------------------------------------------------------
# one-call service check
# ----------------------------------------------------------------------
def check_ordering_service(
    service,
    recorder: Optional[BlockRecorder] = None,
    expect_live: bool = True,
    vote_recorder: Optional[VoteRecorder] = None,
) -> List[Violation]:
    """Run every applicable invariant against an
    :class:`~repro.ordering.service.OrderingService` deployment."""
    violations: List[Violation] = []
    violations += check_log_agreement(service.replica_log_digests())
    violations += check_durable_logs(service.replicas)
    if recorder is not None:
        violations += recorder.check()
    if vote_recorder is not None:
        violations += vote_recorder.check()
    violations += check_frontend_agreement(service.frontends)
    if expect_live:
        violations += check_liveness(
            service.total_submitted(), service.total_delivered()
        )
    return violations
