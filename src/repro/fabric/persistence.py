"""Ledger persistence: save/load chains as JSON.

Real peers persist their block store; this module serializes a
:class:`~repro.fabric.ledger.Ledger` (including full transactions,
endorsements and signatures) to a JSON file and reloads it with all
digests intact, so a reloaded chain still passes
:func:`repro.fabric.audit.audit_ledger` and signature verification.

Limitations (documented, enforced): chaincode arguments, results and
write-set values must be JSON-representable (which all shipped sample
chaincodes satisfy).
"""

from __future__ import annotations

import json
from typing import Any, Dict


from repro.fabric.block import Block, BlockHeader
from repro.fabric.envelope import (
    ChaincodeProposal,
    Endorsement,
    Envelope,
    ReadSet,
    Transaction,
    WriteSet,
)
from repro.fabric.ledger import Ledger

FORMAT_VERSION = 1


def transaction_to_dict(tx: Transaction) -> Dict[str, Any]:
    return {
        "tx_id": tx.tx_id,
        "proposal": {
            "channel_id": tx.proposal.channel_id,
            "chaincode_id": tx.proposal.chaincode_id,
            "function": tx.proposal.function,
            "args": list(tx.proposal.args),
            "client": tx.proposal.client,
            "nonce": tx.proposal.nonce,
            "timestamp": tx.proposal.timestamp,
        },
        "reads": {
            key: (list(version) if version is not None else None)
            for key, version in tx.read_set.reads.items()
        },
        "writes": dict(tx.write_set.writes),
        "result": tx.result,
        "endorsements": [
            {"endorser": e.endorser, "org": e.org, "signature": e.signature.hex()}
            for e in tx.endorsements
        ],
        "client_signature": tx.client_signature.hex(),
    }


def transaction_from_dict(data: Dict[str, Any]) -> Transaction:
    proposal = ChaincodeProposal(
        channel_id=data["proposal"]["channel_id"],
        chaincode_id=data["proposal"]["chaincode_id"],
        function=data["proposal"]["function"],
        args=tuple(data["proposal"]["args"]),
        client=data["proposal"]["client"],
        nonce=data["proposal"]["nonce"],
        timestamp=data["proposal"]["timestamp"],
    )
    return Transaction(
        proposal=proposal,
        read_set=ReadSet(
            {
                key: (tuple(version) if version is not None else None)
                for key, version in data["reads"].items()
            }
        ),
        write_set=WriteSet(dict(data["writes"])),
        result=data["result"],
        endorsements=[
            Endorsement(
                endorser=e["endorser"],
                org=e["org"],
                signature=bytes.fromhex(e["signature"]),
            )
            for e in data["endorsements"]
        ],
        client_signature=bytes.fromhex(data["client_signature"]),
        tx_id=data["tx_id"],
    )


def envelope_to_dict(envelope: Envelope, encode_transaction=transaction_to_dict) -> Dict[str, Any]:
    """The one JSON form of an envelope (the consensus WAL passes its
    own ``encode_transaction``, which also takes non-Fabric payloads)."""
    return {
        "channel_id": envelope.channel_id,
        "payload_size": envelope.payload_size,
        "submitter": envelope.submitter,
        "signature": envelope.signature.hex(),
        "is_config": envelope.is_config,
        "envelope_id": envelope.envelope_id,
        "transaction": (
            encode_transaction(envelope.transaction)
            if envelope.transaction is not None
            else None
        ),
    }


def envelope_from_dict(data: Dict[str, Any], decode_transaction=transaction_from_dict) -> Envelope:
    return Envelope(
        channel_id=data["channel_id"],
        transaction=(
            decode_transaction(data["transaction"])
            if data["transaction"] is not None
            else None
        ),
        payload_size=data["payload_size"],
        submitter=data["submitter"],
        signature=bytes.fromhex(data["signature"]),
        is_config=data["is_config"],
        envelope_id=data["envelope_id"],
    )


def block_to_dict(block: Block) -> Dict[str, Any]:
    return {
        "number": block.header.number,
        "previous_hash": block.header.previous_hash.hex(),
        "data_hash": block.header.data_hash.hex(),
        "channel_id": block.channel_id,
        "signatures": {
            signer: signature.hex() for signer, signature in block.signatures.items()
        },
        "envelopes": [envelope_to_dict(e) for e in block.envelopes],
    }


def block_from_dict(data: Dict[str, Any]) -> Block:
    header = BlockHeader(
        number=data["number"],
        previous_hash=bytes.fromhex(data["previous_hash"]),
        data_hash=bytes.fromhex(data["data_hash"]),
    )
    return Block(
        header=header,
        envelopes=[envelope_from_dict(e) for e in data["envelopes"]],
        signatures={
            signer: bytes.fromhex(signature)
            for signer, signature in data["signatures"].items()
        },
        channel_id=data["channel_id"],
    )


def save_ledger(ledger: Ledger, path: str) -> None:
    """Write the whole chain to ``path`` as JSON."""
    payload = {
        "format": FORMAT_VERSION,
        "channel_id": ledger.channel_id,
        "blocks": [block_to_dict(block) for block in ledger],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_ledger(path: str) -> Ledger:
    """Reload a chain; every chain/data invariant is re-checked on
    append, so a tampered file fails loudly."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported ledger format {payload.get('format')!r}")
    ledger = Ledger(payload["channel_id"])
    for block_data in payload["blocks"]:
        ledger.append(block_from_dict(block_data))
    return ledger
