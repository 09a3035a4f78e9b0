"""Hyperledger Fabric substrate (the platform the ordering service plugs into).

Implements the HLF v1.0 transaction flow of paper section 3:

1. clients send chaincode proposals to *endorsing peers*
   (:mod:`repro.fabric.endorser`) -- the fewest whose organizations
   satisfy the endorsement policy -- which simulate the transaction
   against their current state (:mod:`repro.fabric.statedb`,
   :mod:`repro.fabric.chaincode`) and sign the resulting read/write
   sets;
2. the client assembles the endorsements into a transaction *envelope*
   (:mod:`repro.fabric.envelope`) and broadcasts it to an ordering
   service;
3. the ordering service cuts signed *blocks*
   (:mod:`repro.fabric.block`) chained by cryptographic hashes;
4. *committing peers* (:mod:`repro.fabric.committer`) validate each
   transaction (endorsement policy + MVCC read-set check), mark it
   valid or invalid, apply valid write sets, and append the block to
   the channel ledger (:mod:`repro.fabric.ledger`);
5. clients are notified of commitment and validity, one filtered
   block event per committed block.

The stock ordering services HLF shipped with -- *solo* and the
Kafka-based crash-fault-tolerant cluster -- live in
:mod:`repro.fabric.orderers` and serve as the baselines the paper
contrasts its BFT service against.
"""

from repro.fabric.block import Block, BlockHeader, compute_data_hash
from repro.fabric.channel import ChannelConfig
from repro.fabric.chaincode import (
    AssetTransferChaincode,
    Chaincode,
    ChaincodeError,
    ChaincodeStub,
    KVChaincode,
    SmallBankChaincode,
)
from repro.fabric.client import FabricClient
from repro.fabric.committer import CommittingPeer, ValidationCode, validate_block
from repro.fabric.endorser import EndorsingPeer
from repro.fabric.envelope import (
    ChaincodeProposal,
    Endorsement,
    Envelope,
    ProposalResponse,
    ReadSet,
    Transaction,
    WriteSet,
)
from repro.fabric.ledger import Ledger
from repro.fabric.policy import And, EndorsementPolicy, Or, OutOf, SignedBy
from repro.fabric.statedb import VersionedValue, VersionedKVStore

__all__ = [
    "And",
    "AssetTransferChaincode",
    "Block",
    "BlockHeader",
    "ChaincodeError",
    "Chaincode",
    "ChaincodeProposal",
    "ChaincodeStub",
    "ChannelConfig",
    "CommittingPeer",
    "Endorsement",
    "EndorsementPolicy",
    "EndorsingPeer",
    "Envelope",
    "FabricClient",
    "KVChaincode",
    "Ledger",
    "Or",
    "OutOf",
    "ProposalResponse",
    "ReadSet",
    "SignedBy",
    "SmallBankChaincode",
    "Transaction",
    "ValidationCode",
    "VersionedKVStore",
    "VersionedValue",
    "WriteSet",
    "compute_data_hash",
    "validate_block",
]
