"""JSON codec for WAL records of the ordering service.

The consensus WAL persists records as JSON lines, but the ordering
service's operations (:class:`~repro.fabric.envelope.Envelope`,
:class:`~repro.ordering.blockcutter.TimeToCut`,
:class:`~repro.smart.reconfiguration.ReconfigOp`) and its application
state (which nests envelopes and raw hash bytes) are not JSON types.
This module provides the lossless round-trip used by
:func:`repro.ordering.service.build_ordering_service` when
``durable_wal`` is enabled.

Tagged encodings (tags chosen to be impossible keys of real payloads)::

    bytes       -> {"__b": hex}
    tuple       -> {"__t": [...]}
    Envelope    -> {"__env": {...}}   fabric.persistence's envelope dict
                                      plus create_time
    Transaction -> {"__tx": {...}}    fabric.persistence's transaction dict
    TimeToCut   -> {"__ttc": [channel_id, target_height]}
    ReconfigOp  -> {"__rc": [action, replica_id]}

Unknown object types raise ``TypeError`` loudly: silently degrading a
durable record (e.g. via ``repr``) would corrupt recovery.
"""

from __future__ import annotations

from typing import Any

from repro.fabric.envelope import Envelope, Transaction
from repro.fabric.persistence import (
    envelope_from_dict,
    envelope_to_dict,
    transaction_from_dict,
    transaction_to_dict,
)
from repro.ordering.blockcutter import TimeToCut
from repro.smart.reconfiguration import ReconfigOp


def encode_value(value: Any) -> Any:
    """Encode an operation or state snapshot into pure JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"__b": value.hex()}
    if isinstance(value, tuple):
        return {"__t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, Envelope):
        fields = envelope_to_dict(value, encode_transaction=encode_value)
        fields["create_time"] = value.create_time
        return {"__env": fields}
    if isinstance(value, Transaction):
        return {"__tx": transaction_to_dict(value)}
    if isinstance(value, TimeToCut):
        return {"__ttc": [value.channel_id, value.target_height]}
    if isinstance(value, ReconfigOp):
        return {"__rc": [value.action, value.replica_id]}
    raise TypeError(f"cannot encode {type(value).__name__} into a WAL record")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if "__b" in value and len(value) == 1:
            return bytes.fromhex(value["__b"])
        if "__t" in value and len(value) == 1:
            return tuple(decode_value(v) for v in value["__t"])
        if "__env" in value and len(value) == 1:
            fields = value["__env"]
            envelope = envelope_from_dict(fields, decode_transaction=decode_value)
            envelope.create_time = fields["create_time"]
            return envelope
        if "__tx" in value and len(value) == 1:
            return transaction_from_dict(value["__tx"])
        if "__ttc" in value and len(value) == 1:
            channel_id, target_height = value["__ttc"]
            return TimeToCut(channel_id=channel_id, target_height=target_height)
        if "__rc" in value and len(value) == 1:
            action, replica_id = value["__rc"]
            return ReconfigOp(action=action, replica_id=replica_id)
        return {k: decode_value(v) for k, v in value.items()}
    return value
