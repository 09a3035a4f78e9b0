"""SHA-256 hashing over a canonical byte encoding.

Hyperledger Fabric hashes and signs protobuf-encoded structures; this
module provides the deterministic encoding our data structures use in
its place.  The encoding is a simple type-tagged, length-prefixed
format -- unambiguous (no two distinct values share an encoding), which
is all a hash chain needs.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable, Dict, Union

Encodable = Union[bytes, str, int, float, bool, None, tuple, list, dict]

# a tag and its big-endian length/count (I, B, S, L, M) or double (D),
# packed in one call
_LENGTH = struct.Struct(">cI")
_pack_length = _LENGTH.pack
_pack_float = struct.Struct(">cd").pack


def _encode_none(out: bytearray, value: None) -> None:
    out += b"N"


def _encode_bool(out: bytearray, value: bool) -> None:
    out += b"T" if value else b"F"


def _encode_int(out: bytearray, value: int) -> None:
    body = str(value).encode("ascii")
    out += _pack_length(b"I", len(body))
    out += body


def _encode_float(out: bytearray, value: float) -> None:
    out += _pack_float(b"D", value)


def _encode_bytes(out: bytearray, value: bytes) -> None:
    out += _pack_length(b"B", len(value))
    out += value


def _encode_str(out: bytearray, value: str) -> None:
    body = value.encode("utf-8")
    out += _pack_length(b"S", len(body))
    out += body


def _encode_list(out: bytearray, value: Union[list, tuple]) -> None:
    out += _pack_length(b"L", len(value))
    lookup = _ENCODERS.get
    for item in value:
        (lookup(type(item)) or _inherited_encoder(item))(out, item)


def _encode_dict(out: bytearray, value: dict) -> None:
    """Entries sorted by encoded key.  Every entry (key then value) is
    encoded once, straight into ``out``; only then are the entries cut
    out as slices, sorted and written back.  An encoding is never a
    proper prefix of another (every value is tagged and length-
    prefixed), so ordering whole entries is ordering by key, ties
    broken by value."""
    header = len(out)
    out += b"M\0\0\0\0"  # the count is patched in once items() is exhausted
    first = len(out)
    lookup = _ENCODERS.get
    ends = []
    for key, val in value.items():
        (lookup(type(key)) or _inherited_encoder(key))(out, key)
        (lookup(type(val)) or _inherited_encoder(val))(out, val)
        ends.append(len(out))
    if not ends:
        return
    _LENGTH.pack_into(out, header, b"M", len(ends))
    if len(ends) > 1:
        entries = sorted(out[a:b] for a, b in zip([first, *ends], ends))
        out[first:] = b"".join(entries)


#: exact type -> encoder.  Every call site spells the dispatch out --
#: ``(lookup(type(v)) or _inherited_encoder(v))(out, v)`` -- because one
#: dict probe and one call per value is the whole cost of a scalar
_ENCODERS: Dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    bytes: _encode_bytes,
    str: _encode_str,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
}


def _inherited_encoder(value: Any) -> Callable[[bytearray, Any], None]:
    """The encoder of the nearest encodable base class (an ``IntEnum``
    is an int, a namedtuple a tuple, an ``OrderedDict`` a dict), or
    ``TypeError``."""
    for base in type(value).__mro__:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            return encoder
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_encode(value: Encodable) -> bytes:
    """Deterministically encode ``value`` to bytes.

    Supports None, bools, ints, floats, bytes, str, and (nested)
    lists/tuples and dicts with encodable keys (dict entries are sorted
    by encoded key, so dict ordering never affects the output), and
    instances of their subclasses.  Anything else is a ``TypeError``.
    """
    out = bytearray()
    (_ENCODERS.get(type(value)) or _inherited_encoder(value))(out, value)
    return bytes(out)


def sha256(*values: Encodable) -> bytes:
    """SHA-256 digest of the canonical encoding of ``values``.

    ``bytes`` arguments passed alone are hashed as-is-encoded (still
    length-prefixed), so ``sha256(a, b) != sha256(a + b)`` -- no
    concatenation ambiguity.
    """
    # hashing the concatenation equals feeding the encodings to one
    # hasher.update per value; a single buffer skips the per-value
    # bytes copies (sha256 runs on every propose/sign/verify)
    out = bytearray()
    lookup = _ENCODERS.get
    for value in values:
        (lookup(type(value)) or _inherited_encoder(value))(out, value)
    return hashlib.sha256(out).digest()


def sha256_hex(*values: Encodable) -> str:
    return sha256(*values).hex()
