"""Property-based tests for the crypto substrate."""

import collections
import enum
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ecdsa import ECDSAP256Scheme
from repro.crypto.hashing import canonical_encode, sha256
from repro.crypto.mac import MacAuthenticator
from repro.crypto.signatures import SimulatedECDSA

# a strategy for arbitrarily nested encodable values
encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def oracle_encode(value) -> bytes:
    """The recursive isinstance-chain encoder ``crypto/hashing.py`` had
    before its single-pass one, kept verbatim as the reference: the
    production encoder must agree with it byte for byte, and raise
    ``TypeError`` exactly where it does."""
    out = bytearray()
    _oracle_encode_into(out, value)
    return bytes(out)


def _oracle_encode_into(out: bytearray, value) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        body = str(value).encode("ascii")
        out += b"I"
        out += struct.pack(">I", len(body))
        out += body
    elif isinstance(value, float):
        out += b"D"
        out += struct.pack(">d", value)
    elif isinstance(value, bytes):
        out += b"B"
        out += struct.pack(">I", len(value))
        out += value
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"S"
        out += struct.pack(">I", len(body))
        out += body
    elif isinstance(value, (list, tuple)):
        out += b"L"
        out += struct.pack(">I", len(value))
        for item in value:
            _oracle_encode_into(out, item)
    elif isinstance(value, dict):
        encoded_items = sorted(
            (oracle_encode(key), oracle_encode(val)) for key, val in value.items()
        )
        out += b"M"
        out += struct.pack(">I", len(encoded_items))
        for key_bytes, val_bytes in encoded_items:
            out += key_bytes
            out += val_bytes
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


class Rank(enum.IntEnum):
    LOW = 1
    HIGH = 1000


class Tag(str):
    pass


Pair = collections.namedtuple("Pair", "left right")

# hashable encodable values: what a dict key can be
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.binary(max_size=16)
    | st.text(max_size=8)
    | st.sampled_from(list(Rank))
    | st.text(max_size=8).map(Tag)
)
_keys = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.tuples(children, children).map(lambda pair: Pair(*pair)),
    max_leaves=4,
)
#: everything the encoder accepts, subclass instances included, plus --
#: rarely -- values it must refuse, anywhere in the structure
_unencodable = st.sampled_from([set(), bytearray(b"x"), object(), 1j])
any_value = st.recursive(
    _scalars | _unencodable,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.tuples(children, children).map(lambda pair: Pair(*pair))
    | st.dictionaries(_keys, children, max_size=5)
    | st.dictionaries(_keys, children, max_size=3).map(collections.OrderedDict),
    max_leaves=16,
)


class TestEncoderAgainstOracle:
    @given(any_value)
    @settings(max_examples=400)
    def test_same_bytes_or_same_type_error(self, value):
        try:
            expected = oracle_encode(value)
        except TypeError as error:
            with pytest.raises(TypeError) as raised:
                canonical_encode(value)
            assert str(raised.value) == str(error)
        else:
            assert canonical_encode(value) == expected

    @given(st.lists(any_value, max_size=4))
    def test_sha256_hashes_the_concatenated_encodings(self, values):
        try:
            expected = b"".join(oracle_encode(value) for value in values)
        except TypeError:
            with pytest.raises(TypeError):
                sha256(*values)
        else:
            assert sha256(*values) == hashlib.sha256(expected).digest()

    @given(st.dictionaries(_keys, any_value, min_size=2, max_size=6), st.randoms())
    def test_dict_entries_sorted_whatever_the_insertion_order(self, mapping, rng):
        items = list(mapping.items())
        rng.shuffle(items)
        try:
            expected = oracle_encode(mapping)
        except TypeError:
            return
        assert canonical_encode(dict(items)) == expected


class TestCanonicalEncoding:
    @given(encodable)
    def test_encoding_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(encodable, encodable)
    def test_distinct_values_distinct_encodings(self, a, b):
        if a != b:
            assert canonical_encode(a) != canonical_encode(b)

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    def test_dict_insertion_order_irrelevant(self, mapping):
        items = list(mapping.items())
        reversed_dict = dict(reversed(items))
        assert canonical_encode(mapping) == canonical_encode(reversed_dict)

    @given(st.lists(st.binary(max_size=16), max_size=6))
    def test_no_list_concatenation_collision(self, chunks):
        digest = sha256(chunks)
        joined = sha256([b"".join(chunks)])
        if len(chunks) != 1:
            assert digest != joined


class TestSimulatedSignatures:
    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40)
    def test_roundtrip(self, message, seed):
        scheme = SimulatedECDSA()
        private, public = scheme.keygen(random.Random(seed))
        assert scheme.verify(public, message, scheme.sign(private, message))

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 63))
    @settings(max_examples=40)
    def test_bitflip_detected(self, message, flip_byte):
        scheme = SimulatedECDSA()
        private, public = scheme.keygen(random.Random(1))
        signature = bytearray(scheme.sign(private, message))
        signature[flip_byte % len(signature)] ^= 0x01
        assert not scheme.verify(public, message, bytes(signature))


class TestRealECDSA:
    @given(st.binary(max_size=128))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip(self, message):
        scheme = ECDSAP256Scheme()
        private, public = scheme.keygen(random.Random(99))
        assert scheme.verify(public, message, scheme.sign(private, message))

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=10, deadline=None)
    def test_cross_message_rejection(self, message):
        scheme = ECDSAP256Scheme()
        private, public = scheme.keygen(random.Random(99))
        signature = scheme.sign(private, b"fixed")
        if message != b"fixed":
            assert not scheme.verify(public, message, signature)


class TestMacs:
    @given(st.binary(max_size=128), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40)
    def test_roundtrip_any_pair(self, message, a, b):
        auth_a = MacAuthenticator(a)
        auth_b = MacAuthenticator(b)
        assert auth_b.check(a, message, auth_a.tag(b, message))
