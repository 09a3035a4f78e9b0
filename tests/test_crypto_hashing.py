"""Unit tests for canonical encoding and hashing."""

import collections
import enum
import sys

import pytest

from repro.crypto.hashing import canonical_encode, hash_iterable, sha256, sha256_hex


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 300


class Hex(int):
    """An int whose ``str`` is not its decimal form: ints are encoded
    through ``str(value)``, subclasses included."""

    def __str__(self):
        return hex(self)


Point = collections.namedtuple("Point", "x y")


class Label(str):
    pass


#: (value, hex of its canonical encoding), recorded from the recursive
#: isinstance-chain encoder this module replaced: every tag, the edge
#: values of each, and subclass instances (which the exact-type table
#: resolves through the MRO).  The encoding is what every digest,
#: signature and golden in the repo is made of; it never changes.
VECTORS = {
    "none": (None, "4e"),
    "true": (True, "54"),
    "false": (False, "46"),
    "int-zero": (0, "490000000130"),
    "int-one": (1, "490000000131"),
    "int-negative": (-1, "49000000022d31"),
    "int-negative-huge": (
        -(2**70),
        "49000000172d31313830353931363230373137343131333033343234",
    ),
    "int-huge": (
        2**300,
        "490000005b3230333730333539373633333434383630383632363834343536383834303933"
        "3738313631303531343638333933363635393336323530363336313430343439333534333831"
        "323939373633333336373036313833333937333736",
    ),
    "float": (1.5, "443ff8000000000000"),
    "float-zero": (0.0, "440000000000000000"),
    "float-negative-zero": (-0.0, "448000000000000000"),
    "float-inf": (float("inf"), "447ff0000000000000"),
    "float-negative-inf": (float("-inf"), "44fff0000000000000"),
    "bytes-empty": (b"", "4200000000"),
    "bytes": (b"\x00bytes\xff", "4200000007006279746573ff"),
    "str-empty": ("", "5300000000"),
    "str": ("str", "5300000003737472"),
    "str-non-ascii": ("h\u00e9llo \u2713", "530000000a68c3a96c6c6f20e29c93"),
    "list-empty": ([], "4c00000000"),
    "list": (
        [1, "a", b"b", None, True, 2.5],
        "4c000000064900000001315300000001614200000001624e54444004000000000000",
    ),
    "tuple-empty": ((), "4c00000000"),
    "tuple": (
        (1, "a", b"b", None, True, 2.5),
        "4c000000064900000001315300000001614200000001624e54444004000000000000",
    ),
    "dict-empty": ({}, "4d00000000"),
    "dict-one": ({"a": 1}, "4d00000001530000000161490000000131"),
    "dict-unsorted": (
        {"b": 2, "a": 1, "aa": 3, "": 4},
        "4d000000045300000000490000000134530000000161490000000131530000000162490000"
        "00013253000000026161490000000133",
    ),
    "dict-non-string-keys": (
        {
            7: "int",
            "7": "str",
            b"7": "bytes",
            (7, 8): "tuple",
            None: "none",
            2.5: "float",
            True: "bool",
            -7: "negative",
        },
        "4d00000008420000000137530000000562797465734440040000000000005300000005666c"
        "6f61744900000001375300000003696e7449000000022d3753000000086e656761746976654c"
        "0000000249000000013749000000013853000000057475706c654e53000000046e6f6e655300"
        "000001375300000003737472545300000004626f6f6c",
    ),
    "nested": (
        {"a": [1, 2, {"b": b"x", "c": {}, "d": [[], [{}]]}], "c": None},
        "4d000000025300000001614c000000034900000001314900000001324d0000000353000000"
        "01624200000001785300000001634d000000005300000001644c000000024c000000004c0000"
        "00014d000000005300000001634e",
    ),
    "dict-in-list-in-dict": (
        {"outer": [{"z": 1, "y": {"x": [1, {"w": 0}]}}, {}]},
        "4d0000000153000000056f757465724c000000024d000000025300000001794d0000000153"
        "00000001784c000000024900000001314d0000000153000000017749000000013053000000"
        "017a4900000001314d00000000",
    ),
    "int-subclass": (Hex(255), "490000000430786666"),
    "int-subclass-nested": (
        [Hex(255), {Hex(1): Hex(2)}],
        "4c000000024900000004307866664d0000000149000000033078314900000003307832",
    ),
    "namedtuple": (Point(1, "y"), "4c00000002490000000131530000000179"),
    "ordered-dict": (
        collections.OrderedDict([("b", 1), ("a", 2)]),
        "4d00000002530000000161490000000132530000000162490000000131",
    ),
    "str-subclass": (Label("label"), "53000000056c6162656c"),
    "subclasses-nested": (
        [Point(Hex(1), Label("x")), {Label("k"): Point(0, 0)}],
        "4c000000024c000000024900000003307831530000000178"
        "4d0000000153000000016b4c00000002490000000130490000000130",
    ),
}


class TestRecordedVectors:
    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_encoding_matches_recorded_bytes(self, name):
        value, expected = VECTORS[name]
        assert canonical_encode(value).hex() == expected

    def test_int_enum_is_encoded_through_str(self):
        """``str`` of an IntEnum member is the number from 3.11 on and
        ``Colour.BLUE`` before; the encoder follows ``str`` either way."""
        body = str(Colour.BLUE).encode("ascii")
        expected = b"I" + len(body).to_bytes(4, "big") + body
        assert canonical_encode(Colour.BLUE) == expected
        if sys.version_info >= (3, 11):
            assert expected.hex() == "4900000003333030"
            assert canonical_encode({Colour.RED: "red", Colour.BLUE: "blue"}).hex() == (
                "4d00000002490000000131530000000372656449000000033330305300000004626c7565"
            )

    def test_recorded_digests(self):
        empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert sha256().hex() == empty
        assert sha256("a", 1, b"b").hex() == (
            "a076394571c07f42a848c053881d59674e304be17cf3299a093c3273f4056f96"
        )
        assert sha256({"k": [1, None]}, (2.5,)).hex() == (
            "b23264ef4b24c376246211115582db347bacda30ba4a72c1209168ddf17991f4"
        )


class TestUnencodable:
    """``smart/proxy.py::_result_key`` falls back to ``repr`` on exactly
    this error, so which inputs raise it is part of the contract."""

    BAD = [set(), frozenset(), bytearray(b"x"), memoryview(b"x"), object(), 1j]

    @pytest.mark.parametrize("bad", BAD, ids=lambda bad: type(bad).__name__)
    def test_top_level_and_nested(self, bad):
        name = type(bad).__name__
        for value in (bad, [bad], (1, [bad]), {"k": bad}, {"k": [{"j": bad}]}):
            with pytest.raises(TypeError, match=f"cannot canonically encode {name}"):
                canonical_encode(value)
            with pytest.raises(TypeError, match=f"cannot canonically encode {name}"):
                sha256("tag", value)

    def test_unencodable_dict_key(self):
        with pytest.raises(TypeError, match="cannot canonically encode frozenset"):
            canonical_encode({frozenset(): 1})
        with pytest.raises(TypeError, match="cannot canonically encode object"):
            canonical_encode({"ok": 1, object(): 2})


class TestCanonicalEncode:
    def test_primitives_roundtrip_distinctly(self):
        values = [None, True, False, 0, 1, -1, 1.5, b"bytes", "str", [], {}]
        encodings = [canonical_encode(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_int_and_str_not_confused(self):
        assert canonical_encode(1) != canonical_encode("1")

    def test_bytes_and_str_not_confused(self):
        assert canonical_encode(b"a") != canonical_encode("a")

    def test_bool_and_int_not_confused(self):
        assert canonical_encode(True) != canonical_encode(1)

    def test_list_no_concatenation_ambiguity(self):
        assert canonical_encode(["ab", "c"]) != canonical_encode(["a", "bc"])

    def test_nested_structures(self):
        value = {"a": [1, 2, {"b": b"x"}], "c": None}
        assert canonical_encode(value) == canonical_encode(value)

    def test_dict_order_independent(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_tuple_equals_list(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_large_int(self):
        big = 2**300
        assert canonical_encode(big) != canonical_encode(big - 1)


class TestSha256:
    def test_digest_is_32_bytes(self):
        assert len(sha256("x")) == 32

    def test_deterministic(self):
        assert sha256("a", 1, b"b") == sha256("a", 1, b"b")

    def test_argument_boundaries_matter(self):
        assert sha256(b"ab", b"c") != sha256(b"a", b"bc")

    def test_no_concatenation_ambiguity(self):
        a, b = b"left", b"right"
        assert sha256(a, b) != sha256(a + b)
        assert sha256("left", "right") != sha256("leftright")

    def test_hex_variant(self):
        assert sha256_hex("x") == sha256("x").hex()

    def test_hash_iterable(self):
        assert hash_iterable([1, 2]) == sha256([1, 2])
        assert hash_iterable([1, 2]) != hash_iterable([2, 1])
