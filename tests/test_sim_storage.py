"""Tests for the simulated stable-storage device and record framing."""

import json
import random
import zlib

import pytest

from repro.sim.storage import (
    SECTOR_SIZE,
    ScanResult,
    SimDisk,
    StorageFaults,
    frame_payload,
    frame_record,
    scan_records,
)


def oracle_frame_record(record) -> bytes:
    """The framing ``sim/storage.py`` had before the shared encoder and
    the record templates, kept verbatim as the reference: every frame
    the WAL writes, however it is produced, must equal this byte for
    byte (tests/properties/test_props_wal.py, tests/test_derive_once.py)."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    payload = body.encode("utf-8")
    return f"{zlib.crc32(payload):08x} ".encode("ascii") + payload + b"\n"


class TestSimDisk:
    def test_append_is_volatile_until_sync(self):
        disk = SimDisk()
        disk.append(b"hello")
        assert disk.read() == b""
        assert disk.contents() == b"hello"
        assert disk.unsynced_size == 5
        disk.sync()
        assert disk.read() == b"hello"
        assert disk.durable_size == 5
        assert disk.unsynced_size == 0

    def test_sync_returns_latency_and_counts(self):
        disk = SimDisk(fsync_latency=0.002)
        disk.append(b"x")
        assert disk.sync() == 0.002
        assert disk.fsyncs == 1
        assert disk.bytes_appended == 1

    def test_sync_flushes_whole_cache_in_order(self):
        disk = SimDisk()
        disk.append(b"a")
        disk.append(b"b")
        disk.sync()
        disk.append(b"c")
        disk.sync()
        assert disk.read() == b"abc"

    def test_crash_loses_unsynced_suffix(self):
        disk = SimDisk()
        disk.append(b"durable")
        disk.sync()
        disk.append(b"volatile")
        disk.crash(StorageFaults(), random.Random(0))
        assert disk.read() == b"durable"
        assert disk.unsynced_size == 0
        assert disk.crashes == 1

    def test_crash_torn_tail_keeps_sector_aligned_prefix(self):
        disk = SimDisk()
        disk.append(b"d" * 100)
        disk.sync()
        disk.append(b"t" * (3 * SECTOR_SIZE))
        rng = random.Random(7)
        disk.crash(StorageFaults(torn_tail=True), rng)
        kept = disk.durable_size - 100
        assert kept % SECTOR_SIZE == 0
        assert 0 <= kept <= 3 * SECTOR_SIZE
        assert disk.read()[:100] == b"d" * 100

    def test_crash_bitrot_flips_one_bit(self):
        disk = SimDisk()
        disk.append(b"\x00" * 64)
        disk.sync()
        disk.crash(StorageFaults(lose_unsynced=False, bitrot=True), random.Random(3))
        image = disk.read()
        assert len(image) == 64
        flipped = [b for b in image if b != 0]
        assert len(flipped) == 1
        assert bin(flipped[0]).count("1") == 1

    def test_truncate_discards_tail(self):
        disk = SimDisk()
        disk.append(b"0123456789")
        disk.sync()
        disk.truncate(4)
        assert disk.read() == b"0123"

    def test_swap_replaces_the_durable_image_and_counts_nothing(self):
        disk = SimDisk()
        disk.append(b"0123456789")
        disk.sync()
        disk.swap(bytearray(b"abc"))
        assert disk.read() == b"abc"
        assert (disk.fsyncs, disk.bytes_appended) == (1, 10)
        disk.append(b"d")
        disk.sync()
        assert disk.read() == b"abcd"

    def test_swap_refuses_unsynced_bytes(self):
        disk = SimDisk()
        disk.append(b"unsynced")
        with pytest.raises(AssertionError):
            disk.swap(bytearray(b"abc"))
        assert disk.contents() == b"unsynced"

    def test_read_latency_scales_with_size(self):
        disk = SimDisk(fsync_latency=0.0, read_bandwidth=100.0)
        disk.append(b"x" * 200)
        disk.sync()
        assert disk.read_latency() == pytest.approx(2.0)


class TestFraming:
    def test_frame_roundtrip(self):
        framed = frame_record({"t": "reg", "reg": 3})
        scan = scan_records(framed)
        assert scan.error is None
        assert scan.records == [{"t": "reg", "reg": 3}]
        assert scan.valid_bytes == len(framed)

    def test_frame_is_canonical(self):
        assert frame_record({"b": 1, "a": 2}) == frame_record({"a": 2, "b": 1})

    @pytest.mark.parametrize(
        "record",
        [
            {"t": "reg", "reg": 3},
            {"b": [1, 2.5, None, True, -0.0], "a": {"z": "caf\u00e9 \"q\" \\ \n \u2028", "y": []}},
            {"cid": -(2**70), "h": "", "reg": 2**70, "t": "write"},
            [],
            "\ud800",  # a lone surrogate is escaped, never encoded
        ],
    )
    def test_frame_record_matches_the_json_dumps_oracle(self, record):
        assert frame_record(record) == oracle_frame_record(record)

    def test_frame_payload_is_the_framing_half(self):
        record = {"t": "accept", "cid": 7, "reg": 0, "h": "ab"}
        payload = b'{"cid":7,"h":"ab","reg":0,"t":"accept"}'
        assert frame_payload(payload) == oracle_frame_record(record)
        assert frame_payload(b"") == b"00000000 \n"
        # the CRC field is always eight digits
        assert all(
            len(frame_payload(bytes([byte])).split(b" ")[0]) == 8 for byte in range(256)
        )

    def test_frame_record_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            frame_record({"op": b"bytes"})
        with pytest.raises(TypeError):
            frame_record({"op": object()})

    def test_scan_empty(self):
        assert scan_records(b"") == ScanResult(records=[], valid_bytes=0)

    def test_unterminated_tail_is_torn(self):
        good = frame_record({"n": 1})
        scan = scan_records(good + b"deadbeef {\"n\":")
        assert scan.error == "torn"
        assert scan.records == [{"n": 1}]
        assert scan.valid_bytes == len(good)

    def test_crc_mismatch_at_end_is_torn(self):
        good = frame_record({"n": 1})
        bad = bytearray(frame_record({"n": 2}))
        bad[12] ^= 0xFF  # corrupt the payload, keep the line framing
        scan = scan_records(good + bytes(bad))
        assert scan.error == "torn"
        assert scan.records == [{"n": 1}]
        assert scan.valid_bytes == len(good)

    def test_bad_record_before_valid_one_is_corrupt(self):
        first = frame_record({"n": 1})
        middle = bytearray(frame_record({"n": 2}))
        middle[12] ^= 0xFF
        last = frame_record({"n": 3})
        scan = scan_records(first + bytes(middle) + last)
        assert scan.error == "corrupt"
        assert scan.records == [{"n": 1}]
        assert scan.valid_bytes == len(first)

    def test_short_line_is_damage(self):
        scan = scan_records(frame_record({"n": 1}) + b"x\n")
        assert scan.error == "torn"

    def test_torn_write_of_framed_stream_recovers_prefix(self):
        records = [{"t": "batch", "cid": i} for i in range(20)]
        stream = b"".join(frame_record(r) for r in records)
        cut = len(stream) - 17  # mid-record
        scan = scan_records(stream[:cut])
        assert scan.error == "torn"
        assert scan.records == records[: len(scan.records)]
        # truncating at valid_bytes then rescanning is clean
        rescan = scan_records(stream[: scan.valid_bytes])
        assert rescan.error is None
        assert rescan.records == scan.records
