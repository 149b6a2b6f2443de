"""Tests for cache-record and backend-object wire formats."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    decode_sections,
    encode_sections,
    pack_json,
    pack_rows,
    unpack_json,
    unpack_rows,
)
from repro.core.errors import CorruptRecordError
from repro.core.log import (
    KIND_DATA,
    KIND_GC,
    ObjectExtent,
    ObjectHeader,
    align_up,
    decode_object,
    decode_object_header,
    decode_record,
    encode_object,
    encode_record,
    object_name,
    pack_record,
    parse_object_name,
)

UUID = bytes(range(16))


def test_align_up():
    assert align_up(0) == 0
    assert align_up(1) == 4096
    assert align_up(4096) == 4096
    assert align_up(4097) == 8192
    assert align_up(5, 4) == 8


# -- cache records -----------------------------------------------------------


def test_record_roundtrip_single_write():
    rec = pack_record(7, [(4096, b"A" * 512)])
    buf = encode_record(rec)
    assert len(buf) % 4096 == 0
    out = decode_record(buf)
    assert out is not None
    assert out.seq == 7
    assert out.extents == [(4096, 512)]
    assert out.data[:512] == b"A" * 512


def test_record_roundtrip_multi_write():
    writes = [(0, b"a" * 4096), (8192, b"b" * 512), (100 * 4096, b"c" * 12288)]
    rec = pack_record(3, writes)
    out = decode_record(encode_record(rec))
    assert out.extents == [(0, 4096), (8192, 512), (409600, 12288)]
    for i, (lba, data) in enumerate(writes):
        off = out.data_offset_of(i)
        assert out.data[off : off + len(data)] == data


def test_record_small_write_expands_to_two_blocks():
    # paper §3.1: 4 KiB alignment can expand small writes by up to 100 %
    rec = pack_record(1, [(0, b"x" * 4096)])
    assert len(encode_record(rec)) == 8192  # 4K header + 4K data


def test_record_decode_rejects_bad_magic():
    buf = bytearray(encode_record(pack_record(1, [(0, b"x" * 512)])))
    buf[0] = ord("X")
    assert decode_record(bytes(buf)) is None


def test_record_decode_rejects_corrupt_data():
    buf = bytearray(encode_record(pack_record(1, [(0, b"x" * 512)])))
    buf[-1] ^= 0xFF
    assert decode_record(bytes(buf)) is None


def test_record_decode_rejects_truncation():
    buf = encode_record(pack_record(1, [(0, b"x" * 8192)]))
    assert decode_record(buf[: len(buf) - 4096]) is None


def test_record_decode_rejects_zeros():
    assert decode_record(b"\x00" * 8192) is None


def test_record_decode_at_offset():
    a = encode_record(pack_record(1, [(0, b"a" * 512)]))
    b = encode_record(pack_record(2, [(4096, b"b" * 512)]))
    buf = a + b
    out = decode_record(buf, offset=len(a))
    assert out.seq == 2


@settings(max_examples=50, deadline=None)
@given(
    seq=st.integers(min_value=0, max_value=2**63 - 1),
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=1, max_value=3 * 4096),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_record_roundtrip_property(seq, writes):
    payload = [(lba, os.urandom(n)) for lba, n in writes]
    rec = pack_record(seq, payload)
    out = decode_record(encode_record(rec))
    assert out is not None and out.seq == seq
    for i, (lba, data) in enumerate(payload):
        assert out.extents[i] == (lba, len(data))
        off = out.data_offset_of(i)
        assert out.data[off : off + len(data)] == data


# -- backend objects ---------------------------------------------------------


def make_object(kind=KIND_DATA, seq=5, extents=None, data=b""):
    header = ObjectHeader(
        kind=kind, uuid=UUID, seq=seq, last_record_seq=42, extents=extents or []
    )
    header.data_len = len(data)
    return encode_object(header, data)


def test_object_roundtrip():
    data = b"0123456789" * 100
    exts = [ObjectExtent(0, 500, 0), ObjectExtent(10_000, 500, 0)]
    buf = make_object(extents=exts, data=data)
    header, out = decode_object(buf)
    assert header.kind == KIND_DATA
    assert header.seq == 5
    assert header.last_record_seq == 42
    assert header.uuid == UUID
    assert [(e.lba, e.length) for e in header.extents] == [(0, 500), (10_000, 500)]
    assert out == data


def test_object_header_only_parse():
    buf = make_object(extents=[ObjectExtent(4096, 4096, 0)], data=b"z" * 4096)
    header = decode_object_header(buf[:128])
    assert header.seq == 5
    assert header.data_len == 4096


def test_object_gc_extents_carry_source():
    buf = make_object(kind=KIND_GC, extents=[ObjectExtent(0, 100, src_seq=3)], data=b"x" * 100)
    header, _ = decode_object(buf)
    assert header.kind == KIND_GC
    assert header.extents[0].src_seq == 3


@pytest.mark.parametrize("temp", [0, 2])
@pytest.mark.parametrize("group_open", [False, True])
def test_object_class_and_group_flag_share_the_kind_field(temp, group_open):
    header = ObjectHeader(kind=KIND_GC, uuid=UUID, seq=5, last_record_seq=42,
                          temp=temp, group_open=group_open)
    got, _ = decode_object(encode_object(header, b"x" * 10))
    assert (got.kind, got.temp, got.group_open) == (KIND_GC, temp, group_open)


def test_object_crc_detects_flip():
    buf = bytearray(make_object(data=b"hello000"))
    buf[-2] ^= 1
    with pytest.raises(CorruptRecordError):
        decode_object(bytes(buf))


def test_object_rejects_bad_magic():
    buf = bytearray(make_object(data=b"hello000"))
    buf[0] = 0
    with pytest.raises(CorruptRecordError):
        decode_object_header(bytes(buf))


def test_object_rejects_truncated_data():
    buf = make_object(data=b"hello000")
    with pytest.raises(CorruptRecordError):
        decode_object(buf[:-4])


def test_object_data_offset_of():
    exts = [ObjectExtent(0, 100, 0), ObjectExtent(500, 200, 0)]
    header = ObjectHeader(kind=KIND_DATA, uuid=UUID, seq=1, last_record_seq=0, extents=exts)
    assert header.data_offset_of(1) - header.data_offset_of(0) == 100


def test_object_name_roundtrip():
    assert object_name("vol", 12) == "vol.00000012"
    assert parse_object_name("vol.00000012") == ("vol", 12)
    assert parse_object_name("my.vol.00000003") == ("my.vol", 3)
    with pytest.raises(ValueError):
        parse_object_name("vol.super")


# -- checkpoint codec --------------------------------------------------------


def test_sections_roundtrip():
    sections = {"a": b"hello", "b": b"", "json": pack_json({"x": 1})}
    out = decode_sections(encode_sections(sections))
    assert out["a"] == b"hello"
    assert out["b"] == b""
    assert unpack_json(out["json"]) == {"x": 1}


def test_sections_crc_detects_corruption():
    blob = bytearray(encode_sections({"a": b"hello"}))
    blob[-1] ^= 0xFF
    with pytest.raises(CorruptRecordError):
        decode_sections(bytes(blob))


def test_sections_reject_truncation():
    blob = encode_sections({"a": b"hello world"})
    with pytest.raises(CorruptRecordError):
        decode_sections(blob[:-3])


def test_sections_reject_garbage():
    with pytest.raises(CorruptRecordError):
        decode_sections(b"\x00" * 64)


def test_rows_roundtrip():
    rows = [(1, 2, 3), (4, 5, 6)]
    assert unpack_rows("<QQQ", pack_rows("<QQQ", rows)) == rows


def test_rows_reject_partial():
    blob = pack_rows("<QQ", [(1, 2)])
    with pytest.raises(CorruptRecordError):
        unpack_rows("<QQ", blob[:-1])
