"""Tests for the in-memory and unsettled object stores."""

import pytest

from repro.objstore import InMemoryObjectStore, NoSuchKeyError, UnsettledObjectStore


def test_put_get_roundtrip():
    s = InMemoryObjectStore()
    s.put("a", b"data")
    assert s.get("a") == b"data"
    assert s.exists("a")
    assert s.size("a") == 4


def test_get_missing_raises():
    s = InMemoryObjectStore()
    with pytest.raises(NoSuchKeyError):
        s.get("nope")
    with pytest.raises(NoSuchKeyError):
        s.get_range("nope", 0, 1)
    with pytest.raises(NoSuchKeyError):
        s.delete("nope")
    with pytest.raises(NoSuchKeyError):
        s.size("nope")


def test_get_range():
    s = InMemoryObjectStore()
    s.put("a", b"0123456789")
    assert s.get_range("a", 2, 3) == b"234"
    assert s.get_range("a", 8, 100) == b"89"  # clipped like HTTP ranges
    with pytest.raises(ValueError):
        s.get_range("a", -1, 2)


def test_list_prefix_sorted():
    s = InMemoryObjectStore()
    for name in ("v.00000002", "v.00000001", "w.00000001", "v.super"):
        s.put(name, b"")
    assert s.list("v.") == ["v.00000001", "v.00000002", "v.super"]
    assert s.list() == ["v.00000001", "v.00000002", "v.super", "w.00000001"]


def test_delete_removes():
    s = InMemoryObjectStore()
    s.put("a", b"x")
    s.delete("a")
    assert not s.exists("a")


def test_put_overwrites():
    s = InMemoryObjectStore()
    s.put("a", b"one")
    s.put("a", b"two")
    assert s.get("a") == b"two"


def test_stats_counters():
    s = InMemoryObjectStore()
    s.put("a", b"xyz")
    s.get("a")
    s.get_range("a", 0, 1)
    s.list()
    assert s.stats.puts == 1
    assert s.stats.gets == 1
    assert s.stats.range_gets == 1
    assert s.stats.lists == 1
    assert s.stats.bytes_put == 3
    assert s.stats.bytes_got == 4


def test_total_bytes():
    s = InMemoryObjectStore()
    s.put("v.1", b"abc")
    s.put("v.2", b"de")
    s.put("w.1", b"zzzzz")
    assert s.total_bytes("v.") == 5
    assert s.total_bytes() == 10


# -- unsettled wrapper --------------------------------------------------------


def test_unsettled_put_invisible_until_settled():
    inner = InMemoryObjectStore()
    s = UnsettledObjectStore(inner)
    h = s.put("a", b"data")
    assert not s.exists("a")
    assert s.in_flight == 1
    s.settle(h)
    assert s.get("a") == b"data"
    assert s.in_flight == 0


def test_unsettled_out_of_order_settlement():
    s = UnsettledObjectStore(InMemoryObjectStore())
    h1 = s.put("v.00000001", b"1")
    h2 = s.put("v.00000002", b"2")
    s.settle(h2)  # object 2 lands while 1 is still in flight
    assert s.list("v.") == ["v.00000002"]
    s.settle(h1)
    assert s.list("v.") == ["v.00000001", "v.00000002"]


def test_unsettled_crash_drops_in_flight():
    s = UnsettledObjectStore(InMemoryObjectStore())
    h1 = s.put("a", b"1")
    s.put("b", b"2")
    s.settle(h1)
    lost = s.crash()
    assert lost == ["b"]
    assert s.exists("a")
    assert not s.exists("b")
    assert s.in_flight == 0


def test_unsettled_settle_all():
    s = UnsettledObjectStore(InMemoryObjectStore())
    s.put("a", b"1")
    s.put("b", b"2")
    s.settle_all()
    assert s.exists("a") and s.exists("b")
