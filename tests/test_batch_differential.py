"""Differential test: the batch that seals from the cache log against the
batch that kept its own copy of every write.

The reference is the earlier ``WriteBatch`` verbatim in behaviour: each
write is copied into a private buffer and mapped vLBA -> buffer offset in
an :class:`ExtentMap`, a rewrite landing in another class batch
``discard``\\ s the stale copy there, and the seal gathers the map's
extents out of the buffer.  A reference store mirrors the block store's
lockstep group seal and record-seq cap, cuts only between records, and
applies a trim as ``discard`` on every open batch.  Hypothesis drives the same
write/writev/trim/drain sequences — sub-block partial overlaps and
rewrites across classes included — through a real volume and the
reference under both placements, and every sealed batch must agree
exactly: payload bytes, extents, record mark, bytes in/out and reason.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LSVDConfig, LSVDVolume
from repro.core.batch import SealedBatch
from repro.core.extent_map import ExtentMap
from repro.core.log import KIND_DATA, ObjectExtent, ObjectHeader, encode_object
from repro.core.placement import make_policy
from repro.core.sgio import gather
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

KiB = 1 << 10
SECTOR = 512
SPAN_SECTORS = 192  # a 96 KiB hot span: overwrites are the common case


class ReferenceBatch:
    """Accumulates private copies of writes, coalescing overlaps, until sealed."""

    def __init__(self, batch_size: int, temp: int):
        self.batch_size = batch_size
        self.temp = temp
        self._map = ExtentMap()  # vLBA -> offset into self._buffer
        self._buffer = bytearray()
        self.bytes_in = 0
        self.last_record_seq = 0
        self.first_record_seq = 0

    def add(self, lba: int, data: bytes, record_seq: int) -> None:
        offset = len(self._buffer)
        self._buffer.extend(data)
        self._map.update(lba, len(data), "buf", offset)
        self.bytes_in += len(data)
        if not self.first_record_seq:
            self.first_record_seq = record_seq
        self.last_record_seq = record_seq

    def discard(self, lba: int, length: int) -> None:
        self._map.remove(lba, length)

    @property
    def is_empty(self) -> bool:
        return not self._buffer

    def should_seal(self) -> bool:
        return len(self._buffer) >= self.batch_size

    def seal(self, seq: int, uuid: bytes, reason: str) -> SealedBatch:
        extents: List[ObjectExtent] = []
        ranges: List[Tuple[int, int]] = []
        for ext in self._map:
            extents.append(ObjectExtent(lba=ext.lba, length=ext.length, src_seq=0))
            ranges.append((ext.offset, ext.length))
        data = gather(self._buffer, ranges)
        header = ObjectHeader(
            kind=KIND_DATA,
            uuid=uuid,
            seq=seq,
            last_record_seq=self.last_record_seq,
            extents=extents,
            data_len=len(data),
            temp=self.temp,
        )
        sealed = SealedBatch(
            seq=seq,
            payload=encode_object(header, data),
            extents=extents,
            data_len=len(data),
            last_record_seq=self.last_record_seq,
            bytes_in=self.bytes_in,
            bytes_out=len(data),
            reason=reason,
            temp=self.temp,
        )
        self._map.clear()
        self._buffer = bytearray()
        self.bytes_in = 0
        self.last_record_seq = 0
        self.first_record_seq = 0
        return sealed


class ReferenceStore:
    """The block store's batching over reference batches: one open batch
    per class, lockstep group seals cut between records, oldest record
    first, each object's record mark capped below the other open batches."""

    def __init__(self, config: LSVDConfig, uuid: bytes, next_seq: int):
        self.config = config
        self.uuid = uuid
        self.next_seq = next_seq
        self.record_seq = 0
        self.placement = make_policy(config)
        self.batches: Dict[int, ReferenceBatch] = {}

    def add_record(self, writes: List[Tuple[int, bytes]]) -> List[SealedBatch]:
        self.record_seq += 1
        full = False
        for lba, data in writes:
            temp = self.placement.on_write(lba, len(data))
            for other_temp, other in self.batches.items():
                if other_temp != temp and not other.is_empty:
                    other.discard(lba, len(data))
            batch = self.batches.setdefault(
                temp, ReferenceBatch(self.config.batch_size, temp)
            )
            batch.add(lba, data, self.record_seq)
            full = full or batch.should_seal()
        if not full:
            return []
        out = []
        while (batch := self._oldest_open_batch()) is not None:
            reason = "size" if batch.should_seal() else "group"
            out.append(self._seal(batch, reason))
        return out

    def trim(self, lba: int, length: int) -> None:
        for batch in self.batches.values():
            batch.discard(lba, length)

    def seal_all(self, reason: str) -> List[SealedBatch]:
        out = []
        while (batch := self._oldest_open_batch()) is not None:
            out.append(self._seal(batch, reason))
        return out

    def _oldest_open_batch(self) -> Optional[ReferenceBatch]:
        open_batches = [b for b in self.batches.values() if not b.is_empty]
        if not open_batches:
            return None
        return min(open_batches, key=lambda b: (b.first_record_seq, b.temp))

    def _seal(self, batch: ReferenceBatch, reason: str) -> SealedBatch:
        for other in self.batches.values():
            if other is not batch and not other.is_empty:
                batch.last_record_seq = min(
                    batch.last_record_seq, other.first_record_seq - 1
                )
        self.next_seq += 1
        return batch.seal(self.next_seq - 1, self.uuid, reason)


def payload(index: int, length: int) -> bytes:
    return random.Random(index).randbytes(length)


extent = st.tuples(
    st.integers(min_value=0, max_value=SPAN_SECTORS - 1),  # sector
    st.integers(min_value=1, max_value=12),  # sectors: sub-block and multi-block
)
op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.lists(extent, min_size=1, max_size=1)),
        st.tuples(st.just("writev"), st.lists(extent, min_size=2, max_size=4)),
        st.tuples(st.just("trim"), st.lists(extent, min_size=1, max_size=1)),
        st.tuples(st.just("drain"), st.just([])),
    ),
    min_size=1,
    max_size=80,
)


def clip(sector: int, sectors: int) -> Tuple[int, int]:
    """(byte offset, length) of an extent, kept inside the span."""
    return sector * SECTOR, min(sectors, SPAN_SECTORS - sector) * SECTOR


def run_both(ops, placement: str):
    config = LSVDConfig(
        batch_size=16 * KiB, checkpoint_interval=1 << 30, placement=placement
    )
    vol = LSVDVolume.create(
        InMemoryObjectStore(), "vd", SPAN_SECTORS * SECTOR, DiskImage(8 << 20), config
    )
    vol.gc_enabled = False  # object seqs stay the data stream's own
    real: List[SealedBatch] = []
    commit = vol._commit_data

    def capture(sealed, span=None):
        real.append(sealed)
        commit(sealed)

    vol._commit_data = capture
    ref = ReferenceStore(config, vol.bs.uuid, vol.bs.next_seq)
    expected: List[SealedBatch] = []
    for index, (kind, extents) in enumerate(ops):
        placed = [clip(sector, sectors) for sector, sectors in extents]
        if kind == "trim":
            vol.trim(*placed[0])
            ref.trim(*placed[0])
        elif kind == "drain":
            vol.drain()
            expected += ref.seal_all("drain")
        else:
            writes = [(off, payload(index * 8 + i, n)) for i, (off, n) in enumerate(placed)]
            if kind == "write":
                vol.write(*writes[0])
            else:
                vol.writev(writes)
            expected += ref.add_record(writes)
    vol.drain()
    expected += ref.seal_all("drain")
    return real, expected


def fields(sealed: SealedBatch):
    return (
        sealed.seq,
        bytes(sealed.payload),
        sealed.extents,
        sealed.last_record_seq,
        sealed.bytes_in,
        sealed.bytes_out,
        sealed.reason,
    )


@pytest.mark.parametrize("placement", ["legacy", "sepbit"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=op_strategy)
def test_sealed_batches_match_the_copying_batch(placement, ops):
    real, expected = run_both(ops, placement)
    assert [fields(s) for s in real] == [fields(s) for s in expected]


def test_fixed_run_exercises_cross_class_rewrites_and_group_seals():
    """Fixture guard: a fixed hot-span run under SepBIT seals objects of
    several classes, group riders and forced drains, and coalesces."""
    rng = random.Random(5)
    ops = []
    for i in range(300):
        sector = rng.randrange(0, SPAN_SECTORS // 8) * 8
        ops.append(("write", [(sector, rng.choice((1, 3, 8, 12)))]))
        if rng.random() < 0.1:
            ops.append(("trim", [(rng.randrange(SPAN_SECTORS), 4)]))
        if i % 100 == 50:
            ops.append(("drain", []))
    ops.append(("writev", [(0, 8), (64, 5), (130, 12)]))
    real, expected = run_both(ops, "sepbit")
    assert [fields(s) for s in real] == [fields(s) for s in expected]
    assert {s.temp for s in real} >= {0, 1}
    assert {s.reason for s in real} >= {"size", "group", "drain"}
    assert sum(s.merged_bytes for s in real) > 0
