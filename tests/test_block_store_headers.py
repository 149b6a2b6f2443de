"""Block-store internals: naming, headers, superblock details."""

import pytest

from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.log import KIND_CHECKPOINT, KIND_DATA
from repro.objstore import InMemoryObjectStore
from tests.cache_log import log_write

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=1000)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_store(**kw):
    store = InMemoryObjectStore()
    bs = BlockStore.create(store, "vol", 64 * MiB, small_config(**kw))
    return store, bs


def fill_one_object(bs, tag=1):
    for i in range(16):
        sealed = log_write(bs, i * 4096, bytes([tag]) * 4096)
        if sealed:
            for batch in sealed:
                bs.commit(batch)
            return sealed[-1]
    sealed = next(bs.seal_all(), None)
    bs.commit(sealed)
    return sealed


def test_headers_cached_after_first_fetch():
    store, bs = make_store()
    sealed = fill_one_object(bs)
    bs._header_cache.clear()
    range_gets = store.stats.range_gets
    bs.header_of(sealed.seq)
    assert store.stats.range_gets == range_gets + 1
    bs.header_of(sealed.seq)  # cached
    assert store.stats.range_gets == range_gets + 1


def test_object_header_fields_roundtrip():
    store, bs = make_store()
    sealed = fill_one_object(bs)
    header = bs.header_of(sealed.seq)
    assert header.kind == KIND_DATA
    assert header.seq == sealed.seq
    assert header.uuid == bs.uuid
    assert header.last_record_seq == 16
    assert header.data_len == 64 * 1024


def test_name_for_seq_without_base():
    _store, bs = make_store()
    assert bs.name_for_seq(7) == "vol.00000007"
    assert bs.first_own_seq == 1


def test_name_for_seq_with_chain():
    store, bs = make_store()
    fill_one_object(bs)
    clone = BlockStore.clone_from(store, "vol", "c1", small_config())
    base_last = clone.base_chain[-1][1]
    assert clone.name_for_seq(1) == "vol.00000001"
    assert clone.name_for_seq(base_last + 1).startswith("c1.")
    assert clone.first_own_seq == base_last + 1


def test_superblock_content():
    store, bs = make_store()
    meta = BlockStore.read_super(store, "vol")
    assert meta["size"] == 64 * MiB
    assert bytes.fromhex(meta["uuid"]) == bs.uuid
    assert meta["base_chain"] == []
    assert meta["snapshots"] == {}
    assert meta["last_ckpt_seq"] == 1


def test_checkpoint_objects_carry_kind():
    store, bs = make_store()
    fill_one_object(bs)
    seq, _ = bs.write_checkpoint()
    assert bs.header_of(seq).kind == KIND_CHECKPOINT


def test_occupancy_excludes_checkpoints_and_base():
    store, bs = make_store()
    sealed = fill_one_object(bs)
    bs.write_checkpoint()
    live, total = bs.occupancy()
    assert total == sealed.data_len  # checkpoint payload not counted
    assert live == sealed.data_len


def test_seal_empty_batch_returns_none():
    _store, bs = make_store()
    assert next(bs.seal_all(), None) is None


def test_commit_tracks_merged_bytes():
    _store, bs = make_store()
    # two overwrites of the same 32K within one batch
    log_write(bs, 0, b"a" * 32768)
    for sealed in log_write(bs, 0, b"b" * 32768):
        bs.commit(sealed)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    assert bs.stats.merged_bytes == 32768
    assert bs.stats.merge_ratio == pytest.approx(0.5)
