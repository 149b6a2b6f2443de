"""Focused tests for the core garbage collector's edge cases."""


from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.gc import GarbageCollector
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


def write_and_commit(bs, lba, data):
    for sealed in log_write(bs, lba, data):
        bs.commit(sealed)


def flush(bs):
    for sealed in bs.seal_all():
        bs.commit(sealed)


def test_gc_noop_on_empty_store():
    _store, bs = make_store()
    gc = GarbageCollector(bs)
    assert not gc.needs_gc()
    assert gc.plan() is None


def test_gc_noop_when_everything_live():
    _store, bs = make_store()
    for i in range(64):
        write_and_commit(bs, i * 4096, bytes([i + 1]) * 4096)
    flush(bs)
    gc = GarbageCollector(bs)
    assert not gc.needs_gc()


def test_gc_skips_victims_above_high_watermark():
    """Objects >= the stop watermark are never picked: cleaning them
    cannot raise utilisation."""
    _store, bs = make_store()
    for i in range(16):
        write_and_commit(bs, i * 4096, b"a" * 4096)
    flush(bs)
    # overwrite a single block: the old object drops to 15/16 = 0.9375
    write_and_commit(bs, 0, b"b" * 4096)
    flush(bs)
    gc = GarbageCollector(bs)
    plan_victims = [
        c.seq for c in bs.omap.cleaning_candidates(max_seq=bs.next_seq)
    ]
    assert plan_victims  # candidates exist...
    assert gc.plan() is None  # ...but none below the cutoff


def test_gc_fully_dead_object_deleted_without_copies():
    store, bs = make_store()
    for i in range(16):
        write_and_commit(bs, i * 4096, b"v1" * 2048)
    flush(bs)
    for i in range(16):
        write_and_commit(bs, i * 4096, b"v2" * 2048)
    flush(bs)
    # write unrelated live data so utilisation math has a denominator
    # (128K dead + 256K live of 512K total = 0.67 < the 0.70 trigger)
    for i in range(64, 80):
        write_and_commit(bs, i * 4096, b"v3" * 2048)
    flush(bs)
    gc = GarbageCollector(bs)
    assert gc.needs_gc()
    plan = gc.plan()
    assert plan is not None
    dead = [v for v in plan.victims if bs.omap.objects[v].live_bytes == 0]
    assert dead
    gc.execute(plan)
    bs.write_checkpoint()
    deleted, deferred = gc.delete_victims(plan.victims)
    assert set(dead) <= set(deleted)
    assert not deferred
    assert gc.stats.bytes_relocated == plan.live_bytes


def test_gc_hole_plugging_merges_extents():
    # one stream, 16-page objects: A = pages 0-11, 40, 43, 60, 61
    store, bs = make_store(
        defrag_hole_bytes=8192, placement="legacy", gc_policy="greedy"
    )
    for page in [*range(12), 40, 43, 60, 61]:
        write_and_commit(bs, page * 4096, bytes([1]) * 4096)
    # B overwrites A's odd pages and maps page 41 — half of the two-page
    # gap between A's pages 40 and 43 (page 42 stays unmapped)
    for page in [1, 3, 5, 7, 9, 11, 41, *range(100, 109)]:
        write_and_commit(bs, page * 4096, bytes([2]) * 4096)
    assert len(bs.omap.objects) == 2  # A and B
    extents_before = len(bs.omap.map)
    gc = GarbageCollector(bs, bs.config)
    plan = gc.plan()
    assert len(plan.victims) == 1  # A, at 10/16 live
    # the five one-page gaps between A's even pages are fully mapped (by
    # B) and are copied along; the half-mapped gap 41-42 is left alone
    assert plan.holes_plugged == 5 * 4096
    assert plan.live_bytes == (10 + 5) * 4096
    assert not any(lba // 4096 in (41, 42) for lba, _n, _s, _d in plan.pieces)
    gc.execute(plan)
    bs.write_checkpoint()
    gc.delete_victims(plan.victims)
    assert gc.stats.holes_plugged == 5 * 4096
    # pages 0-10 are now one extent instead of eleven
    assert extents_before == 17
    assert len(bs.omap.map) == 7
    # data still correct
    from tests.test_block_store import read_all

    assert read_all(bs, 0, 4096) == bytes([1]) * 4096
    assert read_all(bs, 1 * 4096, 4096) == bytes([2]) * 4096
    assert read_all(bs, 41 * 4096, 2 * 4096) == bytes([2]) * 4096 + bytes(4096)


def test_gc_stats_accumulate_over_rounds():
    store, bs = make_store()
    gc = GarbageCollector(bs)
    rounds_run = 0
    for round_ in range(5):
        for i in range(64):
            write_and_commit(bs, i * 4096, bytes([round_ + 1]) * 4096)
        flush(bs)
        while gc.needs_gc():
            plan = gc.plan()
            if plan is None:
                break
            gc.execute(plan)
            bs.write_checkpoint()
            gc.delete_victims(plan.victims)
            rounds_run += 1
    assert gc.stats.rounds == rounds_run
    assert gc.stats.victims_cleaned >= rounds_run
