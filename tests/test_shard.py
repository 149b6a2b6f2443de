"""repro.shard: routing, scatter-gather, and sharded crash recovery."""

import json

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.naming import object_name, stream_seqs
from repro.core.replication import Replicator
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore
from repro.shard import (
    MANIFEST_NAME,
    ShardedObjectStore,
    ShardRouter,
    open_directory_store,
    sharded_directory_store,
)

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=8)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def sharded_pair(n_shards):
    """A sharded facade over unsettled shards, plus the settled view.

    ``store`` is what the volume writes through; ``settled`` sees only
    the PUTs that completed — the store a recovering client would mount.
    """
    inners = [InMemoryObjectStore() for _ in range(n_shards)]
    store = ShardedObjectStore(
        [UnsettledObjectStore(inner) for inner in inners],
        ShardRouter(n_shards),
    )
    settled = ShardedObjectStore(list(inners), ShardRouter(n_shards))
    return inners, store, settled


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------


def test_round_robin_covers_all_shards_evenly():
    router = ShardRouter(4)
    placements = [router.shard_of_seq(seq) for seq in range(1, 401)]
    assert placements[:8] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert all(placements.count(i) == 100 for i in range(4))


def test_hash_layout_is_deterministic_and_in_range():
    a = ShardRouter(8, "hash")
    b = ShardRouter(8, "hash")
    for seq in range(1, 500):
        assert a.shard_of_seq(seq) == b.shard_of_seq(seq)
        assert 0 <= a.shard_of_seq(seq) < 8
    # reasonably uniform: every shard owns some of 500 sequences
    counts = [0] * 8
    for seq in range(1, 501):
        counts[a.shard_of_seq(seq)] += 1
    assert min(counts) > 20


def test_stream_and_non_stream_names_route_consistently():
    router = ShardRouter(3)
    assert router.shard_of_name(object_name("vol", 5)) == router.shard_of_seq(5)
    # the mutable superblock has exactly one stable home
    assert router.shard_of_name("vol.super") == router.shard_of_name("vol.super")


def test_router_manifest_round_trip():
    router = ShardRouter(5, "hash")
    clone = ShardRouter.from_manifest(
        json.loads(json.dumps(router.describe()))
    )
    assert clone.n_shards == 5
    assert clone.layout.name == "hash"


def test_router_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ShardRouter(0)
    with pytest.raises(ValueError):
        ShardRouter(2, "striped-mirror")


# ---------------------------------------------------------------------------
# sharded object store
# ---------------------------------------------------------------------------


def test_put_get_delete_land_on_owning_shard():
    shards = [InMemoryObjectStore() for _ in range(3)]
    store = ShardedObjectStore(shards)
    for seq in range(1, 10):
        store.put(object_name("v", seq), bytes([seq]))
    for seq in range(1, 10):
        owner = store.router.shard_of_seq(seq)
        name = object_name("v", seq)
        assert shards[owner].exists(name)
        assert all(
            not shards[i].exists(name) for i in range(3) if i != owner
        )
        assert store.get(name) == bytes([seq])
    store.delete(object_name("v", 4))
    assert not store.exists(object_name("v", 4))


def test_list_scatter_gathers_the_global_stream():
    shards = [InMemoryObjectStore() for _ in range(4)]
    store = ShardedObjectStore(shards)
    for seq in range(1, 33):
        store.put(object_name("v", seq), b"x")
    store.put("other.00000001", b"y")
    names = store.list("v.")
    assert stream_seqs(names, "v") == list(range(1, 33))
    # sorted union, exactly once each
    assert names == sorted(set(names))


def test_merged_stats_and_per_shard_metrics():
    shards = [InMemoryObjectStore() for _ in range(2)]
    store = ShardedObjectStore(shards)
    for seq in range(1, 5):
        store.put(object_name("v", seq), b"abcd")
    store.get(object_name("v", 1))
    merged = store.stats
    assert merged.puts == 4
    assert merged.bytes_put == 16
    assert merged.gets == 1
    assert sum(s.puts for s in store.shard_stats()) == 4
    assert store.obs.value("shard.puts") == 4
    assert store.obs.value("shard.0.puts") == 2
    assert store.obs.value("shard.1.puts") == 2
    assert store.obs.value("shard.put_imbalance") == 1.0


def test_sharded_store_rejects_router_mismatch():
    with pytest.raises(ValueError):
        ShardedObjectStore([InMemoryObjectStore()] * 2, ShardRouter(3))


# ---------------------------------------------------------------------------
# recovery across shards
# ---------------------------------------------------------------------------


def test_hole_on_one_shard_strands_later_objects_on_all_shards():
    """Losing one shard's PUT cuts the *global* prefix: later objects on
    every other shard are stranded and deleted by recovery."""
    n_shards = 4
    inners, store, settled = sharded_pair(n_shards)
    cfg = small_config(checkpoint_interval=1000)
    image = DiskImage(8 * MiB)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, image, cfg)
    store.settle_all()
    for i in range(80):  # five 64K batches
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.flush()
    handles = store.pending_handles()
    assert len(handles) == 5
    # the five batch PUTs (seqs 2-6 after the create checkpoint) went to
    # every shard of the round-robin ring
    assert len({shard for shard, _h in handles}) == n_shards
    # settle all but the third batch (seq 4): a hole on exactly one shard
    hole_shard = store.router.shard_of_seq(4)
    hole_name = object_name("vd", 4)
    lost = next(
        (hole_shard, h)
        for h, put in store.shards[hole_shard]._pending.items()
        if put.name == hole_name
    )
    for handle in handles:
        if handle == lost:
            continue
        store.settle(handle)
        vol.settle_put(handle)
    before = stream_seqs(settled.list("vd."), "vd")
    store.crash()
    image.lose()
    vol2 = LSVDVolume.open(
        settled, "vd", DiskImage(2 * MiB), cfg, cache_lost=True
    )
    # prefix = batches 1-2; writes of batches 4-5 must be gone
    for i in range(32):
        assert vol2.read(i * 4096, 4096) == bytes([i + 1]) * 4096
    for i in range(48, 80):
        assert vol2.read(i * 4096, 4096) == b"\x00" * 4096
    # the stranded objects were deleted from whichever shards held them:
    # what remains is exactly the consecutive global prefix
    after = stream_seqs(settled.list("vd."), "vd")
    assert after == list(range(1, len(after) + 1))
    assert max(before) > max(after)


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_volume_survives_write_recover_cycles(n_shards):
    """Plain (settled) sharded volume: write, drain, remount, verify."""
    shards = [InMemoryObjectStore() for _ in range(n_shards)]
    store = ShardedObjectStore(shards)
    cfg = small_config()
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    model = {}
    for i in range(120):
        lba = (i * 7 % 256) * 4096
        data = bytes([i % 255 + 1]) * 4096
        vol.write(lba, data)
        model[lba] = data
        if i % 40 == 39:
            vol.drain()
            vol = LSVDVolume.open(
                store, "vd", DiskImage(2 * MiB), cfg, cache_lost=True
            )
    for lba, expected in model.items():
        assert vol.read(lba, 4096) == expected
    # the stream really is spread: every shard holds stream objects
    assert all(any(s.list("vd.")) for s in shards)


def test_gc_deletes_reach_the_owning_shard():
    """Overwrite-heavy traffic makes garbage; GC must delete victims on
    whichever shard holds them, and the volume stays readable."""
    shards = [InMemoryObjectStore() for _ in range(3)]
    store = ShardedObjectStore(shards)
    cfg = small_config(checkpoint_interval=4)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(4 * MiB), cfg)
    data = {}
    for round_ in range(10):  # overwrites: GC fires via the watermark
        for i in range(32):  # hammer the same 128 KiB window
            payload = bytes([(round_ * 32 + i) % 255 + 1]) * 4096
            vol.write(i * 4096, payload)
            data[i * 4096] = payload
        vol.drain()
    for lba, expected in data.items():
        assert vol.read(lba, 4096) == expected
    assert store.stats.deletes > 0


# ---------------------------------------------------------------------------
# replication across shard layouts
# ---------------------------------------------------------------------------


def test_replication_between_differently_sharded_stores():
    """Placement is a per-store concern: a 3-shard source replicates to a
    2-shard target and the replica mounts consistently."""
    source = ShardedObjectStore([InMemoryObjectStore() for _ in range(3)])
    target = ShardedObjectStore([InMemoryObjectStore() for _ in range(2)])
    cfg = small_config()
    vol = LSVDVolume.create(source, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    rep = Replicator(source, target, "vd", min_age=0.0)
    rep.step(now=1.0)
    replica = LSVDVolume.open(target, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    for i in range(64):
        assert replica.read(i * 4096, 4096) == bytes([i + 1]) * 4096


# ---------------------------------------------------------------------------
# directory-backed construction
# ---------------------------------------------------------------------------


def test_sharded_directory_store_persists_layout(tmp_path):
    root = tmp_path / "bucket"
    store = sharded_directory_store(root, 4, "hash")
    store.put(object_name("v", 1), b"one")
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    assert manifest == {"layout": "hash", "n_shards": 4}
    # a later mount reads the manifest back and routes identically
    again = sharded_directory_store(root)
    assert again.router.n_shards == 4
    assert again.router.layout.name == "hash"
    assert again.get(object_name("v", 1)) == b"one"


def test_sharded_directory_store_rejects_conflicts(tmp_path):
    sharded_directory_store(tmp_path / "a", 2)
    with pytest.raises(ValueError):
        sharded_directory_store(tmp_path / "a", 4)
    # refusing to silently shard an existing plain root
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "something").write_bytes(b"x")
    with pytest.raises(ValueError):
        sharded_directory_store(plain, 2)


def test_open_directory_store_detects_sharding(tmp_path):
    sharded_directory_store(tmp_path / "s", 2)
    sharded = open_directory_store(tmp_path / "s")
    assert isinstance(sharded, ShardedObjectStore)
    plain = open_directory_store(tmp_path / "p")
    assert not isinstance(plain, ShardedObjectStore)
