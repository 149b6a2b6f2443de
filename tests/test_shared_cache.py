"""Tests for §6.3 cache sharing across cloned volumes."""

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.shared_cache import SharedObjectCache
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


# -- the cache itself ----------------------------------------------------------


def test_roundtrip_aligned():
    cache = SharedObjectCache(capacity=1 * MiB, chunk_size=64 * 1024)
    cache.insert("obj", 0, b"x" * (128 * 1024))
    assert cache.get("obj", 0, 64 * 1024) == b"x" * (64 * 1024)
    assert cache.get("obj", 64 * 1024, 64 * 1024) == b"x" * (64 * 1024)
    assert cache.get("obj", 16 * 1024, 32 * 1024) == b"x" * (32 * 1024)


def test_gap_returns_none():
    cache = SharedObjectCache(capacity=1 * MiB, chunk_size=64 * 1024)
    cache.insert("obj", 0, b"x" * (64 * 1024))
    assert cache.get("obj", 0, 128 * 1024) is None
    assert cache.get("other", 0, 1024) is None


def test_lru_eviction():
    cache = SharedObjectCache(capacity=128 * 1024, chunk_size=64 * 1024)
    cache.insert("a", 0, b"1" * (64 * 1024))
    cache.insert("b", 0, b"2" * (64 * 1024))
    cache.get("a", 0, 1024)  # touch a: b becomes LRU
    cache.insert("c", 0, b"3" * (64 * 1024))  # evicts b
    assert cache.get("a", 0, 1024) is not None
    assert cache.get("b", 0, 1024) is None
    assert cache.stats.evictions == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        SharedObjectCache(capacity=1024, chunk_size=64 * 1024)


def test_immutable_objects_never_stale():
    cache = SharedObjectCache(capacity=1 * MiB, chunk_size=64 * 1024)
    cache.insert("obj", 0, b"v1" * (32 * 1024))
    # re-inserting different bytes under the same key is ignored: object
    # names are immutable identities
    cache.insert("obj", 0, b"v2" * (32 * 1024))
    assert cache.get("obj", 0, 64 * 1024) == b"v1" * (32 * 1024)


# -- attached to cloned volumes ------------------------------------------------


def make_base_and_clones(n_clones=3):
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=8)
    base = LSVDVolume.create(store, "base", 16 * MiB, DiskImage(2 * MiB), cfg)
    for i in range(512):
        base.write(i * 4096, bytes([i % 251 + 1]) * 4096)
    base.close()
    clones = [
        LSVDVolume.clone(store, "base", f"vm{i}", DiskImage(2 * MiB), cfg)
        for i in range(n_clones)
    ]
    return store, clones


def test_second_clone_hits_what_first_fetched():
    store, clones = make_base_and_clones(2)
    shared = SharedObjectCache(capacity=8 * MiB)
    for clone in clones:
        shared.attach(clone)
    gets_before = store.stats.range_gets + store.stats.gets
    clones[0].read(100 * 4096, 4096)
    gets_mid = store.stats.range_gets + store.stats.gets
    assert gets_mid > gets_before  # first clone went to the backend
    clones[1].read(100 * 4096, 4096)
    assert store.stats.range_gets + store.stats.gets == gets_mid  # shared hit
    assert shared.stats.hits >= 1


def test_shared_cache_correctness_across_clones():
    store, clones = make_base_and_clones(3)
    shared = SharedObjectCache(capacity=8 * MiB)
    for clone in clones:
        shared.attach(clone)
    # divergent writes stay private
    clones[0].write(0, b"A" * 4096)
    clones[1].write(0, b"B" * 4096)
    for clone in clones:
        clone.drain()
    assert clones[0].read(0, 4096) == b"A" * 4096
    assert clones[1].read(0, 4096) == b"B" * 4096
    assert clones[2].read(0, 4096) == bytes([0 % 251 + 1]) * 4096
    # shared base blocks agree everywhere
    for clone in clones:
        assert clone.read(200 * 4096, 4096) == bytes([200 % 251 + 1]) * 4096


# -- bounded headers -----------------------------------------------------------


def test_header_lru_is_bounded():
    cache = SharedObjectCache(capacity=1 * MiB, chunk_size=64 * 1024, max_headers=4)
    for i in range(10):
        cache.header_put(f"obj{i}", {"seq": i})
    assert len(cache.headers) == 4
    # oldest entries fell off; the newest survive
    assert cache.header_get("obj0") is None
    assert cache.header_get("obj9") == {"seq": 9}
    assert cache.stats.header_evictions == 6


def test_header_get_refreshes_lru_order():
    cache = SharedObjectCache(capacity=1 * MiB, chunk_size=64 * 1024, max_headers=2)
    cache.header_put("a", 1)
    cache.header_put("b", 2)
    cache.header_get("a")  # refresh: b is now the LRU entry
    cache.header_put("c", 3)
    assert cache.header_get("a") == 1
    assert cache.header_get("b") is None


def test_header_dropped_with_last_chunk_of_object():
    cache = SharedObjectCache(capacity=128 * 1024, chunk_size=64 * 1024)
    cache.insert("a", 0, b"1" * (64 * 1024))
    cache.header_put("a", {"seq": 1})
    cache.insert("b", 0, b"2" * (64 * 1024))
    cache.insert("c", 0, b"3" * (64 * 1024))  # evicts a's only chunk
    assert cache.header_get("a") is None
    assert cache.stats.header_evictions == 1


def test_max_headers_validation():
    with pytest.raises(ValueError):
        SharedObjectCache(capacity=1 * MiB, max_headers=0)


# -- per-tenant budgets / weighted eviction ------------------------------------


def test_over_budget_tenant_is_preferred_eviction_victim():
    KiB64 = 64 * 1024
    cache = SharedObjectCache(capacity=4 * KiB64, chunk_size=KiB64)
    cache.set_budget("hog", KiB64)
    cache.insert("quiet-obj", 0, b"q" * KiB64, tenant="quiet")
    # the hog fills the remaining capacity, far over its 1-chunk budget
    for i in range(3):
        cache.insert(f"hog-obj{i}", 0, bytes([i + 1]) * KiB64, tenant="hog")
    assert cache.tenant_usage("hog") == KiB64  # clipped back to budget
    # one more insert evicts hog chunks, not the quiet tenant's —
    # even though quiet-obj is the globally least-recently-used chunk
    cache.insert("new-obj", 0, b"n" * KiB64, tenant="quiet")
    assert cache.get("quiet-obj", 0, KiB64) == b"q" * KiB64


def test_budget_zero_removes_partition():
    KiB64 = 64 * 1024
    cache = SharedObjectCache(capacity=4 * KiB64, chunk_size=KiB64)
    cache.set_budget("t", KiB64)
    assert cache.tenant_budget("t") == KiB64
    cache.set_budget("t", 0)
    assert cache.tenant_budget("t") is None
    for i in range(3):
        cache.insert(f"o{i}", 0, bytes([i + 1]) * KiB64, tenant="t")
    assert cache.tenant_usage("t") == 3 * KiB64  # unbudgeted again


def test_shrinking_budget_evicts_immediately():
    KiB64 = 64 * 1024
    cache = SharedObjectCache(capacity=8 * KiB64, chunk_size=KiB64)
    for i in range(4):
        cache.insert(f"o{i}", 0, bytes([i + 1]) * KiB64, tenant="t")
    cache.set_budget("t", 2 * KiB64)
    assert cache.tenant_usage("t") == 2 * KiB64
    # LRU chunks went first; the newest two survive
    assert cache.get("o3", 0, KiB64) is not None
    assert cache.get("o0", 0, KiB64) is None


# -- obs publication -----------------------------------------------------------


def test_bind_obs_publishes_sharedcache_metrics():
    from repro.obs import Registry

    cache = SharedObjectCache(capacity=128 * 1024, chunk_size=64 * 1024)
    cache.insert("a", 0, b"1" * (64 * 1024))
    cache.get("a", 0, 1024)
    cache.get("missing", 0, 1024)
    # late binding replays the history accumulated so far
    obs = Registry()
    cache.bind_obs(obs)
    assert obs.value("sharedcache.hits") == 1
    assert obs.value("sharedcache.misses") == 1
    assert obs.value("sharedcache.insertions") == 1
    assert obs.value("sharedcache.bytes") == 64 * 1024
    # and live updates keep flowing
    cache.insert("b", 0, b"2" * (64 * 1024))
    cache.insert("c", 0, b"3" * (64 * 1024))
    assert obs.value("sharedcache.evictions") == cache.stats.evictions > 0


# -- first-class attachment API ------------------------------------------------


def test_attach_detach_restores_direct_path():
    store, clones = make_base_and_clones(2)
    shared = SharedObjectCache(capacity=8 * MiB)
    att0 = shared.attach(clones[0], tenant="t0")
    att1 = shared.attach(clones[1], tenant="t1")
    assert shared.attachments() == [att0, att1]
    clones[0].read(100 * 4096, 4096)
    att1.detach()
    assert not att1.attached
    assert shared.attachments() == [att0]
    hits_before = shared.stats.hits
    # the detached clone reads directly: correct data, no shared hits
    assert clones[1].read(100 * 4096, 4096) == bytes([100 % 251 + 1]) * 4096
    assert shared.stats.hits == hits_before
    att1.detach()  # idempotent


def test_attachment_tags_inserts_with_tenant():
    store, clones = make_base_and_clones(1)
    shared = SharedObjectCache(capacity=8 * MiB)
    shared.attach(clones[0], tenant="acme")
    clones[0].read(100 * 4096, 4096)
    assert shared.tenant_usage("acme") > 0


def test_gc_of_clone_does_not_poison_shared_cache():
    """A clone's own churn (and GC) must not corrupt what other clones
    read through the shared cache."""
    import random

    store, clones = make_base_and_clones(2)
    shared = SharedObjectCache(capacity=8 * MiB)
    for clone in clones:
        shared.attach(clone)
    rng = random.Random(1)
    for i in range(2000):
        clones[0].write(rng.randrange(0, 512) * 4096, bytes([i % 250 + 1]) * 4096)
    clones[0].drain()
    # clone 1 still reads pristine base content
    for lba in range(0, 512 * 4096, 64 * 4096):
        assert clones[1].read(lba, 4096) == bytes([(lba // 4096) % 251 + 1]) * 4096
