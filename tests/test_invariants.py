"""Invariant checks under randomized workloads (GC, crash, clones)."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LSVDConfig, LSVDVolume
from repro.core.validate import check_volume_invariants
from repro.core.write_cache import WC_TARGET
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def make_volume(size=8 * MiB):
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", size, DiskImage(2 * MiB), cfg)
    return store, cfg, vol


def test_fresh_volume_passes():
    _store, _cfg, vol = make_volume()
    assert check_volume_invariants(vol).ok


def test_invariants_after_heavy_churn_and_gc():
    _store, _cfg, vol = make_volume(size=4 * MiB)
    rng = random.Random(1)
    for i in range(2500):
        vol.write(rng.randrange(0, 1024) * 4096, bytes([i % 255 + 1]) * 4096)
        if i % 500 == 499:
            report = check_volume_invariants(vol)
            assert report.ok, report.violations[:5]
    vol.drain()
    assert vol.gc.stats.victims_cleaned > 0
    report = check_volume_invariants(vol)
    assert report.ok, report.violations[:5]


def test_invariants_after_crash_recovery():
    store, cfg, vol = make_volume()
    image = vol.wc.image
    rng = random.Random(2)
    for i in range(300):
        vol.write(rng.randrange(0, 1024) * 4096, b"z" * 4096)
    vol.flush()
    image.crash(rng=rng)
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    report = check_volume_invariants(vol2)
    assert report.ok, report.violations[:5]


def test_invariants_on_clone():
    store, cfg, vol = make_volume()
    for i in range(64):
        vol.write(i * 4096, b"b" * 4096)
    vol.close()
    clone = LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    for i in range(512):
        clone.write((i % 128) * 4096, bytes([i % 250 + 1]) * 4096)
    clone.drain()
    report = check_volume_invariants(clone)
    assert report.ok, report.violations[:5]


def test_checker_detects_planted_corruption():
    _store, _cfg, vol = make_volume()
    vol.write(0, b"x" * 4096)
    vol.drain()
    # corrupt the accounting behind the checker's back
    seq = next(iter(s for s, i in vol.bs.omap.objects.items() if i.live_bytes))
    vol.bs.omap.objects[seq].live_bytes += 1
    report = check_volume_invariants(vol)
    assert not report.ok
    assert any("accounting says" in v for v in report.violations)


def test_checker_places_live_write_cache_entries_by_log_position():
    """A live write-cache entry lies in a live record's payload; one behind
    the tail is dead, not wrong."""
    _store, _cfg, vol = make_volume()
    wc = vol.wc
    first = wc.append([(0, b"a" * 4096)])
    wc.append([(8192, b"b" * 4096)])
    wc.release_through(first.seq)
    assert wc.map.lookup(0, 4096) and check_volume_invariants(vol).ok
    wc.map.update(65536, 4096, WC_TARGET, wc.records[0].virt)  # its header
    report = check_volume_invariants(vol)
    assert any("payload of every live record" in v for v in report.violations)


def test_read_cache_live_counts_match_the_map_and_a_desynchronised_count_is_loud():
    store, cfg, vol = make_volume(size=8 * MiB)
    for chunk in range(0, 8 * MiB, 64 * 1024):
        vol.write(chunk, bytes([chunk // 65536 % 255 + 1]) * 64 * 1024)
    vol.drain()
    rng = random.Random(3)
    for i in range(600):  # misses wrap the read-cache ring; writes invalidate
        vol.read(rng.randrange(0, 2048) * 4096, 4096)
        if i % 7 == 0:
            vol.write(rng.randrange(0, 2048) * 4096, b"w" * 4096)
    assert vol.rc.evicted_bytes > 0
    assert check_volume_invariants(vol).ok
    image = vol.wc.image
    vol.close()
    warm = LSVDVolume.open(store, "vd", image, cfg)
    assert len(warm.rc.map) > 0  # open() loaded close()'s save
    assert check_volume_invariants(warm).ok
    for _ in range(200):
        warm.read(rng.randrange(0, 2048) * 4096, 4096)
    assert check_volume_invariants(warm).ok
    rc = warm.rc
    live = rc._live
    # a stray count on a block no live entry holds: it would be evicted
    # twice; a missing one under a live entry: its eviction would go uncounted
    first, second = rc.lookup(0, 1 << 63)[:2]
    rc.invalidate(first.lba, 4096)  # a write would: its block holds nothing live
    assert check_volume_invariants(warm).ok
    stray, held = ((e.offset % rc._period) // 4096 for e in (first, second))
    live[stray] = 4096
    report = check_volume_invariants(warm)
    assert [v for v in report.violations if "live bytes" in v] == [
        f"read-cache ring block {stray} counts 4096 live bytes, its live entries hold 0"
    ]
    live[stray], count = 0, live[held]
    live[held] = 0
    report = check_volume_invariants(warm)
    assert [v for v in report.violations if "live bytes" in v] == [
        f"read-cache ring block {held} counts 0 live bytes, its live entries hold {count}"
    ]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=20, max_value=300),
)
def test_invariants_hold_under_random_ops(seed, n_ops):
    _store, _cfg, vol = make_volume(size=4 * MiB)
    rng = random.Random(seed)
    for i in range(n_ops):
        action = rng.random()
        page = rng.randrange(0, 1024)
        if action < 0.7:
            vol.write(page * 4096, bytes([i % 255 + 1]) * 4096)
        elif action < 0.8:
            vol.read(page * 4096, 4096)
        elif action < 0.9:
            vol.trim(page * 4096, 4096)
        else:
            vol.flush()
    vol.drain()
    report = check_volume_invariants(vol)
    assert report.ok, report.violations[:5]
