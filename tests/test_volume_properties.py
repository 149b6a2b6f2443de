"""Property-based tests: LSVD must behave exactly like a plain disk.

A reference model (a flat bytearray) is driven with the same operation
sequences as the volume; every read must agree, across overwrites,
drains, GC, snapshots, crash/recovery cycles, and clone divergence.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LSVDConfig, LSVDVolume, read_cache
from repro.core.validate import check_volume_invariants
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20
VOLUME = 4 * MiB
PAGES = VOLUME // 4096


def make_volume(cache=2 * MiB, batch=32 * 1024):
    store = InMemoryObjectStore()
    image = DiskImage(cache)
    cfg = LSVDConfig(batch_size=batch, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", VOLUME, image, cfg)
    return store, image, cfg, vol


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "flush", "drain"]),
        st.integers(min_value=0, max_value=PAGES - 2),  # page index
        st.integers(min_value=1, max_value=2),  # pages
        st.integers(min_value=0, max_value=255),  # fill byte
    ),
    min_size=1,
    max_size=60,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=op_strategy)
def test_volume_agrees_with_flat_disk_model(ops):
    _store, _image, _cfg, vol = make_volume()
    model = bytearray(VOLUME)
    for kind, page, pages, fill in ops:
        offset = page * 4096
        length = min(pages * 4096, VOLUME - offset)
        if kind == "write":
            data = bytes([fill]) * length
            vol.write(offset, data)
            model[offset : offset + length] = data
        elif kind == "read":
            assert vol.read(offset, length) == bytes(model[offset : offset + length])
        elif kind == "flush":
            vol.flush()
        else:
            vol.drain()
    # final full sweep
    for offset in range(0, VOLUME, 512 * 1024):
        length = min(512 * 1024, VOLUME - offset)
        assert vol.read(offset, length) == bytes(model[offset : offset + length])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=op_strategy,
    crash_seed=st.integers(min_value=0, max_value=2**16),
)
def test_recovery_with_intact_cache_preserves_everything(ops, crash_seed):
    """With all cache writes flushed before the crash, recovery must
    reproduce the model disk exactly."""
    store, image, cfg, vol = make_volume()
    model = bytearray(VOLUME)
    for kind, page, pages, fill in ops:
        offset = page * 4096
        length = min(pages * 4096, VOLUME - offset)
        if kind == "write":
            data = bytes([fill]) * length
            vol.write(offset, data)
            model[offset : offset + length] = data
        elif kind == "drain":
            vol.drain()
    vol.flush()
    image.crash(rng=random.Random(crash_seed))
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    for offset in range(0, VOLUME, 512 * 1024):
        length = min(512 * 1024, VOLUME - offset)
        assert vol2.read(offset, length) == bytes(model[offset : offset + length])


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=op_strategy)
def test_snapshot_immutable_under_later_churn(ops):
    store, _image, cfg, vol = make_volume()
    model = bytearray(VOLUME)
    for kind, page, pages, fill in ops:
        offset = page * 4096
        length = min(pages * 4096, VOLUME - offset)
        if kind == "write":
            data = bytes([fill]) * length
            vol.write(offset, data)
            model[offset : offset + length] = data
    vol.snapshot("pin")
    frozen = bytes(model)
    # churn heavily afterwards
    rng = random.Random(1)
    for i in range(300):
        vol.write(rng.randrange(0, PAGES) * 4096, bytes([i % 250 + 1]) * 4096)
    vol.drain()
    snap = LSVDVolume.open_snapshot(store, "vd", "pin", DiskImage(2 * MiB), cfg)
    for offset in range(0, VOLUME, 512 * 1024):
        length = min(512 * 1024, VOLUME - offset)
        assert snap.read(offset, length) == frozen[offset : offset + length]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=op_strategy)
def test_clone_divergence_is_isolated(ops):
    store, _image, cfg, vol = make_volume()
    model = bytearray(VOLUME)
    for kind, page, pages, fill in ops:
        offset = page * 4096
        length = min(pages * 4096, VOLUME - offset)
        if kind == "write":
            data = bytes([fill]) * length
            vol.write(offset, data)
            model[offset : offset + length] = data
    vol.close()
    base_model = bytes(model)
    clone = LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    clone_model = bytearray(base_model)
    rng = random.Random(2)
    for i in range(100):
        offset = rng.randrange(0, PAGES) * 4096
        data = bytes([i % 250 + 1]) * 4096
        clone.write(offset, data)
        clone_model[offset : offset + 4096] = data
    clone.drain()
    # clone sees its own state
    for offset in range(0, VOLUME, 1 * MiB):
        length = min(1 * MiB, VOLUME - offset)
        assert clone.read(offset, length) == bytes(clone_model[offset : offset + length])
    # base unchanged
    base = LSVDVolume.open(store, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    for offset in range(0, VOLUME, 1 * MiB):
        length = min(1 * MiB, VOLUME - offset)
        assert base.read(offset, length) == base_model[offset : offset + length]


# ---------------------------------------------------------------------------
# read-ahead controller (DESIGN.md "Read-ahead controller")
# ---------------------------------------------------------------------------
WIDEST = LSVDConfig().prefetch_bytes


def scattered_volume(blocks=6144):
    """64 MiB volume / 16 MiB cache image holding ``blocks`` 4 KiB blocks
    written in a shuffled order (temporally ordered, spatially scattered),
    caches cold.  Returns (store, vol, write order)."""
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=1 * MiB, checkpoint_interval=32)
    vol = LSVDVolume.create(store, "vd", 64 * MiB, DiskImage(16 * MiB), cfg)
    order = random.Random(7).sample(range(64 * MiB // 4096), blocks)
    for i in range(0, blocks, 64):
        vol.writev(
            [(b * 4096, bytes([(i + j) % 251 + 1]) * 4096) for j, b in enumerate(order[i : i + 64])]
        )
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    return store, vol, order


def backend(store):
    return store.stats.gets + store.stats.range_gets, store.stats.bytes_got


def run_regimes(pinned=False, phases=4):
    """temporal → uniform → temporal → uniform; returns per-phase facts."""
    store, vol, order = scattered_volume()
    if pinned:  # the paper's constant window
        vol.rc.readahead_window = lambda request, limit: max(limit, request)
    rng = random.Random(3)
    uniform = [[rng.choice(order) for _ in range(1600)] for _ in range(2)]
    plan = [order[:2048], uniform[0], order[2048:4608], uniform[1]][:phases]
    facts = []
    for blocks in plan:
        gets0, bytes0 = backend(store)
        misses0, late_bytes, reopened = vol.rc.misses, None, None
        for i, block in enumerate(blocks):
            if i == 1000:
                late_bytes = backend(store)[1]
            expect = bytes([order.index(block) % 251 + 1]) if i % 97 == 0 else None
            data = vol.read(block * 4096, 4096)
            assert expect is None or data == expect * 4096
            if reopened is None and vol.rc._window == WIDEST:
                reopened = vol.rc.misses - misses0
        gets1, bytes1 = backend(store)
        facts.append({
            "gets": gets1 - gets0,
            "bytes": bytes1 - bytes0,
            "late_bytes_per_read": (bytes1 - late_bytes) / (len(blocks) - 1000),
            "misses_until_widest": reopened,
            "window": vol.rc._window,
            "used": vol.rc.prefetch_used_bytes,
            "wasted": vol.rc.prefetch_wasted_bytes,
        })
    assert check_volume_invariants(vol).ok
    return facts


def test_readahead_follows_the_regime_and_temporal_reads_lose_nothing():
    first = run_regimes()
    assert run_regimes(phases=2) == first[:2]  # no RNG, no clock: same reads, same windows
    temporal1, uniform1, temporal2, uniform2 = first
    # temporal recall never leaves the widest window: the paper's saving
    [pinned] = run_regimes(pinned=True, phases=1)
    assert (temporal1["gets"], temporal1["bytes"]) == (pinned["gets"], pinned["bytes"])
    assert temporal1["window"] == WIDEST and temporal1["misses_until_widest"] == 1
    # uniform reads: the window closes and a read moves at most 4 blocks
    for uniform in (uniform1, uniform2):
        assert uniform["window"] == 4096
        assert uniform["late_bytes_per_read"] <= 4 * 4096
    # back to temporal: the probes notice and the window re-opens
    assert temporal2["window"] == WIDEST
    assert temporal2["misses_until_widest"] <= 1024
    assert temporal2["used"] > uniform1["used"] + 2 * MiB


rc_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 253), st.integers(1, 3)),
        st.tuples(st.just("scan"), st.integers(0, 200), st.integers(2, 48)),
        st.tuples(st.just("write"), st.integers(0, 253), st.integers(1, 3)),
        st.tuples(st.just("writev"), st.integers(0, 200), st.integers(1, 2)),
        st.tuples(st.just("trim"), st.integers(0, 253), st.integers(1, 3)),
        st.tuples(st.sampled_from(["flush", "reopen"]), st.just(0), st.just(0)),
    ),
    min_size=10,
    max_size=70,
)


class _FlagTally:
    """Counts, from the arguments alone, the blocks each ``ReadCache.insert``
    must flag: every block of every cached piece the demand does not touch.
    Around each burst, the controller's epoch count must move by exactly the
    verdicts the counters took, a refetch verdict being one per block still
    flagged under a ``refetched`` extent."""

    def __init__(self, rc):
        self.rc, self.flagged, self.inner = rc, 0, rc.insert
        rc.insert = self

    def __call__(self, pieces, span, demand, refetched=()):
        rc = self.rc
        lo, hi = demand[0], demand[0] + demand[1]
        for lba, data in pieces:  # ring blocks count from the piece's start
            end = lba + len(data)
            self.flagged += sum(
                1 for b in range(lba, end, 4096) if min(b + 4096, end) <= lo or b >= hi
            )
        refetches = 0
        for ext in refetched:  # a cached extent, wholly outside the demand
            assert rc.lookup(ext.lba, ext.length) == [ext]
            assert ext.lba + ext.length <= lo or ext.lba >= hi
            rel = ext.offset % rc._period  # a ring position
            refetches += sum(rc._prefetched[rel // 4096 : (rel + ext.length + 4095) // 4096])
        epoch, wasted, refetched_bytes = (
            rc._used + rc._wasted, rc.prefetch_wasted_bytes, rc.prefetch_refetched_bytes
        )
        self.inner(pieces, span=span, demand=demand, refetched=refetched)
        assert rc.prefetch_refetched_bytes - refetched_bytes == refetches * 4096
        assert rc._used + rc._wasted - epoch == (
            (rc.prefetch_wasted_bytes - wasted) // 4096 + refetches
        )

    def check(self):
        rc = self.rc
        verdicts = (rc.prefetch_used_bytes + rc.prefetch_wasted_bytes) // 4096
        # conservation: a flagged block is pending or had exactly one verdict
        assert verdicts + sum(rc._prefetched) == self.flagged


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=rc_ops)
@mock.patch.multiple(read_cache, READAHEAD_EPOCH=6, READAHEAD_PROBE=3)
def test_reads_stay_exact_while_the_window_moves_constantly(ops):
    """1 MiB volume over a 112-block read-cache ring, decisions every six
    verdicts: the window moves every few misses, and nothing but backend
    traffic may depend on it."""
    store = InMemoryObjectStore()
    image = DiskImage(1 * MiB)
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=8, write_cache_fraction=0.5)
    vol = LSVDVolume.create(store, "vd", 1 * MiB, image, cfg)
    oracle = {}
    for page in range(256):
        oracle[page] = bytes([page % 251 + 1])
    for first in range(0, 256, 32):
        vol.writev([(p * 4096, oracle[p] * 4096) for p in range(first, first + 32)])
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    tally = _FlagTally(vol.rc)
    for page in range(0, 256, 8):  # two ring laps of unread read-ahead
        assert vol.read(page * 4096, 4096) == oracle[page] * 4096
    assert vol.rc._window == 4096
    for step, (kind, page, pages) in enumerate(ops):
        offset, length = page * 4096, pages * 4096
        fill = bytes([step % 250 + 1])
        if kind == "read":
            expect = b"".join(oracle.get(p, b"\0") * 4096 for p in range(page, page + pages))
            assert vol.read(offset, length) == expect, (step, kind)
        elif kind == "scan":  # block by block in write order: read-ahead pays
            for p in range(page, page + pages):
                assert vol.read(p * 4096, 4096) == oracle.get(p, b"\0") * 4096, (step, p)
        elif kind == "write":
            vol.write(offset, fill * length)
            oracle.update((p, fill) for p in range(page, page + pages))
        elif kind == "writev":
            vol.writev([(offset, fill * length), (offset + 40 * 4096, fill * 4096)])
            oracle.update((p, fill) for p in [*range(page, page + pages), page + 40])
        elif kind == "trim":
            vol.trim(offset, length)
            for p in range(page, page + pages):
                oracle.pop(p, None)
        elif kind == "flush":
            vol.flush()
        else:  # clean close -> warm open: flags restart clear, verdicts at zero
            trimmed = [p for p in range(256) if p not in oracle]
            vol.close()
            vol = LSVDVolume.open(store, "vd", image, cfg)
            for p in trimmed:  # trim is volatile (see LSVDVolume.trim)
                vol.trim(p * 4096, 4096)
            tally = _FlagTally(vol.rc)
        tally.check()
        report = check_volume_invariants(vol)
        assert report.ok, (step, report.violations[:3])
