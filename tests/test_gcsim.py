"""Tests for the fast batching + GC trace simulator (Table 5)."""


import random

import pytest

from repro.core.placement import make_policy
from repro.gcsim import GCSimulator
from repro.workloads import TRACE_PRESETS, CloudPhysicsTrace

MiB = 1 << 20
PAGE = 4096


def test_no_overwrite_no_gc_waf_one():
    sim = GCSimulator(volume_size=64 * MiB, batch_size=1 * MiB)
    for i in range(64 * MiB // PAGE):
        sim.write(i * PAGE, PAGE)
    rep = sim.finish()
    assert rep.waf == pytest.approx(1.0)
    assert rep.merge_ratio == 0.0
    assert rep.gc_bytes == 0


def test_sequential_fill_single_extent_per_batchless_runs():
    sim = GCSimulator(volume_size=16 * MiB, batch_size=1 * MiB)
    for i in range(16 * MiB // PAGE):
        sim.write(i * PAGE, PAGE)
    rep = sim.finish()
    # sequential batches land contiguously: extents = number of objects
    assert rep.extent_count == rep.objects_written


def test_intra_batch_merge_counts():
    sim = GCSimulator(volume_size=16 * MiB, batch_size=1 * MiB, merge=True)
    for _ in range(2):
        for i in range(128):  # same 512 KiB twice within one batch
            sim.write(i * PAGE, PAGE)
    rep = sim.finish()
    assert rep.merged_bytes == 128 * PAGE
    assert rep.merge_ratio == pytest.approx(0.5)


def test_merge_disabled_counts_nothing():
    sim = GCSimulator(volume_size=16 * MiB, batch_size=1 * MiB, merge=False)
    for _ in range(2):
        for i in range(128):
            sim.write(i * PAGE, PAGE)
    rep = sim.finish()
    assert rep.merged_bytes == 0
    # both copies of every page are stored; the older one is garbage on
    # arrival, so the cleaner may run — it only adds relocation traffic
    assert rep.backend_bytes - rep.gc_bytes == 256 * PAGE


def test_merge_disabled_displaces_and_counts_distinct_pages():
    """Three unmerged writes of one page: the second object stores two
    copies, displaces the first object once, and holds one live page."""
    sim = GCSimulator(volume_size=1 * MiB, batch_size=2 * PAGE, merge=False, gc_low=1e-9)
    sim.write(0, PAGE)
    sim.flush_batch()
    sim.write(0, PAGE)
    sim.write(0, PAGE)  # fills the two-page batch: sealed here
    assert sim.obj_live == {0: 0, 1: 1}
    assert sim.obj_size == {0: 1, 1: 2}
    assert sim.occupancy() == (1, 3)


class _Recorder:
    def __init__(self):
        self.calls = []

    def on_object(self, nbytes, gc, temp):
        self.calls.append(("object", nbytes, gc))

    def on_gc_read(self, nbytes):
        self.calls.append(("gc_read", nbytes))

    def on_gc_delete(self, count):
        self.calls.append(("gc_delete", count))


def test_listener_sees_read_then_objects_then_delete():
    rec = _Recorder()
    sim = GCSimulator(volume_size=1 * MiB, batch_size=4 * PAGE, listener=rec)
    for page in (0, 1, 2, 3):  # object 0: four live pages
        sim.write(page * PAGE, PAGE)
    assert rec.calls == [("object", 4 * PAGE, False)]
    assert sim.pending_pages == 0 and sim.occupancy() == (4, 4)
    for page in (0, 1, 2, 8):  # object 1 kills three of them: 5/8 < 70 %
        sim.write(page * PAGE, PAGE)
    # one cleaning round: the victim's live page is read, relocated, then
    # the victim is deleted — in that order
    assert rec.calls[1:] == [
        ("object", 4 * PAGE, False),
        ("gc_read", 1 * PAGE),
        ("object", 1 * PAGE, True),
        ("gc_delete", 1),
    ]
    assert sim.occupancy() == (5, 5)
    sim.write(9 * PAGE, PAGE)
    assert sim.pending_pages == 1


def test_merge_never_crosses_batches():
    sim = GCSimulator(volume_size=16 * MiB, batch_size=512 * 1024, merge=True)
    for _ in range(2):  # exactly one batch each pass
        for i in range(128):
            sim.write(i * PAGE, PAGE)
    rep = sim.finish()
    assert rep.merged_bytes == 0  # overwrite lands in the *next* batch


def test_gc_triggers_and_bounds_garbage():
    import random

    sim = GCSimulator(volume_size=16 * MiB, batch_size=1 * MiB, gc_low=0.7, gc_high=0.75)
    rng = random.Random(2)
    # fill, then random scattered overwrites: diffuse garbage the GC must
    # clean by copying live data
    for i in range(16 * MiB // PAGE):
        sim.write(i * PAGE, PAGE)
    for _ in range(30_000):
        sim.write(rng.randrange(0, 16 * MiB // PAGE) * PAGE, PAGE)
    rep = sim.finish()
    assert sim.utilization() >= 0.69
    assert rep.gc_bytes > 0
    assert rep.objects_deleted > 0
    assert 1.0 < rep.waf < 4.0


def test_gc_preserves_mapping_sanity():
    sim = GCSimulator(volume_size=8 * MiB, batch_size=512 * 1024)
    import random

    rng = random.Random(1)
    for _ in range(20_000):
        sim.write(rng.randrange(0, 8 * MiB // PAGE) * PAGE, PAGE)
    rep = sim.finish()
    # every mapped page's object must exist with consistent accounting
    import numpy as np

    mapped = sim.page_obj[sim.page_obj >= 0]
    for obj in np.unique(mapped):
        assert int(obj) in sim.obj_size
    live_recount = {int(o): int((sim.page_obj == o).sum()) for o in np.unique(mapped)}
    for obj, live in live_recount.items():
        assert sim.obj_live[obj] == live


def test_hole_plugging_reduces_extents():
    base = dict(volume_size=32 * MiB, batch_size=1 * MiB, gc_low=0.7, gc_high=0.75)
    import random

    def run(defrag):
        sim = GCSimulator(**base, defrag_hole_pages=defrag)
        rng = random.Random(5)
        # fill, then scattered single-page overwrites to fragment the map
        for i in range(32 * MiB // PAGE):
            sim.write(i * PAGE, PAGE)
        for _ in range(60_000):
            sim.write(rng.randrange(0, 32 * MiB // PAGE) * PAGE, PAGE)
        return sim.finish()

    plain = run(0)
    plugged = run(2)
    assert plugged.holes_plugged > 0
    assert plugged.extent_count < plain.extent_count
    # the extra copies must stay bounded (the paper reports negligible
    # cost on real traces; this synthetic workload is far more hostile)
    assert plugged.waf < plain.waf * 2.0


def test_unaligned_write_rounds_to_pages():
    sim = GCSimulator(volume_size=1 * MiB, batch_size=64 * 1024)
    sim.write(100, 200)  # within one page
    rep = sim.finish()
    assert rep.client_bytes == PAGE


def test_rejects_unaligned_volume():
    with pytest.raises(ValueError):
        GCSimulator(volume_size=1000)


def test_table5_regime_waf_ordering():
    """Coarse Table 5 shape: hot-set traces (w10/w31/w05) get WAF near 1;
    spread-out low-volume traces (w66/w59) get the highest WAF."""

    def run(name):
        trace = CloudPhysicsTrace(TRACE_PRESETS[name], scale=1 / 256, seed=1)
        sim = GCSimulator(volume_size=trace.volume_size, batch_size=8 * MiB)
        sim.replay(trace.writes())
        return sim.finish()

    low = run("w31")
    high = run("w66")
    assert low.waf < high.waf
    assert low.waf < 1.35


def test_table5_merge_ratio_shape():
    """w41 (paper merge 0.71) must out-merge w10 (paper merge 0.01)."""

    def merge_of(name):
        trace = CloudPhysicsTrace(TRACE_PRESETS[name], scale=1 / 256, seed=2)
        sim = GCSimulator(volume_size=trace.volume_size, batch_size=32 * MiB)
        sim.replay(trace.writes())
        return sim.finish().merge_ratio

    assert merge_of("w41") > merge_of("w10") + 0.2


@pytest.mark.parametrize(
    "merge, policy, hole_pages",
    [(True, "sepbit", 0), (False, "legacy", 0), (True, "legacy", 2)],
)
def test_running_occupancy_totals_equal_the_dict_sums(merge, policy, hole_pages):
    """occupancy() keeps running totals; after every step of a seeded
    write/flush/GC sequence they must equal the sums over every stored
    object that the page map used to take on each call."""
    rng = random.Random(11)
    sim = GCSimulator(
        volume_size=2 * MiB, batch_size=64 * 1024, merge=merge,
        policy=make_policy(policy), defrag_hole_pages=hole_pages,
    )
    for _ in range(2500):
        if rng.random() < 0.05:
            sim.flush_batch()
        else:
            sim.write(rng.randrange(512) * PAGE, rng.choice((1, 1, 2, 5)) * PAGE)
        assert sim.occupancy() == (sum(sim.obj_live.values()), sum(sim.obj_size.values()))
    assert sim.objects_deleted > 0  # cleaning rounds ran
