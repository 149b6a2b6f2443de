"""Differential test: gcsim vs the full stack under one placement policy.

The wa_smoke benchmark measures placement on the page-map simulator and
claims the numbers for the full stack; LSVD017 keeps classification
confined to ``core/placement.py``.  This test closes the loop: the same
seeded skewed write stream is replayed through :class:`GCSimulator` and
through ``BlockStore`` + ``GarbageCollector`` with identically-configured
recording policies, and the two engines must agree *exactly* on

* the class assigned to every client write (the ``on_write`` trace),
* per-class destaged and GC-relocated byte totals,
* the final per-class occupancy of the backend, and
* the bytes plugged by §4.6 defragmentation and the final extent count
  (both engines feed :func:`repro.core.placement.relocation_runs`).

The GC trigger discipline is mirrored (a cleaning check after every
stored object, rounds until the stop watermark, the objects of one seal
group stored hottest first).  The one place the
engines are allowed to differ is object numbering (the simulator
interleaves GC object ids into a seal group, the store pre-allocates the
group's seqs), which cost-benefit's age term can see under a finite
victim window — so the SepBIT + cost-benefit pair runs with a window
larger than any candidate pool (each round cleans the *set* of all
eligible victims), while the single-stream greedy pair, whose groups are
one object, is also held to the production ``gc_window = 8``.
"""

import pytest

from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.gc import GarbageCollector
from repro.core.placement import NUM_TEMPS, make_policy
from repro.gcsim import GCSimulator
from repro.objstore import InMemoryObjectStore
from repro.workloads import FioJob
from repro.workloads.base import WRITE, take
from tests.cache_log import log_write

KiB = 1 << 10
MiB = 1 << 20

VOLUME = 2 * MiB
BATCH = 16 * KiB
OPS = 1500
WINDOW = 1 << 16  # larger than any candidate pool: a round takes the whole set

CASES = [
    ("sepbit", "cost_benefit", WINDOW),
    ("legacy", "greedy", WINDOW),
    ("legacy", "greedy", 8),
]


def write_stream(distribution: str, seed: int):
    job = FioJob(
        rw="randwrite", bs=4096, size=VOLUME, seed=seed, distribution=distribution
    )
    return [
        (op.offset, op.length)
        for op in take(job.ops(), OPS)
        if op.kind == WRITE
    ]


def mirror_gc(gc: GarbageCollector) -> None:
    """The GCSimulator._maybe_gc discipline on the full stack."""
    if not gc.needs_gc():
        return
    while not gc.reached_target():
        plan = gc.plan()
        if plan is None:
            break
        gc.execute(plan)
        gc.delete_victims(plan.victims)


def run_gcsim(
    stream, placement: str, gc_policy: str, window: int = WINDOW, defrag_pages: int = 0
) -> GCSimulator:
    sim = GCSimulator(
        VOLUME,
        batch_size=BATCH,
        policy=make_policy(placement, record=True),
        gc_policy=gc_policy,
        gc_window=window,
        defrag_hole_pages=defrag_pages,
    )
    for offset, length in stream:
        sim.write(offset, length)
    sim.flush_batch()
    return sim


def run_full_stack(
    stream, placement: str, gc_policy: str, window: int = WINDOW, defrag_pages: int = 0
):
    config = LSVDConfig(
        batch_size=BATCH,
        placement=placement,
        gc_policy=gc_policy,
        gc_window=window,
        defrag_hole_bytes=defrag_pages * 4096,
        checkpoint_interval=1 << 30,  # keep checkpoints out of the stream
    )
    bs = BlockStore.create(InMemoryObjectStore(), "vol", VOLUME, config)
    bs.placement = make_policy(placement, record=True)
    gc = GarbageCollector(bs)
    fill = 0
    for offset, length in stream:
        fill = (fill % 251) + 1
        # the store seals a group oldest record first, the simulator
        # hottest first: commit in the simulator's order so the cleaning
        # checks after each object see the same occupancy
        group = log_write(bs, offset, bytes([fill]) * length)
        for sealed in sorted(group, key=lambda b: b.temp):
            bs.commit(sealed)
            mirror_gc(gc)
    for sealed in bs.seal_group("drain"):
        bs.commit(sealed)
        mirror_gc(gc)
    return bs, gc


@pytest.mark.parametrize("defrag_pages", [0, 2])
@pytest.mark.parametrize("placement,gc_policy,window", CASES)
@pytest.mark.parametrize("distribution", ["zipfian", "hotspot"])
def test_engines_agree_on_classes_and_relocation(
    placement, gc_policy, window, distribution, defrag_pages
):
    stream = write_stream(distribution, seed=7)
    sim = run_gcsim(stream, placement, gc_policy, window, defrag_pages)
    bs, gc = run_full_stack(stream, placement, gc_policy, window, defrag_pages)

    # every client write got the same temperature class, in order
    assert sim.policy.trace == bs.placement.trace
    # ...so per-class destage totals agree byte for byte
    assert sim.policy.write_bytes == bs.placement.write_bytes
    # GC rounds matched: relocation classified identically
    assert sim.policy.reloc_bytes == bs.placement.reloc_bytes
    assert sim.gc_pages * 4096 == gc.stats.bytes_relocated

    # object-stream parity: per-class backend bytes ever written
    for temp in range(NUM_TEMPS):
        assert sim.class_pages.get(temp, 0) * 4096 == (
            bs.stats.class_data_bytes(temp) + bs.stats.class_gc_bytes(temp)
        )

    # final backend state: per-class (live, total) occupancy agrees
    # (the store enumerates classes with no objects as (0, 0); the
    # simulator omits them — normalize by dropping empties)
    full = {t: lt for t, lt in bs.occupancy_by_class().items() if lt != (0, 0)}
    page = {
        temp: (live * 4096, total * 4096)
        for temp, (live, total) in sim.occupancy_by_class().items()
        if (live, total) != (0, 0)
    }
    assert page == full

    # one hole-plugging rule, one map shape
    assert (sim.holes_plugged > 0) == (defrag_pages > 0)
    assert sim.holes_plugged * 4096 == gc.stats.holes_plugged
    assert sim.extent_count() == len(bs.omap.map)


def test_zipfian_stream_actually_exercises_every_class():
    """Guard the fixture: a parity test over a degenerate stream (one
    class, no GC) would pass vacuously."""
    stream = write_stream("zipfian", seed=7)
    sim = run_gcsim(stream, "sepbit", "cost_benefit")
    assert sim.gc_pages > 0
    assert all(sim.policy.write_bytes[t] > 0 for t in range(NUM_TEMPS))
    assert sum(sim.policy.reloc_bytes) > 0
