"""Ablation: temporal read-ahead (§3.2, §6.3).

LSVD prefetches by *temporal* locality: a backend read pulls in data
written around the same time as the missed block, whatever its address.
This bench measures backend GET counts and bytes under three read-ahead
arms — off, the paper's constant window, and the default window sized by
what earlier read-ahead delivered — and three read patterns:

* temporal-recall — reads revisit blocks in roughly the order they were
  written (restart-after-reboot, log replay): prefetch should eliminate
  most GETs;
* spatial-scan — sequential address-order reads of data written in a
  scattered order: temporal prefetch helps far less, the regime the
  paper's §6.3 flags for future "restoring spatial ordering during GC";
* uniform-random — independent draws over the whole written set: nothing
  to predict, so every prefetched byte is pure cost.

The nine (GETs, bytes per read) cells go to ``bench-out/BENCH_prefetch.json``
so ``make bench-diff`` holds each of them, not just the four gates below.
"""

import random
from pathlib import Path

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore
from repro.obs import Registry, write_bench_json

MiB = 1 << 20
BLOCK = 4096
N_BLOCKS = 1024


def build(prefetch_bytes):
    store = InMemoryObjectStore()
    cfg = LSVDConfig(
        batch_size=128 * 1024, checkpoint_interval=32, prefetch_bytes=prefetch_bytes
    )
    vol = LSVDVolume.create(store, "vd", 32 * MiB, DiskImage(4 * MiB), cfg)
    # write temporally ordered but spatially scattered data
    rng = random.Random(7)
    write_order = list(range(N_BLOCKS))
    rng.shuffle(write_order)
    for i, blk in enumerate(write_order):
        vol.write(blk * BLOCK, bytes([i % 251 + 1]) * BLOCK)
    vol.drain()
    # cold caches: everything must come from the backend
    vol.wc.release_through(vol.wc.next_seq)
    vol.rc.clear()
    return store, vol, write_order


class ConstantWindow:
    """The paper's read-ahead: every miss fetches the same span, whatever
    earlier read-ahead delivered.  Assigned over ``vol.rc.readahead_window``
    to stand in for the controller (DESIGN.md, "Read-ahead controller")."""

    def __init__(self, span):
        self.span = span

    def __call__(self, request, limit):
        return max(self.span, request)


def gets(store):
    return store.stats.gets + store.stats.range_gets


def run_pattern(prefetch_bytes, pattern, constant=False):
    """(backend GETs, backend bytes per read) of one read pattern."""
    store, vol, write_order = build(prefetch_bytes)
    if constant:
        vol.rc.readahead_window = ConstantWindow(prefetch_bytes)
    before, bytes_before = gets(store), store.stats.bytes_got
    if pattern == "temporal":
        order = write_order  # revisit in write order
    elif pattern == "spatial":
        order = sorted(write_order)  # address order
    else:  # uniform-random: four passes' worth of independent draws
        order = random.Random(11).choices(write_order, k=4 * N_BLOCKS)
    for blk in order:
        vol.read(blk * BLOCK, BLOCK)
    return gets(store) - before, (store.stats.bytes_got - bytes_before) / len(order)


PATTERNS = ("temporal", "spatial", "uniform")
#: arm -> (prefetch_bytes, constant window?)
ARMS = {
    "off": (BLOCK, False),  # minimum window: no read-ahead
    "constant": (128 * 1024, True),  # the paper's fixed 128 KiB window
    "adaptive": (128 * 1024, False),  # the default: sized by what it delivers
}


def run_all():
    return {
        (arm, pattern): run_pattern(prefetch, pattern, constant)
        for arm, (prefetch, constant) in ARMS.items()
        for pattern in PATTERNS
    }


def test_ablation_temporal_prefetch(once):
    measured = once(run_all)
    # the default configuration's GET counts, keyed as before the arms existed
    results = {
        (ARMS[arm][0], pattern): measured[(arm, pattern)][0]
        for arm in ("off", "adaptive")
        for pattern in PATTERNS
    }

    from repro.analysis import Table

    table = Table(
        "Ablation: temporal read-ahead (backend GETs / KiB per read, 1024 blocks)",
        ["read-ahead", "temporal-recall", "spatial-scan", "uniform-random"],
    )
    for arm in ARMS:
        table.add(
            arm,
            *(
                f"{measured[(arm, p)][0]} / {measured[(arm, p)][1] / 1024:.1f}"
                for p in PATTERNS
            ),
        )
    table.show()
    figures = {}
    for (arm, pattern), (n_gets, per_read) in measured.items():
        figures[f"{arm}_{pattern}_gets"] = n_gets
        figures[f"{arm}_{pattern}_bytes_per_read"] = per_read
    out = Path("bench-out")
    out.mkdir(exist_ok=True)
    write_bench_json("prefetch", Registry(), figures=figures, out_dir=out)

    no_pf_temporal = results[(BLOCK, "temporal")]
    pf_temporal = results[(128 * 1024, "temporal")]
    pf_spatial = results[(128 * 1024, "spatial")]
    # prefetch slashes backend reads for temporally local access
    assert pf_temporal < no_pf_temporal / 5
    # and helps spatial scans much less (they fight the log order)
    assert pf_temporal < pf_spatial

    # the both-regimes gate: sizing read-ahead by what it delivers keeps the
    # paper's saving where reads follow write order...
    assert measured[("adaptive", "temporal")] == measured[("constant", "temporal")]
    assert pf_temporal == 81
    # ...costs no GET where they half follow it...
    assert pf_spatial <= measured[("constant", "spatial")][0]
    # ...and stops paying for neighbours nobody reads where they do not
    assert measured[("adaptive", "uniform")][1] <= measured[("constant", "uniform")][1] / 4
