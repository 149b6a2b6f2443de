#!/usr/bin/env python3
"""§6.3 research directions, implemented: dedup + host-wide cache sharing.

A golden image full of duplicate blocks is de-duplicated into a compact
object stream; clones boot from it while sharing one host cache keyed by
immutable object identity.

    python examples/dedup_and_sharing.py
"""

import random

from repro.core import LSVDConfig, LSVDVolume
from repro.core.dedup import dedupe_volume
from repro.core.shared_cache import SharedObjectCache
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20
BLOCK = 4096


def main() -> None:
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=16)

    # --- a "raw" OS image: lots of repeated blocks ----------------------
    raw = LSVDVolume.create(store, "raw", 8 * MiB, DiskImage(2 * MiB), cfg)
    rng = random.Random(0)
    distinct = [bytes([b]) * BLOCK for b in range(1, 33)]  # 32 real blocks
    for i in range(1024):  # 4 MiB of data, heavily duplicated
        raw.write(i * BLOCK, distinct[rng.randrange(len(distinct))])
    raw.drain()
    raw_bytes = store.total_bytes("raw.")

    # --- dedupe it into the golden image ---------------------------------
    golden = LSVDVolume.create(store, "golden", 8 * MiB, DiskImage(2 * MiB), cfg)
    report = dedupe_volume(raw, golden)
    golden.close()
    print(f"dedup: {report.blocks_scanned} blocks scanned, "
          f"{report.blocks_stored} stored, "
          f"{report.blocks_duplicate} aliased, "
          f"{report.savings_ratio:.0%} saved")
    print(f"backend: raw image {raw_bytes / MiB:.2f} MiB -> "
          f"golden {store.total_bytes('golden.') / MiB:.2f} MiB\n")

    # --- clones share one host cache -------------------------------------
    shared = SharedObjectCache(capacity=4 * MiB)
    clones = []
    for n in range(4):
        clone = LSVDVolume.clone(store, "golden", f"vm{n}", DiskImage(2 * MiB), cfg)
        shared.attach(clone)
        clones.append(clone)

    gets0 = store.stats.range_gets + store.stats.gets
    for lba in range(0, 1024 * BLOCK, 8 * BLOCK):
        clones[0].read(lba, BLOCK)  # vm0 warms the shared cache
    warm = store.stats.range_gets + store.stats.gets - gets0
    for clone in clones[1:]:
        for lba in range(0, 1024 * BLOCK, 8 * BLOCK):
            clone.read(lba, BLOCK)  # vm1-3 mostly hit it
    cold = store.stats.range_gets + store.stats.gets - gets0 - warm
    print(f"vm0 warming reads hit the backend {warm} times;")
    print(f"vm1-3 together added only {cold} backend reads "
          f"(shared-cache hit rate {shared.stats.hit_rate:.0%})")
    # correctness: every clone sees identical golden content
    probe = 123 * BLOCK
    assert len({bytes(c.read(probe, BLOCK)) for c in clones}) == 1
    print("all clones read identical golden content ✔")


if __name__ == "__main__":
    main()
