"""Regression: records written after recovery must not collide with destaged ones.

If recovery rolls the cache back past records the backend already holds
(high-water mark), new writes numbered from the rollback point would be
released against the stale mark and lose acknowledged data, so recovery
jumps the cache sequence past it.  The rolled-back-cache case is
``tests/test_crash_points.py``'s mutant #1; this is the cache-lost case.
"""

import random

from repro.core import LSVDConfig, LSVDVolume
from repro.crash import HistoryRecorder, PrefixChecker
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def test_cache_lost_open_also_jumps_sequence():
    store = InMemoryObjectStore()
    image = DiskImage(4 * MiB)
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 8 * MiB, image, cfg)
    for i in range(16):
        vol.write(i * 4096, b"x" * 4096)
    assert vol.bs.last_record_seq_destaged >= 16
    fresh = DiskImage(4 * MiB)
    vol2 = LSVDVolume.open(store, "vd", fresh, cfg, cache_lost=True)
    assert vol2.wc.next_seq > vol2.bs.last_record_seq_destaged
    # new writes + crash-with-cache keep everything committed
    rec = HistoryRecorder(vol2.write, vol2.flush)
    for i in range(20, 30):
        rec.write(i * 4096, 4096)
    rec.barrier()
    fresh.crash(rng=random.Random(3), survive_probability=1.0, allow_torn=False)
    vol3 = LSVDVolume.open(store, "vd", fresh, cfg)
    verdict = PrefixChecker(rec).check(vol3.read)
    # phase-1 writes carry no stamps, so only verify the recorded epoch
    assert verdict.cut == 10
