#!/usr/bin/env python3
"""Persist an LSVD volume to real files and inspect it with fsck.

Uses the filesystem-backed object store, so the volume survives across
process runs and the object stream can be examined with ordinary tools:

    python examples/local_backup.py /tmp/lsvd-demo
    python -m repro.cli /tmp/lsvd-demo/bucket fsck vol --objects
"""

import random
import sys
import tempfile
from pathlib import Path

from repro.core import LSVDConfig, LSVDVolume
from repro.core.errors import VolumeNotFoundError
from repro.core.scrub import Scrubber, fsck_volume
from repro.devices.image import DiskImage
from repro.objstore.directory import DirectoryObjectStore

MiB = 1 << 20


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    bucket = root / "bucket"
    store = DirectoryObjectStore(bucket)
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=8)

    try:
        DirectoryObjectStore(bucket)
        from repro.core.block_store import BlockStore

        BlockStore.read_super(store, "vol")
        print(f"re-opening existing volume in {bucket}")
        vol = LSVDVolume.open(store, "vol", DiskImage(4 * MiB), cfg, cache_lost=True)
    except VolumeNotFoundError:
        print(f"creating new volume in {bucket}")
        vol = LSVDVolume.create(store, "vol", 64 * MiB, DiskImage(4 * MiB), cfg)

    rng = random.Random()
    stamp = rng.randrange(1, 255)
    for i in range(500):
        vol.write(rng.randrange(0, 4096) * 4096, bytes([stamp]) * 4096)
    vol.close()
    print(f"wrote 500 blocks stamped {stamp}; "
          f"{len(store.list('vol.'))} objects on disk "
          f"({store.total_bytes('vol.') / MiB:.1f} MiB)")

    # verify the stream end to end
    report = fsck_volume(store, "vol")
    print(report.summary())

    # deep-scrub all object payloads
    reopened = LSVDVolume.open(store, "vol", DiskImage(4 * MiB), cfg, cache_lost=True)
    scrubber = Scrubber(reopened.bs)
    findings = scrubber.full_pass()
    print(f"scrub: {scrubber.stats.objects_checked} objects, "
          f"{scrubber.stats.bytes_verified / MiB:.1f} MiB verified, "
          f"{len(findings)} problems")
    print(f"\nrun again to keep appending, or inspect with:\n"
          f"  python -m repro.cli {bucket} fsck vol --objects")


if __name__ == "__main__":
    main()
