#!/usr/bin/env python3
"""Clone farm: boot many VMs from one golden image (§3.6, Figure 5).

A common cloud pattern: one base image, dozens of copy-on-write clones.
With LSVD a clone is just a new object-name prefix sharing the base's
object stream — creation is O(1) in data moved, the garbage collector
never touches shared objects, and deleting every clone leaves the base
intact with no reference counting.

    python examples/clone_farm.py
"""

import random

from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def main() -> None:
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=16)

    # --- build the golden image ------------------------------------------
    base = LSVDVolume.create(store, "golden", 64 * MiB, DiskImage(4 * MiB), cfg)
    rng = random.Random(0)
    print("installing the golden image...")
    for i in range(1024):  # 4 MiB "root filesystem"
        base.write(i * 4096, bytes([i % 251 + 1]) * 4096)
    base.snapshot("v1.0")
    # the image keeps evolving after the release snapshot
    for i in range(0, 1024, 2):
        base.write(i * 4096, b"v2" * 2048)
    base.close()
    base_bytes = store.total_bytes("golden.")
    print(f"golden image: {base_bytes // MiB} MiB in "
          f"{len(store.list('golden.'))} objects\n")

    # --- spin up clones from the v1.0 snapshot -----------------------------
    clones = []
    for n in range(4):
        clone = LSVDVolume.clone(
            store, "golden", f"vm{n}", DiskImage(4 * MiB), cfg, at_snapshot="v1.0"
        )
        clones.append(clone)
    creation_cost = store.total_bytes() - base_bytes
    print(f"created {len(clones)} clones; extra backend data: "
          f"{creation_cost / MiB:.2f} MiB (checkpoint metadata only)")

    # --- each clone diverges ---------------------------------------------
    for n, clone in enumerate(clones):
        for i in range(64):
            clone.write(i * 4096, f"vm{n}:".encode() * 1024)
        clone.drain()

    for n, clone in enumerate(clones):
        data = clone.read(0, 4096)
        assert data == f"vm{n}:".encode() * 1024
        # un-diverged blocks still come from the shared base (v1.0 content)
        assert clone.read(1023 * 4096, 4096) == bytes([1023 % 251 + 1]) * 4096
    print("each clone sees its own writes; shared blocks come from the base")

    # --- churn a clone hard: its GC must never touch base objects ----------
    golden_objects = set(store.list("golden."))
    hot = clones[0]
    for i in range(4000):
        hot.write(rng.randrange(0, 1024) * 4096, bytes([i % 250 + 1]) * 4096)
    hot.drain()
    assert set(store.list("golden.")) == golden_objects
    print(f"after heavy churn + GC on vm0 "
          f"(WAF {hot.write_amplification:.2f}), "
          "the golden image's objects are untouched ✔")


if __name__ == "__main__":
    main()
