"""Volume uuids and write-cache epochs come from one seeded id source."""

import random

from repro.core import LSVDConfig, LSVDVolume
from repro.core.block_store import BlockStore
from repro.core.ids import IDS, IdSource
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def _run(seed):
    """Create, churn (GC and checkpoints), snapshot, crash, recover,
    clone: every place an id is drawn.  Returns every byte left behind."""
    IDS.reseed(seed)
    store = InMemoryObjectStore()
    image, clone_image = DiskImage(4 * MiB), DiskImage(4 * MiB)
    config = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "a", 8 * MiB, image, config)
    rng = random.Random(3)
    for i in range(1500):
        vol.write(rng.randrange(8 * MiB // 4096) * 4096, bytes([i % 251 + 1]) * 4096)
        if i % 64 == 0:
            vol.flush()
    vol.snapshot("s")
    vol.drain()
    vol.write(0, b"x" * 4096)
    image.crash()
    vol = LSVDVolume.open(store, "a", image, config)
    vol.write(4096, b"y" * 4096)
    vol.flush()
    vol.drain()
    LSVDVolume.clone(store, "a", "b", clone_image, config, at_snapshot="s")
    objects = {name: store.get(name) for name in store.list("")}
    images = [i.read(0, i.size) for i in (image, clone_image)]
    for i in (image, clone_image):  # and what a crash that keeps no pending write leaves
        i.crash(random.Random(0), survive_probability=0.0)
        images.append(i.read(0, i.size))
    uuids = [BlockStore.read_super(store, name)["uuid"] for name in ("a", "b")]
    return objects, images, uuids


def test_same_seed_runs_leave_identical_images_and_objects():
    first, again = _run(5), _run(5)
    assert first == again
    objects, _images, uuids = first
    assert len(set(uuids)) == 2  # unique across the stores of one run
    assert _run(6)[0] != objects  # and derived from the seed


def test_ids_are_seed_then_counter():
    source = IdSource(seed=7)
    first, second = source.uuid(), source.uuid()
    assert first[:8] == second[:8] == (7).to_bytes(8, "little")
    assert first != second
    epochs = {source.epoch() for _ in range(100)}
    assert len(epochs) == 100 and 0 not in epochs
    source.reseed(7)
    assert source.uuid() == first
