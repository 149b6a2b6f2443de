"""Tests for the background scrubber."""

import random


from repro.core import LSVDConfig, LSVDVolume
from repro.core.scrub import Scrubber
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def make_volume():
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    rng = random.Random(1)
    for i in range(150):
        vol.write(rng.randrange(0, 1024) * 4096, bytes([i % 255 + 1]) * 4096)
    vol.drain()
    return store, vol


def test_clean_volume_scrubs_clean():
    store, vol = make_volume()
    scrubber = Scrubber(vol.bs)
    findings = scrubber.full_pass()
    assert findings == []
    assert scrubber.stats.objects_checked > 0
    assert scrubber.stats.bytes_verified > 0
    assert scrubber.stats.passes_completed == 1


def test_scrub_detects_bit_rot():
    store, vol = make_volume()
    names = [n for n in store.list("vd.") if n.rsplit(".", 1)[1].isdigit()]
    victim = names[len(names) // 2]
    blob = bytearray(store.get(victim))
    blob[len(blob) // 2] ^= 0x40
    store.put(victim, bytes(blob))
    findings = Scrubber(vol.bs).full_pass()
    assert findings
    assert any("CRC" in f.problem for f in findings)


def test_scrub_detects_missing_object():
    store, vol = make_volume()
    # remove a tracked object behind the volume's back
    tracked = sorted(
        s for s, i in vol.bs.omap.objects.items() if i.data_bytes > 0
    )
    from repro.core.log import object_name

    store.delete(object_name("vd", tracked[0]))
    findings = Scrubber(vol.bs).full_pass()
    assert any("missing" in f.problem for f in findings)


def test_scrub_empty_store_is_noop():
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=64 * 1024)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    scrubber = Scrubber(vol.bs)
    assert scrubber.full_pass() == []
    assert scrubber.stats.objects_checked == 0
