"""Tests for the repro.fleet control plane (§4.5 at host scale):
registry CRUD + manifest persistence, per-tenant QoS wiring, and the
post-crash recovery sweep with per-volume crash consistency."""

import gc
import json
import weakref

import pytest

from repro.core import LSVDConfig
from repro.core.naming import stream_prefix
from repro.crash import HistoryRecorder, PrefixChecker
from repro.fleet import (
    MANIFEST_KEY,
    FleetError,
    FleetManager,
    QoSLimits,
)
from repro.obs import Registry
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=1000)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_fleet(store=None, **kw):
    store = store if store is not None else InMemoryObjectStore()
    return store, FleetManager(store, config=small_config(), **kw)


# -- registry CRUD + manifest --------------------------------------------------


def test_create_registers_and_persists_manifest():
    store, fleet = make_fleet()
    record = fleet.create("vd0", 4 * MiB, tenant="acme")
    assert record.name == "vd0" and record.tenant == "acme"
    assert store.exists(MANIFEST_KEY)
    doc = json.loads(store.get(MANIFEST_KEY).decode())
    assert [row["name"] for row in doc["vdisks"]] == ["vd0"]


def test_duplicate_create_and_unknown_lookups_raise():
    _, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="acme")
    with pytest.raises(FleetError):
        fleet.create("vd0", 4 * MiB, tenant="other")
    with pytest.raises(FleetError):
        fleet.record("nope")
    with pytest.raises(FleetError):
        fleet.attach("nope")


def test_attach_write_read_detach():
    _, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="acme")
    handle = fleet.attach("vd0")
    handle.volume.write(0, b"A" * 4096)
    assert handle.volume.read(0, 4096) == b"A" * 4096
    with pytest.raises(FleetError):
        fleet.attach("vd0")  # double attach
    handle.detach()
    assert fleet.obs.value("fleet.attached") == 0
    with pytest.raises(FleetError):
        handle.detach()  # no longer attached
    # reattach sees the data back (cache-lost mount, backend prefix)
    handle2 = fleet.attach("vd0")
    assert handle2.volume.read(0, 4096) == b"A" * 4096


def test_manifest_roundtrip_restores_limits():
    store, fleet = make_fleet()
    limits = QoSLimits(iops=500.0, bytes_per_s=8 * MiB, burst_ops=4)
    fleet.create("vd0", 4 * MiB, tenant="acme", limits=limits)
    fleet.create("vd1", 8 * MiB, tenant="bob")
    # a second manager over the same store sees the whole registry
    fleet2 = FleetManager(store, config=small_config())
    names = [r.name for r in fleet2.vdisks()]
    assert names == ["vd0", "vd1"]
    r0 = fleet2.record("vd0")
    assert r0.limits == limits
    assert fleet2.record("vd1").limits.unlimited


def test_delete_refuses_attached_then_removes_stream():
    store, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="acme")
    handle = fleet.attach("vd0")
    handle.volume.write(0, b"A" * 4096)
    with pytest.raises(FleetError):
        fleet.delete("vd0")
    handle.detach()
    assert fleet.delete("vd0") > 0
    assert store.list(stream_prefix("vd0")) == []
    assert fleet.vdisks() == []
    with pytest.raises(FleetError):
        fleet.delete("vd0")


def test_manifest_key_cannot_collide_with_volume_streams():
    # "fleet.manifest" has a non-digit suffix, so even a volume named
    # "fleet" cannot mint it as a stream object
    store, fleet = make_fleet()
    fleet.create("fleet", 4 * MiB, tenant="acme")
    handle = fleet.attach("fleet")
    handle.volume.write(0, b"A" * 4096)
    fleet.close()
    assert MANIFEST_KEY in store.list(stream_prefix("fleet"))
    fleet2 = FleetManager(store, config=small_config())
    assert [r.name for r in fleet2.vdisks()] == ["fleet"]
    assert fleet2.attach("fleet").volume.read(0, 4096) == b"A" * 4096


def test_older_manifest_rows_load_and_persist_without_cache_budget():
    # manifests written before the shared cache was removed carry a
    # per-row cache_budget; it is ignored on load and dropped on rewrite
    store, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="acme")
    doc = json.loads(store.get(MANIFEST_KEY).decode())
    doc["vdisks"][0]["cache_budget"] = 2 * MiB
    store.put(MANIFEST_KEY, json.dumps(doc, sort_keys=True).encode())
    fleet2 = FleetManager(store, config=small_config())
    fleet2.attach("vd0").volume.write(0, b"A" * 4096)
    fleet2.checkpoint()
    rows = json.loads(store.get(MANIFEST_KEY).decode())["vdisks"]
    assert [row["name"] for row in rows] == ["vd0"]
    assert "cache_budget" not in rows[0]


# -- QoS wiring ----------------------------------------------------------------


def test_attach_wires_core_admission_and_charges_tenant():
    clock = [0.0]
    _, fleet = make_fleet(clock=lambda: clock[0])
    fleet.create(
        "vd0", 4 * MiB, tenant="acme", limits=QoSLimits(iops=10.0, burst_ops=2)
    )
    handle = fleet.attach("vd0")
    assert handle.volume.qos is not None
    for i in range(8):  # burst of 2, then debt
        handle.volume.write(i * 4096, b"A" * 4096)
    assert fleet.obs.value("fleet.acme.admitted") >= 1
    assert fleet.obs.value("fleet.acme.throttled") >= 1
    assert fleet.obs.value("fleet.acme.bytes_admitted") == 8 * 4096


def test_unlimited_tenant_is_never_throttled():
    _, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="free")
    handle = fleet.attach("vd0")
    for i in range(16):
        handle.volume.write(i * 4096, b"A" * 4096)
    handle.volume.read(0, 4096)
    assert fleet.obs.value("fleet.free.throttled") == 0
    assert fleet.obs.value("fleet.free.admitted") == 17


def test_fleet_metrics_gauges_track_registry():
    _, fleet = make_fleet()
    fleet.create("vd0", 4 * MiB, tenant="a")
    fleet.create("vd1", 4 * MiB, tenant="b")
    handle = fleet.attach("vd0")
    assert fleet.obs.value("fleet.vdisks") == 2
    assert fleet.obs.value("fleet.attached") == 1
    handle.detach()
    assert fleet.obs.value("fleet.attached") == 0


def test_each_volume_counts_only_its_own_writes():
    _, fleet = make_fleet()
    fleet.create("a", 4 * MiB, tenant="t")
    fleet.create("b", 4 * MiB, tenant="t")
    a, b = fleet.attach("a"), fleet.attach("b")
    a.volume.write(0, b"A" * (96 * 1024))
    b.volume.write(0, b"B" * 4096)
    fleet.checkpoint()  # drains both: every written byte has entered a batch

    def counts(handle):
        vol = handle.volume
        return vol.bs.stats.client_bytes, vol.obs.value("volume.bytes_written")

    assert counts(a) == (96 * 1024, 96 * 1024)
    assert counts(b) == (4096, 4096)
    before = counts(a)
    b.detach()
    b = fleet.attach("b")  # restores b's checkpointed stats, and only b's
    assert counts(a) == before
    assert b.volume.bs.stats.client_bytes == 4096


def test_a_detached_volume_is_collectable():
    _, fleet = make_fleet()
    fleet.create("a", 4 * MiB, tenant="t")
    fleet.create("b", 4 * MiB, tenant="t")
    keep, gone = fleet.attach("a"), fleet.attach("b")
    gone.volume.write(0, b"B" * 4096)
    gone.detach()
    ref = weakref.ref(gone.volume)
    del gone
    gc.collect()
    assert ref() is None
    assert keep.volume.read(0, 4096) == bytes(4096)


# -- recovery sweep ------------------------------------------------------------


def test_recover_sweep_reattaches_every_registered_vdisk():
    store, fleet = make_fleet()
    for i in range(3):
        fleet.create(f"vd{i}", 4 * MiB, tenant=f"t{i}")
        handle = fleet.attach(f"vd{i}")
        handle.volume.write(0, bytes([i + 1]) * 4096)
    fleet.close()

    obs = Registry()
    fleet2 = FleetManager(store, config=small_config(), obs=obs)
    report = fleet2.recover()
    assert sorted(report) == ["vd0", "vd1", "vd2"]
    for i in range(3):
        entry = report[f"vd{i}"]
        assert entry["tenant"] == f"t{i}"
        assert entry["objects"] > 0
        assert fleet2._attached[f"vd{i}"].volume.read(0, 4096) == bytes([i + 1]) * 4096
    assert obs.value("fleet.recovery_sweeps") == 1
    assert obs.value("fleet.recovered_vdisks") == 3


def test_crash_mid_checkpoint_recovers_fleet_prefix_consistent():
    """Kill the host while a fleet-wide checkpoint's PUTs are in flight;
    the recovery sweep must bring back every vdisk as a prefix-consistent
    image of its write history (§3.3 per volume, fleet-wide)."""
    inner = InMemoryObjectStore()
    store = UnsettledObjectStore(inner)
    fleet = FleetManager(store, config=small_config())
    recorders = {}
    for i in range(3):
        fleet.create(f"vd{i}", 16 * MiB, tenant=f"t{i}")
    store.settle_all()  # creation is durable

    for i in range(3):
        handle = fleet.attach(f"vd{i}")
        vol = handle.volume
        recorders[f"vd{i}"] = HistoryRecorder(vol.write, vol.flush)
    store.settle_all()  # attach-time recovery churn is durable

    # a first durable round: everything written, flushed, and settled
    for name, rec in sorted(recorders.items()):
        for j in range(32):
            rec.write(j * 4096, 4096)
        rec.barrier()
    store.settle_all()

    # second round + fleet checkpoint, then crash with PUTs still in
    # flight: some volumes' batches land, others vanish mid-air
    for name, rec in sorted(recorders.items()):
        for j in range(32, 48):
            rec.write(j * 4096, 4096)
    fleet.checkpoint()
    handles = store.pending_handles()
    assert handles, "checkpoint must have PUTs in flight"
    for handle in handles[: len(handles) // 2]:  # half settle, half lost
        store.settle(handle)
    store.crash()

    # restart from the settled backend only; local caches are gone
    fleet2 = FleetManager(inner, config=small_config())
    report = fleet2.recover()
    assert sorted(report) == ["vd0", "vd1", "vd2"]
    for name, rec in sorted(recorders.items()):
        vol = fleet2._attached[name].volume
        verdict = PrefixChecker(rec).check(vol.read)
        assert verdict.ok_prefix, (name, verdict.problems[:3])
        # the first durable round can never be rolled back
        assert verdict.cut >= 32, (name, verdict.cut)
