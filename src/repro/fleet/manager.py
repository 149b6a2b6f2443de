"""repro.fleet — the multi-tenant volume fleet control plane.

The paper's economics only work at fleet scale (§4.5): one host serves
many virtual disks over one object-store account, sharing the local SSD
cache and the network between tenants.  :class:`FleetManager` is that
control plane for the pure stack:

* a **registry** of virtual disks (create / attach / detach / delete)
  persisted in a single fleet manifest object, so a restarted host knows
  every disk it is responsible for;
* **per-tenant QoS** — each attach wires a
  :class:`~repro.fleet.qos.CoreAdmission` onto the volume so every
  write/read charges the tenant's token buckets;
* a **recovery sweep** — after a crash, :meth:`recover` replays crash
  recovery for every registered disk, restoring the whole fleet to its
  backend-consistent prefix.

The manifest is a *mutable* key (like the per-volume superblock) and is
rewritten atomically on every registry change; it carries no data-plane
state, so losing an in-flight manifest PUT at a crash only forgets
not-yet-acknowledged create/delete operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import LSVDConfig
from repro.core.naming import stream_prefix
from repro.core.volume import LSVDVolume
from repro.devices.image import DiskImage
from repro.fleet.qos import CoreAdmission, QoSLimits, ThrottleSet
from repro.obs import Registry

#: the fleet registry key ("manifest" is not a digit suffix, so it can
#: never collide with any volume's stream-object grammar)
MANIFEST_KEY = "fleet.manifest"

#: per-volume local cache size used by create/attach/recover
CACHE_BYTES = 8 * 1024 * 1024


class FleetError(Exception):
    """Registry misuse: unknown vdisk, duplicate name, attach conflicts."""


@dataclass
class VDiskRecord:
    """One registered virtual disk (the manifest row)."""

    name: str
    tenant: str
    size: int
    limits: QoSLimits = field(default_factory=QoSLimits)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "size": self.size,
            "limits": {
                "iops": self.limits.iops,
                "bytes_per_s": self.limits.bytes_per_s,
                "burst_ops": self.limits.burst_ops,
                "burst_bytes": self.limits.burst_bytes,
            },
        }

    @classmethod
    def from_json(cls, row: dict) -> "VDiskRecord":
        lim = row.get("limits", {})
        return cls(
            name=row["name"],
            tenant=row["tenant"],
            size=int(row["size"]),
            limits=QoSLimits(
                iops=float(lim.get("iops", 0.0)),
                bytes_per_s=float(lim.get("bytes_per_s", 0.0)),
                burst_ops=float(lim.get("burst_ops", 0.0)),
                burst_bytes=float(lim.get("burst_bytes", 0.0)),
            ),
        )


class AttachedVDisk:
    """A live attachment: the volume plus its fleet wiring.

    Detaching closes the volume (drain + checkpoint) and returns the slot
    to the registry; the tenant's throttle stays (throttles are per
    tenant, not per disk).
    """

    def __init__(self, manager: "FleetManager", record: VDiskRecord, volume: LSVDVolume):
        self.manager = manager
        self.record = record
        self.volume = volume

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def tenant(self) -> str:
        return self.record.tenant

    def detach(self) -> None:
        self.manager._detach(self)


class FleetManager:
    """Registry + QoS control plane for one host's fleet."""

    def __init__(
        self,
        store,
        config: Optional[LSVDConfig] = None,
        obs: Optional[Registry] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.store = store
        self.config = config or LSVDConfig()
        self.obs = obs if obs is not None else Registry()
        self.throttles = ThrottleSet(self.obs)
        self._clock = clock
        self._vdisks: Dict[str, VDiskRecord] = {}
        self._attached: Dict[str, AttachedVDisk] = {}
        self._g_vdisks = self.obs.gauge("fleet.vdisks")
        self._g_attached = self.obs.gauge("fleet.attached")
        self._m_sweeps = self.obs.counter("fleet.recovery_sweeps")
        self._m_recovered = self.obs.counter("fleet.recovered_vdisks")
        self._load_manifest()

    # ------------------------------------------------------------------
    # manifest persistence
    # ------------------------------------------------------------------
    def _load_manifest(self) -> None:
        if not self.store.exists(MANIFEST_KEY):
            return
        doc = json.loads(self.store.get(MANIFEST_KEY).decode("utf-8"))
        for row in doc.get("vdisks", []):
            record = VDiskRecord.from_json(row)
            self._vdisks[record.name] = record
        self._g_vdisks.set(len(self._vdisks))

    def _persist_manifest(self) -> None:
        doc = {
            "version": 1,
            "vdisks": [
                self._vdisks[name].to_json() for name in sorted(self._vdisks)
            ],
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        # mutable registry key, rewritten whole — same discipline as the
        # per-volume superblock (reviewed settlement-allow entry)
        self.store.put(MANIFEST_KEY, blob)
        self._g_vdisks.set(len(self._vdisks))

    # ------------------------------------------------------------------
    # registry operations
    # ------------------------------------------------------------------
    def vdisks(self) -> List[VDiskRecord]:
        return [self._vdisks[name] for name in sorted(self._vdisks)]

    def record(self, name: str) -> VDiskRecord:
        try:
            return self._vdisks[name]
        except KeyError:
            raise FleetError(f"unknown vdisk {name!r}") from None

    def create(
        self,
        name: str,
        size: int,
        tenant: str,
        limits: Optional[QoSLimits] = None,
    ) -> VDiskRecord:
        """Create + register a new virtual disk (left detached)."""
        if name in self._vdisks:
            raise FleetError(f"vdisk {name!r} already registered")
        volume = LSVDVolume.create(
            self.store,
            name,
            size,
            DiskImage(CACHE_BYTES, name=f"cache-{name}"),
            self.config,
            obs=Registry(),  # one registry per volume instance
        )
        volume.close()
        record = VDiskRecord(
            name=name,
            tenant=tenant,
            size=size,
            limits=limits if limits is not None else QoSLimits(),
        )
        self._vdisks[name] = record
        self._persist_manifest()
        self.obs.trace.emit("fleet_create", vdisk=name, tenant=tenant, size=size)
        return record

    def attach(
        self, name: str, cache_image: Optional[DiskImage] = None
    ) -> AttachedVDisk:
        """Mount a registered disk with full fleet wiring.

        A fresh (or absent) cache image means crash recovery runs in
        cache-lost mode and the volume comes back as the backend's
        consistent prefix — the fleet does not persist local cache
        devices across attachments.
        """
        record = self.record(name)
        if name in self._attached:
            raise FleetError(f"vdisk {name!r} is already attached")
        if cache_image is None:
            cache_image = DiskImage(CACHE_BYTES, name=f"cache-{name}")
            cache_lost = True
        else:
            cache_lost = False
        volume = LSVDVolume.open(
            self.store,
            name,
            cache_image,
            self.config,
            cache_lost=cache_lost,
            obs=Registry(),  # one registry per volume instance
        )
        throttle = self.throttles.get(record.tenant, record.limits)
        volume.qos = CoreAdmission(throttle, clock=self._clock)
        handle = AttachedVDisk(self, record, volume)
        self._attached[name] = handle
        self._g_attached.set(len(self._attached))
        self.obs.trace.emit("fleet_attach", vdisk=name, tenant=record.tenant)
        return handle

    def _detach(self, handle: AttachedVDisk) -> None:
        if self._attached.get(handle.name) is not handle:
            raise FleetError(f"vdisk {handle.name!r} is not attached")
        handle.volume.close()
        del self._attached[handle.name]
        self._g_attached.set(len(self._attached))
        self.obs.trace.emit("fleet_detach", vdisk=handle.name)

    def delete(self, name: str) -> int:
        """Unregister ``name`` and delete its backend objects."""
        record = self.record(name)
        if name in self._attached:
            raise FleetError(f"vdisk {name!r} is attached; detach first")
        deleted = 0
        for key in list(self.store.list(stream_prefix(name))):
            self.store.delete(key)
            deleted += 1
        del self._vdisks[name]
        self._persist_manifest()
        self.obs.trace.emit(
            "fleet_delete", vdisk=name, tenant=record.tenant, objects=deleted
        )
        return deleted

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Drain + flush every attached volume, then persist the manifest."""
        for name in sorted(self._attached):
            vol = self._attached[name].volume
            vol.drain()
            vol.flush()
        self._persist_manifest()

    def close(self) -> None:
        for name in sorted(self._attached):
            self._attached[name].detach()
        self._persist_manifest()

    def recover(self) -> Dict[str, dict]:
        """Post-crash sweep: replay recovery for every registered disk.

        Mounts each disk in cache-lost mode (local caches do not survive
        the host), forcing full §3.3 backend-prefix recovery, and leaves
        it attached with its QoS wiring restored.
        Returns a per-disk report for the caller to verify against.
        """
        self._m_sweeps.inc()
        report: Dict[str, dict] = {}
        span = self.obs.spans.root("fleet_recover", vdisks=len(self._vdisks))
        for name in sorted(self._vdisks):
            if name in self._attached:
                continue
            stage = span.begin("recover_vdisk", vdisk=name)
            handle = self.attach(name)
            objects = len(self.store.list(stream_prefix(name)))
            report[name] = {
                "tenant": handle.tenant,
                "size": handle.volume.size,
                "objects": objects,
            }
            self._m_recovered.inc()
            stage.end()
        span.end(recovered=len(report))
        return report
