"""Timed multi-tenant fleet: many LSVD runtimes over shared hardware.

The timed counterpart of :class:`~repro.fleet.manager.FleetManager`: one
simulated host (CPU + cache SSD + network) and one sharded backend serve
many :class:`~repro.runtime.lsvd.LSVDRuntime` virtual disks, each tagged
with its tenant and admission-controlled by that tenant's
:class:`~repro.fleet.qos.TenantThrottle`.  Throttle delays are *served*
here — the runtime sleeps the token-bucket debt on the simulated clock
before an I/O touches the shared CPU/SSD/backend — so noisy-neighbour
experiments measure real isolation, not bookkeeping.

Each vdisk gets a private metrics registry (the ``lsvd.*`` name space is
per-stack), while tenant throttle metrics (``fleet.<tenant>.*``) land in
the fleet-wide registry passed to the constructor.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import LSVDConfig
from repro.fleet.qos import QoSLimits, ThrottleSet
from repro.obs import Registry
from repro.runtime.lsvd import LSVDRuntime
from repro.runtime.machine import ClientMachine
from repro.runtime.params import LSVDParams
from repro.sim.engine import Simulator


class FleetRuntime:
    """A host's worth of tenanted virtual disks under the simulator."""

    def __init__(
        self,
        sim: Simulator,
        machine: ClientMachine,
        backend,
        obs: Optional[Registry] = None,
        config: Optional[LSVDConfig] = None,
        params: Optional[LSVDParams] = None,
    ):
        self.sim = sim
        self.machine = machine
        self.backend = backend
        self.obs = obs if obs is not None else Registry()
        self.config = config
        self.params = params
        self.throttles = ThrottleSet(self.obs)
        self._vdisks: Dict[str, LSVDRuntime] = {}
        self._tenant_of: Dict[str, str] = {}
        self._g_vdisks = self.obs.gauge("fleet.vdisks")

    # ------------------------------------------------------------------
    def add_vdisk(
        self,
        name: str,
        tenant: str,
        volume_size: int,
        cache_size: int,
        limits: Optional[QoSLimits] = None,
        read_hit_rate: float = 1.0,
        gc_enabled: bool = True,
        params: Optional[LSVDParams] = None,
    ) -> LSVDRuntime:
        """Create a tenanted virtual disk on the shared hardware."""
        if name in self._vdisks:
            raise ValueError(f"vdisk {name!r} already exists")
        throttle = self.throttles.get(
            tenant, limits if limits is not None else QoSLimits()
        )
        runtime = LSVDRuntime(
            self.sim,
            self.machine,
            self.backend,
            volume_size=volume_size,
            cache_size=cache_size,
            config=self.config,
            params=params if params is not None else self.params,
            name=name,
            read_hit_rate=read_hit_rate,
            gc_enabled=gc_enabled,
            obs=Registry(),  # lsvd.* names are per-stack
            tenant=tenant,
            qos=throttle if not throttle.limits.unlimited else None,
        )
        self._vdisks[name] = runtime
        self._tenant_of[name] = tenant
        self._g_vdisks.set(len(self._vdisks))
        return runtime

    # ------------------------------------------------------------------
    def vdisk(self, name: str) -> LSVDRuntime:
        return self._vdisks[name]

    def vdisks(self) -> List[LSVDRuntime]:
        return [self._vdisks[name] for name in sorted(self._vdisks)]

    def tenant_of(self, name: str) -> str:
        return self._tenant_of[name]

    def tenants(self) -> List[str]:
        return self.throttles.tenants()

    def __len__(self) -> int:
        return len(self._vdisks)
