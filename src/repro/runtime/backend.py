"""Timed S3 endpoint: network transfer + RGW latency + cluster device I/O.

Every LSVD backend operation crosses the client NIC, pays the object
gateway's software latency (~5.9 ms per request in the paper's Table 6),
and lands on the storage pool through the erasure-coded layout — which is
where the per-device write counts of Figures 12-14 come from.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.cluster import StorageCluster
from repro.cluster.layouts import ErasureCodedLayout
from repro.devices.network import NetworkLink
from repro.obs import Registry, bind_metrics, metric_field
from repro.sim.engine import Event, Simulator

#: wire size of one LIST response entry (name + size + etag, roughly what
#: an S3 ListObjectsV2 row costs on the wire)
LIST_ENTRY_BYTES = 64


class SimulatedObjectStore:
    """Timing facade for an S3-compatible store over a cluster."""

    # statistics (registry-backed; see repro.obs)
    puts = metric_field("backend.puts")
    gets = metric_field("backend.gets")
    deletes = metric_field("backend.deletes")
    lists = metric_field("backend.lists")
    bytes_put = metric_field("backend.bytes_put")
    bytes_got = metric_field("backend.bytes_got")

    def __init__(
        self,
        sim: Simulator,
        cluster: StorageCluster,
        network: NetworkLink,
        layout: Optional[ErasureCodedLayout] = None,
        request_latency: float = 5.9e-3,
        obs: Optional[Registry] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.network = network
        self.layout = layout or ErasureCodedLayout()
        self.request_latency = request_latency
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        # durable key set, maintained at settlement time so a LIST issued
        # during recovery only surfaces objects whose PUT completed
        self._keys: Dict[str, int] = {}
        # latency histograms measured with the simulated clock; stamp the
        # trace from the same clock so events stay deterministic (LSVD003)
        self._put_latency = self.obs.histogram("backend.put_latency_s")
        self._get_latency = self.obs.histogram("backend.get_latency_s")
        self._delete_latency = self.obs.histogram("backend.delete_latency_s")
        self._list_latency = self.obs.histogram("backend.list_latency_s")
        if self.obs.trace.clock is None:
            self.obs.trace.clock = lambda: self.sim.now

    def put(self, key: str, nbytes: int) -> Event:
        """PUT of ``nbytes``; the event fires when the object is durable."""
        done = self.sim.event()
        self.puts += 1
        self.bytes_put += nbytes
        started = self.sim.now

        def run():
            yield self.network.send(nbytes)
            yield self.sim.timeout(self.request_latency)
            yield self.layout.put(self.cluster, key, nbytes)
            self._keys[key] = nbytes
            self._put_latency.observe(self.sim.now - started)
            done.succeed()

        self.sim.process(run(), name=f"put:{key}")
        return done

    def get_range(self, key: str, offset: int, nbytes: int) -> Event:
        """Ranged GET; fires when the data has arrived at the client."""
        done = self.sim.event()
        self.gets += 1
        self.bytes_got += nbytes
        started = self.sim.now

        def run():
            yield self.sim.timeout(self.request_latency)
            yield self.layout.get_range(self.cluster, key, offset, nbytes)
            yield self.network.receive(nbytes)
            self._get_latency.observe(self.sim.now - started)
            done.succeed()

        self.sim.process(run(), name=f"get:{key}")
        return done

    def delete(self, key: str) -> Event:
        done = self.sim.event()
        self.deletes += 1
        started = self.sim.now

        def run():
            yield self.sim.timeout(self.request_latency)
            yield self.layout.delete(self.cluster, key)
            self._keys.pop(key, None)
            self._delete_latency.observe(self.sim.now - started)
            done.succeed()

        self.sim.process(run(), name=f"del:{key}")
        return done

    def list_keys(self, prefix: str = "") -> Event:
        """LIST the durable keys under ``prefix``; value = sorted names.

        One request-latency round trip plus the response body crossing
        the NIC.
        """
        done = self.sim.event()
        self.lists += 1
        started = self.sim.now

        def run():
            yield self.sim.timeout(self.request_latency)
            names = sorted(k for k in self._keys if k.startswith(prefix))
            yield self.network.receive(len(names) * LIST_ENTRY_BYTES)
            self._list_latency.observe(self.sim.now - started)
            done.succeed(names)

        self.sim.process(run(), name=f"list:{prefix or '*'}")
        return done
