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
        self.puts += 1
        self.bytes_put += nbytes
        return _Request(self, key, 0, nbytes, _PUT).done

    def get_range(self, key: str, offset: int, nbytes: int) -> Event:
        """Ranged GET; fires when the data has arrived at the client."""
        self.gets += 1
        self.bytes_got += nbytes
        return _Request(self, key, offset, nbytes, _GET).done

    def delete(self, key: str) -> Event:
        self.deletes += 1
        return _Request(self, key, 0, 0, _DELETE).done

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


class _Request:
    """One PUT, GET or DELETE in flight: its steps run in turn, each from
    the event the last one returned (a record, not a process: DESIGN.md
    "Data plane pipeline"), the first from the boot event a process had."""

    __slots__ = ("store", "key", "offset", "nbytes", "done", "started", "steps")

    def __init__(self, store: SimulatedObjectStore, key: str, offset: int, nbytes: int, steps):
        self.store, self.key, self.offset, self.nbytes = store, key, offset, nbytes
        self.done = Event(store.sim)
        self.started = store.sim.now
        self.steps = iter(steps)
        store.sim.call_next(self._step, inline=False)

    def _step(self, _event: Optional[Event]) -> None:
        event = next(self.steps)(self)
        if event is not None:
            event.callbacks.append(self._step)

    def _finish(self, latency, durable: Optional[bool] = None) -> None:
        """Observe the latency and settle: a PUT's key is now ``durable``,
        a DELETE's no longer is."""
        if durable:
            self.store._keys[self.key] = self.nbytes
        elif durable is not None:
            self.store._keys.pop(self.key, None)
        latency.observe(self.store.sim.now - self.started)
        self.done.succeed()


#: each request kind's steps: NIC transfer, the gateway's software latency
#: and the layout's device I/O, the last one settling the request
_PUT = (
    lambda r: r.store.network.send(r.nbytes),
    lambda r: r.store.sim.timeout(r.store.request_latency),
    lambda r: r.store.layout.put(r.store.cluster, r.key, r.nbytes),
    lambda r: r._finish(r.store._put_latency, durable=True),
)
_GET = (
    lambda r: r.store.sim.timeout(r.store.request_latency),
    lambda r: r.store.layout.get_range(r.store.cluster, r.key, r.offset, r.nbytes),
    lambda r: r.store.network.receive(r.nbytes),
    lambda r: r._finish(r.store._get_latency),
)
_DELETE = (
    lambda r: r.store.sim.timeout(r.store.request_latency),
    lambda r: r.store.layout.delete(r.store.cluster, r.key),
    lambda r: r._finish(r.store._delete_latency, durable=False),
)
