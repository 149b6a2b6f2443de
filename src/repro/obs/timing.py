"""Deterministic request-timing wrapper for pure-logic object stores.

The timed runtime measures real (simulated) backend latency with
``sim.now``; the pure-logic core has no clock at all, so the CLI's
``repro stats`` could never report a backend p99.  :class:`TimedStore`
closes that gap: it wraps any :class:`~repro.objstore.s3.ObjectStore`
and charges each request an explicit, deterministic cost —

    latency = request_latency + bytes / bandwidth_bps

(defaults match the paper's Table 6 RGW figure of ~5.9 ms per request)
— advancing an internal virtual clock and recording the per-operation
latencies into ``backend.put_latency_s`` / ``backend.get_latency_s`` /
``backend.delete_latency_s`` histograms in the shared registry.  Wiring
``registry.trace.clock = timed.now`` stamps trace events from the same
virtual clock, keeping identical runs byte-identical (LSVD003).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.metrics import Registry
from repro.obs.spans import NULL_SPAN
from repro.objstore.s3 import ObjectStore


class TimedStore(ObjectStore):
    """Cost-model timing facade over an inner object store."""

    #: span handles passed to :meth:`put` cover the cost-model charge and
    #: are forwarded to span-aware inner stores (sharded facade)
    accepts_span = True

    def __init__(
        self,
        inner: ObjectStore,
        obs: Optional[Registry] = None,
        request_latency: float = 5.9e-3,
        bandwidth_bps: float = 100e6,
    ):
        self.inner = inner
        self.obs = obs if obs is not None else Registry()
        self.request_latency = request_latency
        self.bandwidth_bps = bandwidth_bps
        #: virtual seconds accumulated across all requests
        self.clock = 0.0
        self._put_latency = self.obs.histogram("backend.put_latency_s")
        self._get_latency = self.obs.histogram("backend.get_latency_s")
        self._delete_latency = self.obs.histogram("backend.delete_latency_s")

    def now(self) -> float:
        """Current virtual time (usable as a trace clock)."""
        return self.clock

    def _charge(self, nbytes: int) -> float:
        cost = self.request_latency + nbytes / self.bandwidth_bps
        self.clock += cost
        return cost

    # -- writes ----------------------------------------------------------
    def put(self, name: str, data: bytes, span=NULL_SPAN):
        if getattr(self.inner, "accepts_span", False):
            result = self.inner.put(name, data, span=span)
        else:
            result = self.inner.put(name, data)
        self._put_latency.observe(self._charge(len(data)))
        return result

    def delete(self, name: str) -> None:
        self.inner.delete(name)
        self._delete_latency.observe(self._charge(0))

    # -- reads -----------------------------------------------------------
    def get(self, name: str) -> bytes:
        data = self.inner.get(name)
        self._get_latency.observe(self._charge(len(data)))
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        data = self.inner.get_range(name, offset, length)
        self._get_latency.observe(self._charge(len(data)))
        return data

    def list(self, prefix: str = "") -> List[str]:
        names = self.inner.list(prefix)
        self._charge(0)
        return names

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def size(self, name: str) -> int:
        return self.inner.size(name)
