"""Sharded timed backend: N independent S3 endpoints behind one router.

Each shard is its own :class:`~repro.runtime.backend.SimulatedObjectStore`
over its own backend cluster, so PUTs routed to different shards queue on
*different* device pools — aggregate backend throughput scales with the
shard count until the client NIC (shared, as on a real host) saturates.
The paper's single-backend stack (§4) is the ``n_shards=1`` special case.

All shards share one :class:`~repro.obs.Registry`, so the ``backend.*``
metric family (counts, byte totals, latency histograms) automatically
aggregates across shards, while the ``shard.*`` family added here keeps
the per-shard breakdown.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import StorageCluster
from repro.devices.network import NetworkLink
from repro.obs import Registry, metric_field
from repro.runtime.backend import SimulatedObjectStore
from repro.shard.router import ShardRouter
from repro.shard.store import count_shard_op
from repro.sim.engine import Event, Simulator


class ShardedSimulatedBackend:
    """Routes the timed ObjectStore interface across N shard endpoints.

    Drop-in for :class:`SimulatedObjectStore` wherever the runtime holds
    a backend (``LSVDRuntime`` destage workers, GC, read-cache misses):
    same ``put``/``get_range``/``delete`` signatures, same Event results.
    """

    # aggregate counters — the shards share this registry, so these read
    # the sum over all shards with no extra bookkeeping
    puts = metric_field("backend.puts")
    gets = metric_field("backend.gets")
    deletes = metric_field("backend.deletes")
    lists = metric_field("backend.lists")
    bytes_put = metric_field("backend.bytes_put")
    bytes_got = metric_field("backend.bytes_got")

    def __init__(
        self,
        backends: Sequence[SimulatedObjectStore],
        router: Optional[ShardRouter] = None,
        obs: Optional[Registry] = None,
    ):
        if not backends:
            raise ValueError("need at least one shard backend")
        self.backends: List[SimulatedObjectStore] = list(backends)
        self.router = router if router is not None else ShardRouter(len(backends))
        if self.router.n_shards != len(self.backends):
            raise ValueError(
                f"router expects {self.router.n_shards} shards, "
                f"got {len(self.backends)}"
            )
        self.sim = self.backends[0].sim
        self.obs = obs if obs is not None else self.backends[0].obs

    @property
    def n_shards(self) -> int:
        return len(self.backends)

    def shard_of(self, key: str) -> int:
        return self.router.shard_of_name(key)

    # -- the timed ObjectStore interface ----------------------------------
    def put(self, key: str, nbytes: int) -> Event:
        index = self.router.shard_of_name(key)
        count_shard_op(self.obs, index, self.n_shards, "puts", nbytes)
        return self.backends[index].put(key, nbytes)

    def get_range(self, key: str, offset: int, nbytes: int) -> Event:
        index = self.router.shard_of_name(key)
        count_shard_op(self.obs, index, self.n_shards, "gets")
        return self.backends[index].get_range(key, offset, nbytes)

    def delete(self, key: str) -> Event:
        index = self.router.shard_of_name(key)
        count_shard_op(self.obs, index, self.n_shards, "deletes")
        return self.backends[index].delete(key)

    def list_keys(self, prefix: str = "") -> Event:
        """Scatter-gather LIST across every shard; value = sorted names.

        The per-shard LISTs are all in flight at once and the merge fires
        when the slowest shard answers — total latency ~= max over
        shards, not their sum.
        """
        done = self.sim.event()
        for index in range(self.n_shards):
            count_shard_op(self.obs, index, self.n_shards, "lists")

        def gather():
            events = [b.list_keys(prefix) for b in self.backends]
            yield self.sim.all_of(events)
            done.succeed(sorted(name for ev in events for name in ev.value))

        self.sim.process(gather(), name=f"list-fan:{prefix or '*'}")
        return done


def make_sharded_backend(
    sim: Simulator,
    network: NetworkLink,
    cluster_factory: Callable[[Simulator], StorageCluster],
    n_shards: int,
    layout: str = "round-robin",
    obs: Optional[Registry] = None,
    request_latency: float = 5.9e-3,
) -> ShardedSimulatedBackend:
    """Build N shard endpoints, each over its own fresh cluster.

    The ``network`` link is shared (one client NIC); the clusters are
    independent, which is the whole point — that is where the aggregate
    write bandwidth comes from.
    """
    registry = obs if obs is not None else Registry()
    backends = [
        SimulatedObjectStore(
            sim,
            cluster_factory(sim),
            network,
            request_latency=request_latency,
            obs=registry,
        )
        for _ in range(n_shards)
    ]
    return ShardedSimulatedBackend(
        backends, ShardRouter(n_shards, layout), obs=registry
    )
