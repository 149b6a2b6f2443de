"""Network link model: propagation latency plus shared bandwidth.

The paper's testbed uses 10 Gbit ethernet between client and backend
(Table 1); §4.7 measures ~6 ms for an S3 range GET, dominated by RGW
software latency, which we fold into the per-request latency of the object
store rather than the link itself.
"""

from __future__ import annotations

from repro.sim.engine import Event, Simulator
from repro.sim.resources import TokenBucket


class NetworkLink:
    """A duplex link with independent per-direction bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = 10e9 / 8,  # 10 Gbit/s in bytes/sec
        latency: float = 100e-6,
        name: str = "net",
    ):
        self.sim = sim
        self.name = name
        self.latency = latency
        self._tx = TokenBucket(sim, bandwidth)
        self._rx = TokenBucket(sim, bandwidth)

    def send(self, nbytes: int) -> Event:
        """Transfer client->server; event fires when fully received."""
        return self._transfer(self._tx, nbytes)

    def receive(self, nbytes: int) -> Event:
        """Transfer server->client; event fires when fully received."""
        return self._transfer(self._rx, nbytes)

    def _transfer(self, bucket: TokenBucket, nbytes: int) -> Event:
        done = Event(self.sim)
        latency = self.latency
        # bandwidth slot, then propagation: two events, no process
        bucket.consume(nbytes).callbacks.append(  # type: ignore[union-attr]
            lambda _slot: done.succeed_after(latency)
        )
        return done

    @property
    def bytes_sent(self) -> int:
        return self._tx.total_bytes

    @property
    def bytes_received(self) -> int:
        return self._rx.total_bytes
