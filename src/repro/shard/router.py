"""Deterministic placement of one volume's object stream across shards.

A sharded LSVD backend stripes the *objects* of one volume across N
independent object-store backends while keeping the single global
sequence numbering intact.  Correctness then rests on one property:
**every reader and writer must agree, forever, on which shard owns a
given name**.  This module is the only place that mapping is computed.

Placement is pluggable (:data:`LAYOUTS`):

* ``round-robin`` — object ``seq`` lands on shard ``(seq-1) % N``;
  consecutive objects hit distinct backends, so a sequential destage
  stream spreads perfectly and aggregate PUT bandwidth scales with N.
* ``hash`` — CRC-32 of the decimal sequence number; statistically
  uniform, and the placement of one object is independent of N-adjacent
  ones (useful when object sizes correlate with sequence position).

Both are pure functions of ``(name, n_shards)`` — no state, no RNG, no
``hash()`` (which is salted per-process by PYTHONHASHSEED and would
scatter a volume differently on every mount).

Non-stream names (the mutable ``<vol>.super``, foreign blobs) route by
CRC-32 of the full name, so they too have exactly one home.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Type, Union

from repro.core.naming import parse_object_name

#: width of the shard index in shard directory/cluster names
SHARD_DIGITS = 2


class PlacementLayout:
    """Strategy mapping a global sequence number to a shard index."""

    name = "?"

    def shard_of_seq(self, seq: int, n_shards: int) -> int:
        raise NotImplementedError


class RoundRobinLayout(PlacementLayout):
    """Stripe consecutive objects across consecutive shards.

    The stream starts at seq 1 (seq 0 is "nothing destaged yet"), so the
    first object lands on shard 0.
    """

    name = "round-robin"

    def shard_of_seq(self, seq: int, n_shards: int) -> int:
        return (seq - 1) % n_shards  # lint: disable=LSVD002 -- derives a shard index from a seq, never a new sequence number


class HashLayout(PlacementLayout):
    """Uniform pseudo-random placement via CRC-32 (deterministic across
    processes, unlike the salted builtin ``hash``)."""

    name = "hash"

    def shard_of_seq(self, seq: int, n_shards: int) -> int:
        return zlib.crc32(str(seq).encode()) % n_shards


#: registry of placement strategies, keyed by their manifest name
LAYOUTS: Dict[str, Type[PlacementLayout]] = {
    RoundRobinLayout.name: RoundRobinLayout,
    HashLayout.name: HashLayout,
}


class ShardRouter:
    """The single authority for name -> shard ownership.

    Stream objects (``<vol>.<seq:08d>``) route through the configured
    :class:`PlacementLayout` on their sequence number; everything else
    (superblocks, manifests) routes by CRC-32 of the name.  Routing is a
    pure function of the router's ``(n_shards, layout)`` configuration,
    which therefore must be persisted alongside the data (see the
    ``shard-layout.json`` manifest in :mod:`repro.shard.store`).
    """

    def __init__(
        self, n_shards: int, layout: Union[str, PlacementLayout] = "round-robin"
    ):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if isinstance(layout, str):
            try:
                layout = LAYOUTS[layout]()
            except KeyError:
                raise ValueError(
                    f"unknown layout {layout!r}; choose from {sorted(LAYOUTS)}"
                ) from None
        self.n_shards = n_shards
        self.layout = layout

    # -- routing ----------------------------------------------------------
    def shard_of_seq(self, seq: int) -> int:
        """Shard index owning stream sequence number ``seq``."""
        index = self.layout.shard_of_seq(seq, self.n_shards)
        if not 0 <= index < self.n_shards:
            raise ValueError(
                f"layout {self.layout.name!r} produced shard {index} "
                f"for seq {seq} (have {self.n_shards} shards)"
            )
        return index

    def shard_of_name(self, name: str) -> int:
        """Shard index owning object ``name`` (stream or not)."""
        try:
            _volume, seq = parse_object_name(name)
        except ValueError:
            return zlib.crc32(name.encode()) % self.n_shards
        return self.shard_of_seq(seq)

    # -- naming -----------------------------------------------------------
    @staticmethod
    def shard_name(index: int) -> str:
        """Canonical name of shard ``index`` (``shard-00`` ...)."""
        return f"shard-{index:0{SHARD_DIGITS}d}"

    def shard_names(self) -> List[str]:
        return [self.shard_name(i) for i in range(self.n_shards)]

    # -- persistence ------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Manifest form; :meth:`from_manifest` round-trips it."""
        return {"n_shards": self.n_shards, "layout": self.layout.name}

    @classmethod
    def from_manifest(cls, manifest: Dict[str, object]) -> "ShardRouter":
        return cls(
            n_shards=int(manifest["n_shards"]),  # type: ignore[arg-type]
            layout=str(manifest.get("layout", "round-robin")),
        )

    def __repr__(self) -> str:
        return f"ShardRouter(n_shards={self.n_shards}, layout={self.layout.name!r})"
