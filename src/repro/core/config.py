"""Tunable parameters of an LSVD volume.

Defaults follow the paper's evaluation setup (§4.1): 4-32 MiB write
batches, garbage collection between a 70 % start and 75 % stop utilisation
threshold, 4 KiB cache-log alignment, and a read cache occupying most of
the cache SSD with the write log taking ~20 %.
"""

from __future__ import annotations

from dataclasses import dataclass

SECTOR = 512
BLOCK = 4096

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


@dataclass
class LSVDConfig:
    """Configuration for one LSVD volume."""

    #: write batch size: a sealed batch becomes one backend object (§3.2,
    #: "e.g. 8 or 32 MB"; Table 5 simulations use 32 MiB).
    batch_size: int = 8 * MiB
    #: flush a non-empty batch after this much idle time (seconds of
    #: simulated time; the pure-logic volume flushes on drain() instead).
    batch_timeout: float = 0.5
    #: start garbage collection when live/total utilisation drops below
    #: this ratio (§3.5, 70 % in the paper's experiments).
    gc_low_watermark: float = 0.70
    #: stop cleaning once utilisation is back above this ratio (§4.6).
    gc_high_watermark: float = 0.75
    #: GC victims copied per cleaning round.
    gc_window: int = 8
    #: read/plug holes up to this many bytes when copying live data, to
    #: defragment the extent map (§4.6 "plug holes of 8 KB or less").
    defrag_hole_bytes: int = 0
    #: write a map checkpoint every N stream objects (bounds replay time).
    checkpoint_interval: int = 64
    #: fraction of the cache device used by the write log (§3.1: ~20 %).
    write_cache_fraction: float = 0.2
    #: read prefetch: fetch this many bytes around a missed extent and
    #: insert everything into the read cache (temporal locality, §3.2).
    prefetch_bytes: int = 128 * KiB
    #: data placement: ``"sepbit"`` segregates destage and GC-relocation
    #: writes into hot/warm/cold object streams by inferred invalidation
    #: time; ``"legacy"`` keeps the single-stream baseline.
    placement: str = "sepbit"
    #: GC victim selection: ``"cost_benefit"`` (age × utilisation,
    #: Rosenblum's cleaning score) or ``"greedy"`` (least utilised first).
    gc_policy: str = "cost_benefit"

    def __post_init__(self) -> None:
        if self.batch_size < BLOCK:
            raise ValueError("batch_size must be at least one block")
        if not 0.0 < self.gc_low_watermark <= self.gc_high_watermark <= 1.0:
            raise ValueError("gc watermarks must satisfy 0 < low <= high <= 1")
        if not 0.0 < self.write_cache_fraction < 1.0:
            raise ValueError("write_cache_fraction must be in (0, 1)")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.placement not in ("sepbit", "legacy"):
            raise ValueError("placement must be 'sepbit' or 'legacy'")
        if self.gc_policy not in ("cost_benefit", "greedy"):
            raise ValueError("gc_policy must be 'cost_benefit' or 'greedy'")
