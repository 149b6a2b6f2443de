"""Common workload types and block-trace statistics.

A workload is an iterable of :class:`IOOp` — reads, writes, and commit
barriers ("flush"), optionally with client think time.  The statistics
helper reproduces the measurements of the paper's Table 3: writes and
bytes between successive commit barriers, and the mean write size *after
merging consecutive sequential writes* (the footnote-starred column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List

READ = "read"
WRITE = "write"
FLUSH = "flush"


@dataclass(frozen=True)
class IOOp:
    """One block-level operation."""

    kind: str  # read | write | flush
    offset: int = 0
    length: int = 0


@dataclass
class TraceStats:
    """Block-level behaviour between commit barriers (Table 3)."""

    writes: int = 0
    reads: int = 0
    barriers: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    merged_writes: int = 0  # after merging consecutive sequential writes

    @property
    def writes_between_syncs(self) -> float:
        return self.writes / self.barriers if self.barriers else float("inf")

    @property
    def bytes_between_syncs(self) -> float:
        return self.bytes_written / self.barriers if self.barriers else float("inf")

    @property
    def mean_write_size(self) -> float:
        """Mean write size after sequential merging (Table 3, starred)."""
        if self.merged_writes == 0:
            return 0.0
        return self.bytes_written / self.merged_writes


def collect_stats(ops: Iterable[IOOp]) -> TraceStats:
    """Compute Table 3-style statistics from an op stream."""
    stats = TraceStats()
    last_write_end = None
    for op in ops:
        if op.kind == WRITE:
            stats.writes += 1
            stats.bytes_written += op.length
            if op.offset != last_write_end:
                stats.merged_writes += 1
            last_write_end = op.offset + op.length
        elif op.kind == READ:
            stats.reads += 1
            stats.bytes_read += op.length
        elif op.kind == FLUSH:
            stats.barriers += 1
            last_write_end = None
    return stats


def take(ops: Iterator[IOOp], n: int) -> List[IOOp]:
    """Materialise the first ``n`` ops of a potentially endless stream."""
    out = []
    for op in ops:
        out.append(op)
        if len(out) >= n:
            break
    return out
