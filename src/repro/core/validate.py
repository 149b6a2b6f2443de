"""Cross-structure invariant checking for a live volume.

Used by the test suite (and available to operators) to assert that the
many redundant structures — the three extent maps, the per-object live
accounting, the cache log geometry — agree with each other.  Every
invariant here is something recovery depends on; a violation means a
bookkeeping bug even if reads still happen to return correct data.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import List

from repro.core.config import BLOCK
from repro.core.volume import LSVDVolume


@dataclass
class InvariantReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def check_volume_invariants(vol: LSVDVolume) -> InvariantReport:
    """Verify structural invariants; returns a report of violations."""
    report = InvariantReport()
    _check_object_accounting(vol, report)
    _check_write_cache_geometry(vol, report)
    _check_map_bounds(vol, report)
    _check_read_cache_log(vol, report)
    return report


def _check_object_accounting(vol: LSVDVolume, report: InvariantReport) -> None:
    """Per-object live bytes must equal the map extents pointing at it."""
    live_by_object = defaultdict(int)
    for ext in vol.bs.omap.map:
        live_by_object[ext.target] += ext.length
        info = vol.bs.omap.objects.get(ext.target)
        if info is None:
            report.add(
                f"map references object {ext.target} with no accounting entry"
            )
            continue
        if ext.offset + ext.length > info.data_bytes:
            report.add(
                f"extent at lba {ext.lba} overruns object {ext.target} "
                f"({ext.offset}+{ext.length} > {info.data_bytes})"
            )
    for seq, info in vol.bs.omap.objects.items():
        expected = live_by_object.get(seq, 0)
        if info.live_bytes != expected:
            report.add(
                f"object {seq}: accounting says {info.live_bytes} live "
                f"bytes, the map says {expected}"
            )
    total_live = sum(live_by_object.values())
    if total_live > vol.size:
        report.add(f"total live {total_live} exceeds volume size {vol.size}")


def _check_write_cache_geometry(vol: LSVDVolume, report: InvariantReport) -> None:
    wc = vol.wc
    if wc.tail_virt > wc.head_virt:
        report.add(f"cache tail {wc.tail_virt} ahead of head {wc.head_virt}")
    if wc.head_virt - wc.tail_virt > wc.log_size:
        report.add("cache log holds more than its capacity")
    prev_seq = 0
    for ref in wc.records:
        if ref.seq <= prev_seq:
            report.add(f"cache record seqs not increasing at {ref.seq}")
        prev_seq = ref.seq
        if not (wc.tail_virt <= ref.virt < wc.head_virt):
            report.add(
                f"record {ref.seq} at virt {ref.virt} outside "
                f"[{wc.tail_virt}, {wc.head_virt})"
            )
    # a live entry (log position at or past the tail) lies inside one live
    # record's payload, in [tail_virt, head_virt)
    payloads = [
        (min(pos for _lba, _n, pos in ref.extents), min(ref.virt + ref.size, wc.head_virt))
        for ref in wc.records
        if ref.extents
    ]
    starts = [start for start, _end in payloads]
    for ext in wc.map:
        if ext.offset >= wc.tail_virt:
            index = bisect_right(starts, ext.offset) - 1
            if index < 0 or ext.offset + ext.length > payloads[index][1]:
                report.add(
                    f"write-cache map entry at lba {ext.lba} lies outside "
                    f"the payload of every live record"
                )
        if ext.lba + ext.length > vol.size:
            report.add(f"write-cache map entry beyond volume end: {ext.lba}")


def _check_map_bounds(vol: LSVDVolume, report: InvariantReport) -> None:
    for ext in vol.rc.map:
        if ext.lba + ext.length > vol.size:
            report.add(f"read-cache map entry beyond volume end: {ext.lba}")
        lo = vol.rc.data_offset
        hi = vol.rc.data_offset + vol.rc.data_size
        if not (lo <= ext.offset and ext.offset + ext.length <= hi):
            report.add(
                f"read-cache map entry at lba {ext.lba} points outside "
                f"the cache ring"
            )
    for ext in vol.bs.omap.map:
        if ext.lba + ext.length > vol.size:
            report.add(f"object map entry beyond volume end: {ext.lba}")


def _check_read_cache_log(vol: LSVDVolume, report: InvariantReport) -> None:
    """The FIFO insertion log must cover the read-cache map (log ⊇ map).

    Eviction finds what the ring pointer overwrites through the log alone,
    so a mapped byte no record names would outlive its data and be served
    stale.  Records may be stale, never missing.  A map extent may span
    several records (the map coalesces neighbours the log keeps apart).
    """
    rc = vol.rc
    # read-ahead bookkeeping rides on the same ring: one flag per block,
    # none ahead of a pointer still on its first lap, window within bounds
    flags, limit = rc._prefetched, vol.config.prefetch_bytes
    if len(flags) != rc.data_size // BLOCK:
        report.add(f"read-ahead flag array holds {len(flags)} blocks")
    if rc._ring_virt < rc.data_size and any(flags[rc._ring_virt // BLOCK :]):
        report.add("read-ahead flag set on a ring block never written")
    if rc._window and not min(BLOCK, limit) <= rc._window <= limit:
        report.add(f"read-ahead window {rc._window} outside [{BLOCK}, {limit}]")
    prev_end = rc._ring_virt - rc.data_size
    by_phys = []
    for virt, length, lba in rc._log:
        if virt < prev_end or length <= 0:
            report.add(
                f"read-cache log record at virt {virt} overlaps its "
                f"predecessor or lies more than one ring behind the pointer"
            )
        prev_end = virt + length
        by_phys.append((rc._phys(virt), length, lba))
    if prev_end > rc._ring_virt:
        report.add(f"read-cache log runs past the ring pointer {rc._ring_virt}")
    by_phys.sort()
    starts = [phys for phys, _length, _lba in by_phys]
    for ext in rc.map:
        cursor, end = ext.offset, ext.offset + ext.length
        while cursor < end:
            index = bisect_right(starts, cursor) - 1
            if index < 0:
                break
            phys, length, lba = by_phys[index]
            # the record must map these bytes to the same address the map does
            if cursor >= phys + length or lba + (cursor - phys) != ext.lba + (
                cursor - ext.offset
            ):
                break
            cursor = phys + length
        if cursor < end:
            report.add(
                f"read-cache map entry at lba {ext.lba} is not covered by "
                f"the insertion log at cache offset {cursor}"
            )
