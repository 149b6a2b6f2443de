"""Crash-point enumeration over the pure stack (DESIGN.md "Consistency model").

One seeded op list (write, writev, trim, barrier, drain, settle one PUT,
crash and remount) runs once against an :class:`LSVDVolume` whose devices
are counting shims: every image write, image flush, PUT issue, PUT settle
and DELETE is a numbered event.  At each event k a *copy* of the device
state — the cache image's durable bytes plus its pending journal, each
shard's settled objects, the PUTs in flight — is crashed and recovered,
with the cache kept (a seeded subset of the pending writes survives, the
last one maybe torn) and with the cache lost; when PUTs are in flight,
both again with a seeded subset of them landed.  Every recovery must
hold a prefix of the write history (every committed write too when the
cache is kept), pass :func:`check_volume_invariants`, and split its
occupancy exactly by class.  The write in flight at k is in the history,
issued but not acknowledged.  Crashing a copy in line costs one recovery
per (k, mode); re-running the ops up to each k would cost O(k) more.

``run_cell(cell, seed)`` enumerates every event and returns how many
there were; the first failing crash point raises :class:`CrashPointFailure`
naming the cell, seed, k, mode and first problem, with the pytest command
that replays it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core import LSVDConfig, LSVDVolume
from repro.core.errors import CacheFullError
from repro.core.ids import IDS
from repro.core.naming import super_name
from repro.core.validate import check_volume_invariants
from repro.crash import PrefixChecker, decode_stamp, stamp_data
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore
from repro.shard import ShardedObjectStore, ShardRouter

PAGE = 4096
SECTOR = 512
GARBLED = b"\xff" * SECTOR
MiB = 1 << 20
PAGES = 64  # a 256 KiB volume
HOT = 12  # pages most writes land on, so objects die and GC runs
OPS = 110  # ops per run: 220-440 device events over seeds 1-80
CACHE_BYTES = 1 * MiB  # a 68 KiB cache log, which wraps

REPRODUCE = (
    "CRASH_ENUM_SEEDS={seed} PYTHONPATH=src python -m pytest "
    "'tests/test_crash_points.py::test_every_crash_point_recovers_a_prefix[{cell}]'"
)


@dataclass(frozen=True)
class Cell:
    placement: str
    #: 1: one store whose PUTs settle as they issue; more: a sharded store
    #: whose every PUT stays in flight until an op settles it
    shards: int

    def config(self) -> LSVDConfig:
        greedy = self.placement == "legacy"  # the paper's own pairing
        return LSVDConfig(
            batch_size=16 * 1024,
            checkpoint_interval=4,
            placement=self.placement,
            gc_policy="greedy" if greedy else "cost_benefit",
        )


CELLS = {
    "legacy-1sync": Cell("legacy", 1),
    "sepbit-1sync": Cell("sepbit", 1),
    "legacy-4unsettled": Cell("legacy", 4),
    "sepbit-4unsettled": Cell("sepbit", 4),
}


class CrashPointFailure(AssertionError):
    pass


class _Reached(Exception):
    """The run passed the last event it was asked to enumerate."""


class Write(NamedTuple):
    write_id: int
    offset: int
    length: int


# -- counting shims ------------------------------------------------------------


class _Events:
    def __init__(self) -> None:
        self.k = 0
        self.kind = ""
        self.hook = None

    def __call__(self, kind: str) -> None:
        self.k += 1
        self.kind = kind
        if self.hook is not None:
            self.hook()


class CountingImage(DiskImage):
    def __init__(self, size: int, events: _Events):
        super().__init__(size, name="cache")
        self.events = events

    def write(self, offset: int, data: bytes) -> None:
        super().write(offset, data)
        self.events("image write")

    def flush(self) -> None:
        super().flush()
        self.events("image flush")

    def crashed_copy(self, rng: random.Random) -> DiskImage:
        copy = DiskImage(self.size, name="cache")
        copy._data = bytearray(self._data)
        copy._undo = deque(self._undo)  # its entries are never written to
        copy.crash(rng=rng, survive_probability=rng.random(), allow_torn=True)
        return copy


class CountingStore(InMemoryObjectStore):
    """A store whose PUT issues and settles in one event."""

    def __init__(self, events: _Events):
        super().__init__()
        self.events = events

    def put(self, name: str, data: bytes) -> None:
        super().put(name, data)
        self.events("PUT")

    def delete(self, name: str) -> None:
        super().delete(name)
        self.events("DELETE")


class CountingShard(UnsettledObjectStore):
    def __init__(self, events: _Events):
        super().__init__(InMemoryObjectStore())
        self.events = events
        self.issued_at: Dict[int, int] = {}  # handle -> event number of its issue

    def put(self, name: str, data: bytes) -> int:
        handle = super().put(name, data)
        self.issued_at[handle] = self.events.k
        self.events("PUT issue")
        return handle

    def settle(self, handle: int) -> None:
        super().settle(handle)
        self.events("PUT settle")

    def delete(self, name: str) -> None:
        super().delete(name)
        self.events("DELETE")


# -- ops ------------------------------------------------------------------------


def make_ops(rng: random.Random, n: int) -> List[tuple]:
    def extent() -> Tuple[int, int]:
        page = rng.randrange(HOT) if rng.random() < 0.7 else rng.randrange(PAGES)
        return page, min(rng.choice((1, 1, 1, 2, 3)), PAGES - page)

    ops: List[tuple] = []
    for _ in range(n):
        r = rng.random()
        if r < 0.45:
            ops.append(("write", [extent()]))
        elif r < 0.55:
            ops.append(("writev", [extent() for _ in range(rng.randint(2, 3))]))
        elif r < 0.60:
            ops.append(("trim", extent()))
        elif r < 0.73:
            ops.append(("barrier",))
        elif r < 0.77:
            ops.append(("drain",))
        elif r < 0.95:
            ops.append(("settle", rng.random()))
        else:
            ops.append(("remount", rng.random()))
    return ops


# -- the enumerator ----------------------------------------------------------------


class CrashPointRun:
    def __init__(self, cell_name: str, seed: int, upto: Optional[int] = None, cache_kept=True):
        self.cell_name, self.seed, self.upto = cell_name, seed, upto
        self.kept_modes = (True, False) if cache_kept else (False,)
        self.cell = CELLS[cell_name]
        self.cfg = self.cell.config()
        #: a crash copy is read once and dropped: it fetches no read-ahead
        self.copy_cfg = replace(self.cfg, prefetch_bytes=PAGE)
        self.events = _Events()
        self.image = CountingImage(CACHE_BYTES, self.events)
        self.shards: List[CountingShard] = []
        if self.cell.shards > 1:
            self.shards = [CountingShard(self.events) for _ in range(self.cell.shards)]
            self.store = ShardedObjectStore(self.shards, ShardRouter(self.cell.shards))
        else:
            self.store = CountingStore(self.events)
        # what PrefixChecker reads: writes as issued, and the barrier mark.
        # Every write is whole pages, so the checker sees each page as one
        # 512-byte sector (its "sector N" is reported as page N)
        self.history: List[Write] = []
        self.barrier_after = 0
        self.next_id = 1
        self.touched: set = set()  # pages any write or trim reached
        #: trimmed page -> first write id its last trim did not discard.  A
        #: trim is volatile, yet it drops the page from later seals, so until
        #: a write from then on is in the cut, the page may read anything
        self.trims: Dict[int, int] = {}

    # -- driving --------------------------------------------------------------
    def run(self) -> int:
        saved = IDS._prefix, IDS._counter
        IDS.reseed(self.seed)
        try:
            self.vol = LSVDVolume.create(self.store, "vd", PAGES * PAGE, self.image, self.cfg)
            if self.shards:
                self.store.settle_all()
            self.events.k = 0
            self.events.hook = self.crash_here
            for op in make_ops(random.Random(self.seed), OPS):
                try:
                    self.apply(op)
                except (CrashPointFailure, _Reached):
                    raise
                except Exception as exc:
                    self.fail("running volume", f"{op[0]} raised {exc!r}")
        except _Reached:
            pass
        finally:
            IDS._prefix, IDS._counter = saved
        return self.events.k

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind in ("write", "writev"):
            write_id, self.next_id = self.next_id, self.next_id + 1
            writes = [(page * PAGE, stamp_data(write_id, n * PAGE)) for page, n in op[1]]
            for page, n in op[1]:
                self.history.append(Write(write_id, page * SECTOR, n * SECTOR))
                self.touched.update(range(page, page + n))
            while True:  # a full cache with PUTs in flight: settle the oldest, retry
                try:
                    if kind == "write":
                        self.vol.write(*writes[0])
                    else:
                        self.vol.writev(writes)
                    return
                except CacheFullError:
                    pending = self.pending()
                    if not pending:
                        raise
                    self.settle(pending[0])
        elif kind == "trim":
            page, n = op[1]
            self.vol.trim(page * PAGE, n * PAGE)
            self.touched.update(range(page, page + n))
            self.trims.update(dict.fromkeys(range(page, page + n), self.next_id))
        elif kind == "barrier":
            self.vol.flush()
            self.barrier_after = self.history[-1].write_id if self.history else 0
        elif kind == "drain":
            self.vol.drain()
        elif kind == "settle":
            pending = self.pending()
            if pending:
                self.settle(pending[int(op[1] * len(pending))])
        else:
            self.remount(random.Random(f"{self.seed}:remount:{op[1]}"))

    def pending(self) -> List[Tuple[int, int]]:
        """In-flight PUT handles, oldest issue first."""
        return sorted(
            self.store.pending_handles() if self.shards else [],
            key=lambda h: self.shards[h[0]].issued_at[h[1]],
        )

    def settle(self, handle: Tuple[int, int]) -> None:
        name = self.shards[handle[0]]._pending[handle[1]].name
        self.store.settle(handle)
        # the volume does not track superblock PUTs: they settle store-side
        if name != super_name("vd"):
            self.vol.settle_put(handle)

    def remount(self, rng: random.Random) -> None:
        """The running client crashes (a seeded subset of its in-flight
        PUTs landing first) with its cache kept, and mounts again."""
        for handle in self.pending():
            if rng.random() < 0.5:
                self.store.settle(handle)
        if self.shards:
            self.store.crash()
        self.image.crash(rng=rng, survive_probability=rng.random(), allow_torn=True)
        self.vol = LSVDVolume.open(self.store, "vd", self.image, self.cfg)
        verdict, problem = self.check(self.vol, require_committed=True)
        if problem:
            self.fail("remount with the cache kept", problem)
        # the writes past the cut are rolled back for good: none may reappear
        self.history = [w for w in self.history if w.write_id <= verdict.cut]
        self.barrier_after = min(self.barrier_after, verdict.cut)

    # -- crashing a copy ------------------------------------------------------
    def crash_here(self) -> None:
        k = self.events.k
        if self.upto is not None and k > self.upto:
            raise _Reached()
        rng = random.Random(f"{self.seed}:{k}")
        if self.shards:
            settled = [s.inner._objects for s in self.shards]
            flying = [(p.name, p.data) for s in self.shards for p in s._pending.values()]
        else:
            settled, flying = [self.store._objects], []
        landings = [("", [])]
        if flying:
            landed = [put for put in flying if rng.random() < 0.5]
            landings.append((f", {len(landed)} of {len(flying)} in-flight PUTs landed", landed))
        for landing, puts in landings:
            for kept in self.kept_modes:
                mode = ("cache kept" if kept else "cache lost") + landing
                image = self.image.crashed_copy(rng) if kept else DiskImage(CACHE_BYTES)
                try:
                    store = self.mount_copy(settled, puts)
                    vol = LSVDVolume.open(store, "vd", image, self.copy_cfg, cache_lost=not kept)
                    vol._insert_read_cache = _no_insert  # the copy is read once, then dropped
                    problem = self.check(vol, require_committed=kept)[1]
                except Exception as exc:
                    problem = f"recovery raised {exc!r}"
                if problem:
                    self.fail(mode, problem)

    @staticmethod
    def mount_copy(settled: List[Dict[str, bytes]], landed: List[Tuple[str, bytes]]):
        """One store holding every shard's objects: recovery sees the union
        of the shards' listings either way, and one store is cheaper."""
        store = InMemoryObjectStore()
        for objects in settled:
            store._objects.update(objects)
        store._objects.update(landed)
        return store

    # -- checking ---------------------------------------------------------------
    def check(self, vol: LSVDVolume, require_committed: bool):
        verdict = PrefixChecker(self).check(self.reader(vol), require_committed)
        if verdict.problems:
            return verdict, verdict.problems[0].replace("sector", "page")
        report = check_volume_invariants(vol)
        if not report.ok:
            return verdict, report.violations[0]
        by_class = vol.bs.occupancy_by_class().values()
        summed = (sum(live for live, _ in by_class), sum(total for _, total in by_class))
        if summed != vol.bs.occupancy():
            return verdict, f"occupancy by class sums to {summed}, not {vol.bs.occupancy()}"
        return verdict, None

    def reader(self, vol: LSVDVolume):
        """Read the touched span in one call and serve each page as the
        one sector the checker sees: its first, or garbage when the page is
        not that sector throughout (a stamp repeats it, as zeros do)."""
        first, end = min(self.touched, default=0), max(self.touched, default=-1) + 1
        blob = vol.read(first * PAGE, (end - first) * PAGE)
        sectors: Dict[int, bytes] = {}
        for page in self.touched:
            data = blob[(page - first) * PAGE : (page + 1 - first) * PAGE]
            sectors[page] = data[:SECTOR] if data == data[:SECTOR] * (PAGE // SECTOR) else GARBLED
        if self.trims:
            cut = max(decode_stamp(sector) or 0 for sector in sectors.values())
            # past the cut, a write whose every page a later trim discarded
            # leaves no trace: the cut may run on over it
            discarded: Dict[int, bool] = {}
            for w in self.history:
                if w.write_id > cut:
                    gone = all(self.trims.get(p, 0) > w.write_id for p in _pages(w))
                    discarded[w.write_id] = discarded.get(w.write_id, True) and gone
            for write_id, gone in discarded.items():
                if not gone:
                    break
                cut = write_id
            rewritten = {
                p for w in self.history if w.write_id <= cut
                for p in _pages(w) if self.trims.get(p, cut + 1) <= w.write_id
            }
            for page in self.trims.keys() - rewritten:
                sectors[page] = self.expected(page, cut)
        return lambda offset, length: sectors[offset // SECTOR]

    def expected(self, page: int, cut: int) -> bytes:
        for w in reversed(self.history):
            if w.write_id <= cut and page in _pages(w):
                return stamp_data(w.write_id, SECTOR)
        return bytes(SECTOR)

    def fail(self, mode: str, problem: str) -> None:
        raise CrashPointFailure(
            f"cell {self.cell_name}, seed {self.seed}, k={self.events.k} "
            f"({self.events.kind}), {mode}: {problem}\n"
            f"reproduce: {REPRODUCE.format(seed=self.seed, cell=self.cell_name)}"
        )


def _no_insert(*args, **kwargs) -> None:
    pass


def _pages(w: Write) -> range:
    return range(w.offset // SECTOR, (w.offset + w.length) // SECTOR)


def run_cell(cell: str, seed: int, upto: Optional[int] = None, cache_kept=True) -> int:
    """Enumerate every crash point (through event ``upto``; with the
    cache lost only unless ``cache_kept``) of one run."""
    return CrashPointRun(cell, seed, upto, cache_kept).run()
