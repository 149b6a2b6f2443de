"""Temperature-aware data placement (SepBIT-style, §3.5 extension).

The greedy cleaner relocates whatever happens to share an object with
dead data; when hot (quickly overwritten) and cold (long-lived) blocks
are mixed into the same objects, every cleaning round copies long-lived
bytes that merely sat next to soon-to-die ones.  This module segregates
the outgoing object stream by *inferred invalidation time* (SepBIT,
PAPERS.md: *Separating Data via Block Invalidation Time Inference*):

* a block overwritten shortly after its previous write is **hot** — its
  next overwrite is probably imminent, so it should share an object with
  other soon-to-die data;
* a block whose observed lifetime exceeds the running mean is **cold**;
* first writes (no history) start **warm**;
* data that *survives* a GC round demonstrably lives longer than its
  object — relocation demotes it one class toward cold (the lazy
  reclamation idea of Lomet & Luo: cold classes are cleaned rarely and
  cheaply because they stay near-full).

Everything class-related lives here — the class constants, the
classifier state, the per-class victim ordering, and the relocation
splitter — and is consumed identically by the pure stack
(``core/block_store.py`` / ``core/gc.py``), the timed runtime
(``runtime/lsvd.py``) and the page-map simulator (``gcsim/simulator.py``),
so the fast simulator provably shares placement code with the full
stack.  The LSVD017 lint rule keeps it that way: class arithmetic and
classifier construction outside this module are flagged.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import BLOCK, LSVDConfig

#: temperature classes, hottest first; the numeric order is meaningful
#: (GC survivors are demoted by +1 toward cold) and is therefore owned
#: by this module alone.
TEMP_HOT = 0
TEMP_WARM = 1
TEMP_COLD = 2
NUM_TEMPS = 3
TEMP_NAMES: Tuple[str, ...] = ("hot", "warm", "cold")

#: (lba, length, temp) sub-piece produced by the relocation splitter
SplitPiece = Tuple[int, int, int]


class PlacementPolicy:
    """Interface + shared accounting for write/relocation classification.

    Both entry points are *stream*-driven and deterministic: feed two
    policies the same operation sequence and they produce the same class
    decisions (the differential test relies on this).
    """

    #: how many classes this policy emits (the store opens one batch per
    #: class); subclasses may narrow it
    num_temps: int = NUM_TEMPS

    def __init__(self, record: bool = False):
        #: per-class client bytes classified at destage
        self.write_bytes: List[int] = [0] * NUM_TEMPS
        #: per-class bytes classified at GC relocation
        self.reloc_bytes: List[int] = [0] * NUM_TEMPS
        #: optional decision trace (class per on_write call) for the
        #: gcsim-vs-full-stack differential test
        self.trace: Optional[List[int]] = [] if record else None

    # -- classification -------------------------------------------------
    def on_write(self, lba: int, length: int) -> int:
        """Classify one client write; returns its temperature class."""
        raise NotImplementedError

    def split_relocation(self, lba: int, length: int) -> List[SplitPiece]:
        """Classify a live piece being relocated by GC.

        Returns ``(lba, length, temp)`` sub-pieces covering the range,
        split wherever the class changes.  Survivor state is demoted as
        a side effect, so each byte must be passed exactly once per GC
        round.  The split is per-page, so the result is independent of
        how the caller partitioned the relocated range into pieces —
        the property that lets the byte-granular stack and the
        page-granular simulator agree.
        """
        raise NotImplementedError

    # -- shared accounting ----------------------------------------------
    def _note_write(self, temp: int, length: int) -> None:
        self.write_bytes[temp] += length
        if self.trace is not None:
            self.trace.append(temp)

    def _note_reloc(self, temp: int, length: int) -> None:
        self.reloc_bytes[temp] += length


class SingleClassPolicy(PlacementPolicy):
    """The pre-placement baseline: every write lands in one stream.

    Selectable via ``LSVDConfig.placement = "legacy"``.  It stays in the
    production path because it is the paper's own configuration: with
    greedy victim selection it is what Table 5 and Figure 15 evaluate,
    and the wa_smoke benchmark runs it side by side with SepBIT to gate
    the write-amplification reduction.
    """

    num_temps = 1

    def on_write(self, lba: int, length: int) -> int:
        self._note_write(TEMP_HOT, length)
        return TEMP_HOT

    def split_relocation(self, lba: int, length: int) -> List[SplitPiece]:
        self._note_reloc(TEMP_HOT, length)
        return [(lba, length, TEMP_HOT)]


class SepBitPolicy(PlacementPolicy):
    """Invalidation-time inference over per-page last-write metadata.

    State is kept per 4 KiB page in plain dicts: ``_page_last`` maps a
    page to the logical clock (client bytes written so far) of its last
    write, ``_page_temp`` to its current class.  On an overwrite the
    previous version's *lifetime* becomes known; writes whose overwritten
    predecessor lived no longer than the running mean lifetime are hot,
    the rest cold.  The threshold adapts to the workload with no tunable
    (SepBIT §4's observation that the mean tracks the hot/cold knee
    closely enough).

    Placement metadata is soft state: it is rebuilt from the write
    stream after recovery and is deliberately not checkpointed — losing
    it costs placement quality, never correctness.
    """

    def __init__(self, block: int = BLOCK, record: bool = False):
        super().__init__(record=record)
        self.block = block
        self._clock = 0  # logical time: client bytes classified so far
        self._page_last: Dict[int, int] = {}
        self._page_temp: Dict[int, int] = {}
        self._life_sum = 0
        self._life_n = 0

    def on_write(self, lba: int, length: int) -> int:
        first = lba // self.block
        last = (lba + length - 1) // self.block
        prev = self._page_last.get(first)
        if prev is None:
            temp = TEMP_WARM
        else:
            life = self._clock - prev
            self._life_sum += life
            self._life_n += 1
            # hot iff the invalidated version's lifetime was at most the
            # running mean (integer cross-multiply keeps it exact)
            temp = TEMP_HOT if life * self._life_n <= self._life_sum else TEMP_COLD
        for page in range(first, last + 1):
            self._page_last[page] = self._clock
            self._page_temp[page] = temp
        self._clock += length
        self._note_write(temp, length)
        return temp

    def split_relocation(self, lba: int, length: int) -> List[SplitPiece]:
        out: List[SplitPiece] = []
        end = lba + length
        cursor = lba
        while cursor < end:
            page = cursor // self.block
            piece_end = min(end, (page + 1) * self.block)
            # survivors demonstrably outlived their object: cool one step
            temp = min(self._page_temp.get(page, TEMP_WARM) + 1, TEMP_COLD)
            self._page_temp[page] = temp
            if out and out[-1][2] == temp and out[-1][0] + out[-1][1] == cursor:
                prev_lba, prev_len, _t = out[-1]
                out[-1] = (prev_lba, prev_len + (piece_end - cursor), temp)
            else:
                out.append((cursor, piece_end - cursor, temp))
            self._note_reloc(temp, piece_end - cursor)
            cursor = piece_end
        return out


def make_policy(
    config: "Optional[LSVDConfig | str]" = None, record: bool = False
) -> PlacementPolicy:
    """The one blessed constructor: build the policy a config (or a bare
    policy name) asks for."""
    if isinstance(config, str):
        name = config
    else:
        name = config.placement if config is not None else "sepbit"
    if name == "legacy":
        return SingleClassPolicy(record=record)
    if name == "sepbit":
        return SepBitPolicy(record=record)
    raise ValueError(f"unknown placement policy {name!r}")


# ---------------------------------------------------------------------------
# victim selection (shared by core/gc.py and gcsim/simulator.py)
# ---------------------------------------------------------------------------


def select_victims(
    candidates: Sequence[Tuple[int, int, int]],
    *,
    policy: str,
    window: int,
    high_watermark: float,
) -> List[int]:
    """Order cleaning candidates and take one round's victims.

    ``candidates`` are ``(seq, live_bytes, total_bytes)`` rows for every
    cleanable object (total > 0).  Two orderings:

    * ``"greedy"`` — least utilisation first (Rosenblum & Ousterhout),
      ties broken oldest-first;
    * ``"cost_benefit"`` — highest ``(1 - u) * age / (1 + u)`` first:
      benefit (space freed, weighted by how long the object has been
      stable) over cost (read + rewrite of the live fraction).  Age is
      measured in object sequence numbers *relative to the newest
      candidate*, so the score is identical whether sequence numbers
      started at 0 (the simulator) or after a checkpoint (the store).

    Either way, objects at or above the stop watermark are never worth
    cleaning: copying their almost-entirely-live data cannot raise
    overall utilisation.
    """
    pool = [
        (seq, live, total)
        for seq, live, total in candidates
        if total > 0 and live / total < high_watermark
    ]
    if not pool:
        return []
    if policy == "greedy":
        pool.sort(key=lambda row: (row[1] / row[2], row[0]))
    elif policy == "cost_benefit":
        newest = max(row[0] for row in pool)

        def score(row: Tuple[int, int, int]) -> float:
            birth, live, total = row  # object seq doubles as a birth stamp
            u = live / total
            age = newest - birth + 1
            return (1.0 - u) * age / (1.0 + u)

        pool.sort(key=lambda row: (-score(row), row[0]))
    else:
        raise ValueError(f"unknown gc policy {policy!r}")
    return [seq for seq, _live, _total in pool[:window]]


# ---------------------------------------------------------------------------
# relocation planning (shared by core/gc.py and gcsim/simulator.py)
# ---------------------------------------------------------------------------


def relocation_runs(
    victims: Sequence[int],
    live_runs: Callable[[int], Iterable[Tuple[int, ...]]],
    mapped_runs: Callable[[int, int], Iterable[Tuple[int, int, int]]],
    hole_bytes: int,
) -> Tuple[List[Tuple[int, int, int]], int]:
    """One cleaning round's read schedule: what to copy out of ``victims``.

    ``live_runs(victim)`` yields the victim's live runs as tuples that
    start ``(lba, length)``; the result lists them as ``(lba, length,
    src)`` in ascending-LBA order.  With ``hole_bytes`` > 0 (§4.6 defragmentation) a gap of at
    most that many bytes between two consecutive runs is copied too, so
    the pieces merge into one extent — but only when *all* of it is
    mapped (``mapped_runs(lba, length)`` yields the ``(lba, length,
    owner)`` runs currently mapped inside the gap): plugging part of a
    gap costs the copy and merges nothing.  Returns ``(runs,
    plugged_bytes)``.
    """
    runs = sorted(
        (run[0], run[1], victim) for victim in victims for run in live_runs(victim)
    )
    if hole_bytes <= 0:
        return runs, 0
    out: List[Tuple[int, int, int]] = []
    plugged = 0
    for run in runs:
        if out:
            gap_start = out[-1][0] + out[-1][1]
            gap = run[0] - gap_start
            if 0 < gap <= hole_bytes:
                fill = list(mapped_runs(gap_start, gap))
                if sum(length for _lba, length, _owner in fill) == gap:
                    out.extend(fill)
                    plugged += gap
        out.append(run)
    return out, plugged



def plan_relocation(
    pieces: Iterable[Tuple[int, int, int, object]],
    policy: PlacementPolicy,
    batch_bytes: int,
) -> Iterator[Tuple[int, List[Tuple[int, int, int, object]]]]:
    """Route live pieces through the classifier into per-class chunks.

    ``pieces`` are ``(lba, length, src_seq, payload)`` in ascending-LBA
    order (``payload`` is the piece's data in the real stack, anything —
    e.g. ``None`` — in the simulator; sub-piece payloads are sliced when
    the payload supports it).  Yields ``(temp, chunk)`` relocation
    objects: a class's chunk is cut as soon as it reaches ``batch_bytes``
    and partial chunks are flushed coldest-last at the end, so the
    object stream produced from a given piece sequence is deterministic
    and identical across the byte-granular and page-granular engines.
    """
    chunks: Dict[int, List[Tuple[int, int, int, object]]] = {}
    sizes: Dict[int, int] = {}
    for lba, length, src_seq, payload in pieces:
        for sub_lba, sub_len, temp in policy.split_relocation(lba, length):
            if sub_lba == lba and sub_len == length:
                sub_payload = payload
            elif payload is None:
                sub_payload = None
            else:
                start = sub_lba - lba
                sub_payload = payload[start : start + sub_len]  # type: ignore[index]
            chunks.setdefault(temp, []).append((sub_lba, sub_len, src_seq, sub_payload))
            sizes[temp] = sizes.get(temp, 0) + sub_len
            if sizes[temp] >= batch_bytes:
                yield temp, chunks.pop(temp)
                del sizes[temp]
    for temp in sorted(chunks):
        if chunks[temp]:
            yield temp, chunks[temp]


__all__ = [
    "NUM_TEMPS",
    "TEMP_COLD",
    "TEMP_HOT",
    "TEMP_NAMES",
    "TEMP_WARM",
    "PlacementPolicy",
    "SepBitPolicy",
    "SingleClassPolicy",
    "make_policy",
    "plan_relocation",
    "relocation_runs",
    "select_victims",
]
