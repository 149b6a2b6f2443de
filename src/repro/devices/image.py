"""Content plane: byte-faithful disk images with volatile write caches.

Every consistency and recovery experiment in the paper (§2.2, §3.3, §4.4
Table 4) hinges on what a real device guarantees: a write is durable only
after a subsequent flush (commit barrier) completes; at a crash the device
may have persisted **any subset** of the un-flushed writes, and the last
record may be torn (partially written).  :class:`DiskImage` implements
exactly those semantics so that LSVD's CRC/sequence-number log recovery and
bcache's lack of ordering can be exercised for real.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

#: bytes of un-flushed writes the device buffers before the oldest ones
#: drain to media on their own — the order of a real SSD's DRAM buffer.
#: "Any subset may have persisted" already allows this; without it a
#: flush-free read workload (every read-cache insert is a device write)
#: retains every buffer it ever wrote.
PENDING_BOUND = 64 << 20


@dataclass
class TornWrite:
    """Description of a write persisted only partially at crash time."""

    offset: int
    full_length: int
    kept_length: int


class DiskImage:
    """A fixed-size byte store with volatile-cache durability semantics.

    Reads always observe the newest data (the device cache serves reads),
    kept in one image; durability is an undo log of the bytes each
    un-flushed write overwrote, which :meth:`flush` drops and
    :meth:`crash` rolls back.
    """

    def __init__(self, size: int, name: str = "disk"):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.name = name
        self._data = bytearray(size)  # newest content (cache view)
        #: (offset, bytes it overwrote) per un-flushed write, oldest first;
        #: undoing them newest-first leaves the durable content
        self._undo: Deque[Tuple[int, bytearray]] = deque()
        self.pending_bytes = 0
        self.writes = 0
        self.reads = 0
        self.flushes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- I/O ---------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> None:
        """Buffer a write; durable only after :meth:`flush`."""
        end = offset + len(data)
        self._check_range(offset, len(data))
        self._undo.append((offset, self._data[offset:end]))  # one copy
        self._data[offset:end] = data
        self.pending_bytes += len(data)
        while self.pending_bytes > PENDING_BOUND:  # the oldest become durable
            self.pending_bytes -= len(self._undo.popleft()[1])
        self.writes += 1
        self.bytes_written += len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        self.reads += 1
        self.bytes_read += length
        return bytes(memoryview(self._data)[offset : offset + length])  # one copy

    def view(self) -> memoryview:
        """The newest content without a copy (what :meth:`read` copies
        from); a :meth:`crash` rewrites it in place, and it is stale after
        :meth:`lose`."""
        return memoryview(self._data)

    def flush(self) -> None:
        """Commit barrier: all buffered writes become durable."""
        self._drop_pending()
        self.flushes += 1

    @property
    def pending_writes(self) -> int:
        return len(self._undo)

    def _drop_pending(self) -> None:
        self._undo.clear()
        self.pending_bytes = 0

    # -- failure injection ---------------------------------------------
    def crash(
        self,
        rng: Optional[random.Random] = None,
        survive_probability: float = 0.5,
        allow_torn: bool = True,
    ) -> Optional[TornWrite]:
        """Simulate power loss: keep an arbitrary subset of pending writes.

        Each un-flushed write independently survives with
        ``survive_probability``; with ``allow_torn`` the final surviving
        write may itself be cut short, modelling a torn sector run.  After
        the call the image content equals the durable state.  Returns a
        :class:`TornWrite` describing the tear, if one happened.

        The log is undone newest-first: just before write *i* is undone
        the image holds the durable content plus writes 0..*i*, so a
        survivor's bytes are read in place, then replayed oldest-first.
        """
        if rng is None:
            # no seed given: derive one from the image's own history so a
            # replay of the same operation sequence crashes identically
            rng = random.Random(
                (self.writes << 24) ^ (self.flushes << 12) ^ len(self._undo)
            )
        torn: Optional[TornWrite] = None
        kept = [len(old) if rng.random() < survive_probability else None for _, old in self._undo]
        last = max((i for i, k in enumerate(kept) if k is not None), default=None)
        if last is not None and allow_torn and rng.random() < 0.5:
            off, old = self._undo[last]
            kept[last] = rng.randrange(0, len(old))
            if kept[last]:
                torn = TornWrite(off, len(old), kept[last])
        survivors = []
        for (off, old), keep in zip(reversed(self._undo), reversed(kept)):
            if keep:
                survivors.append((off, self._data[off : off + keep]))
            self._data[off : off + len(old)] = old
        for off, data in reversed(survivors):
            self._data[off : off + len(data)] = data
        self._drop_pending()
        return torn

    def lose(self) -> None:
        """Catastrophic device loss: all content gone (cache death, §4.4)."""
        self._data = bytearray(self.size)
        self._drop_pending()

    # -- helpers ---------------------------------------------------------
    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"I/O beyond {self.name} bounds: offset={offset} "
                f"length={length} size={self.size}"
            )
