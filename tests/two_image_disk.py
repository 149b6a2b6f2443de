"""The cache device as it was before its durability became an undo log:
two full images (``_data``, the newest content, and ``_durable``, what a
crash keeps) and a redo list of every un-flushed write's new bytes.  A
flush copies the redo list into ``_durable``; a crash copies the
surviving writes into it and then the whole of it back into ``_data``.

Kept only as the reference the undo-log :class:`repro.devices.image.DiskImage`
is held to, op by op (``tests/test_devices.py``).  It reads
``PENDING_BOUND`` from that module, so one patch bounds both.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Tuple

from repro.devices import image
from repro.devices.image import TornWrite


class TwoImageDisk:
    """The two-image device with a redo list of pending writes."""

    def __init__(self, size: int, name: str = "disk"):
        self.size = size
        self.name = name
        self._data = bytearray(size)  # newest content (cache view)
        self._durable = bytearray(size)  # content guaranteed after crash
        self._pending: Deque[Tuple[int, bytes]] = deque()  # not yet durable
        self.pending_bytes = 0
        self.writes = 0
        self.reads = 0
        self.flushes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        self._data[offset : offset + len(data)] = data
        self._pending.append((offset, bytes(data)))
        self.pending_bytes += len(data)
        while self.pending_bytes > image.PENDING_BOUND:
            old_offset, old = self._pending.popleft()
            self._durable[old_offset : old_offset + len(old)] = old
            self.pending_bytes -= len(old)
        self.writes += 1
        self.bytes_written += len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        self.reads += 1
        self.bytes_read += length
        return bytes(self._data[offset : offset + length])

    def flush(self) -> None:
        for offset, data in self._pending:
            self._durable[offset : offset + len(data)] = data
        self._drop_pending()
        self.flushes += 1

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    def _drop_pending(self) -> None:
        self._pending.clear()
        self.pending_bytes = 0

    def crash(
        self,
        rng: Optional[random.Random] = None,
        survive_probability: float = 0.5,
        allow_torn: bool = True,
    ) -> Optional[TornWrite]:
        if rng is None:
            rng = random.Random(
                (self.writes << 24) ^ (self.flushes << 12) ^ len(self._pending)
            )
        torn: Optional[TornWrite] = None
        survivors = [
            (off, data)
            for off, data in self._pending
            if rng.random() < survive_probability
        ]
        if survivors and allow_torn and rng.random() < 0.5:
            off, data = survivors[-1]
            keep = rng.randrange(0, len(data))
            if keep == 0:
                survivors.pop()
            else:
                survivors[-1] = (off, data[:keep])
                torn = TornWrite(off, len(data), keep)
        for off, data in survivors:
            self._durable[off : off + len(data)] = data
        self._drop_pending()
        self._data = bytearray(self._durable)
        return torn

    def lose(self) -> None:
        self._data = bytearray(self.size)
        self._durable = bytearray(self.size)
        self._drop_pending()

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"I/O beyond {self.name} bounds: offset={offset} "
                f"length={length} size={self.size}"
            )
