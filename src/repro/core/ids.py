"""Seeded identities: volume uuids and write-cache epochs.

A uuid labels a volume's objects; an epoch tells a cache log's live
records from stale ones a crash left behind.  Both must be unique across
the stores of one run and, for replay, the same in every run: each is
``seed ‖ counter`` from the one per-process :data:`IDS`, which the CLI
reseeds from OS entropy where a person creates volumes.
"""

from __future__ import annotations

import hashlib
import itertools


class IdSource:
    def __init__(self, seed: int = 0):
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        """Restart the sequence: ids repeat those of any run with ``seed``."""
        self._prefix = (seed % 2**64).to_bytes(8, "little")
        self._counter = itertools.count(1)

    def uuid(self) -> bytes:
        """16 bytes: the seed, then the counter."""
        return self._prefix + next(self._counter).to_bytes(8, "little")

    def epoch(self) -> int:
        """A nonzero 64-bit id: the next uuid, hashed to fit."""
        digest = hashlib.blake2b(self.uuid(), digest_size=8).digest()
        return int.from_bytes(digest, "little") or 1


IDS = IdSource()  # the process's one id source
