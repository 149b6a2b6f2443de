"""Feed a :class:`BlockStore` directly, the way the volume does.

Open batches hold references into the write cache's log and a seal reads
the bytes back from it, so a test that drives a block store without a
volume logs each write through a :class:`WriteCache` (attached to the
store on first use) and hands the record to ``BlockStore.add_write``.
"""

from typing import List, Tuple

from repro.core.batch import SealedBatch
from repro.core.block_store import BlockStore
from repro.core.write_cache import WriteCache
from repro.devices.image import DiskImage

#: cache image per store: room for the open batches of every test here
CACHE_BYTES = 16 << 20


def log_write(bs: BlockStore, lba: int, data: bytes) -> List[SealedBatch]:
    """Log one write and batch it; returns the batches ``add_write`` sealed."""
    return log_writev(bs, [(lba, data)])


def log_writev(bs: BlockStore, writes: List[Tuple[int, bytes]]) -> List[SealedBatch]:
    """Log ``writes`` as one cache record and batch it.

    Records the store has destaged are released first, as the volume's
    release frontier does once their objects settle, so the log never
    fills; record sequence numbers continue past the backend's mark.
    """
    cache = bs.cache
    if cache is None:
        cache = bs.cache = WriteCache(DiskImage(CACHE_BYTES, name="cache"))
        cache.format()
        cache.resume_after(bs.last_record_seq_destaged)
    cache.release_through(bs.last_record_seq_destaged)
    return bs.add_write(cache.append(writes))
