"""repro.shard: stripe one volume's object stream across N backends.

The stream stays a single global sequence; only *placement* is sharded.
:class:`ShardRouter` owns the name -> shard mapping,
:class:`ShardedObjectStore` fans the ObjectStore
interface out across the shards so the rest of the stack is oblivious.
"""

from repro.shard.router import (
    LAYOUTS,
    HashLayout,
    PlacementLayout,
    RoundRobinLayout,
    ShardRouter,
)
from repro.shard.store import (
    MANIFEST_NAME,
    ShardedObjectStore,
    open_directory_store,
    sharded_directory_store,
)

__all__ = [
    "LAYOUTS",
    "MANIFEST_NAME",
    "HashLayout",
    "PlacementLayout",
    "RoundRobinLayout",
    "ShardRouter",
    "ShardedObjectStore",
    "open_directory_store",
    "sharded_directory_store",
]
