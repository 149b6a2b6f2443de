"""Randomised fault injection across the whole stack.

Hypothesis drives LSVD volumes through interleaved writes, barriers,
destages, PUT-settlement reorderings, crashes (cache and/or in-flight
PUTs), and recoveries — and after every recovery the prefix-consistency
checker must accept the result.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LSVDConfig, LSVDVolume
from repro.crash import HistoryRecorder, PrefixChecker
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore
from repro.shard import ShardedObjectStore, ShardRouter

MiB = 1 << 20
VOLUME = 8 * MiB
PAGES = VOLUME // 4096


def build(unsettled: bool, n_shards: int):
    """One volume on a sharded store; optionally unsettled.

    Returns ``(settled_view, store, image, cfg, vol)``: ``store`` is what
    the volume writes through, ``settled_view`` sees only completed PUTs
    — the store a recovering client mounts after a crash.
    """
    inners = [InMemoryObjectStore() for _ in range(n_shards)]
    if unsettled:
        store = ShardedObjectStore(
            [UnsettledObjectStore(s) for s in inners], ShardRouter(n_shards)
        )
    else:
        store = ShardedObjectStore(list(inners), ShardRouter(n_shards))
    settled_view = ShardedObjectStore(list(inners), ShardRouter(n_shards))
    image = DiskImage(4 * MiB)
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", VOLUME, image, cfg)
    if unsettled:
        store.settle_all()
    return settled_view, store, image, cfg, vol


step_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "barrier", "settle_one"]),
        st.integers(min_value=0, max_value=PAGES - 1),
    ),
    min_size=5,
    max_size=80,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    steps=step_strategy,
    order_seed=st.integers(min_value=0, max_value=2**16),
    n_shards=st.sampled_from([2, 3, 4]),
)
def test_sharded_out_of_order_settlement_then_total_loss(steps, order_seed, n_shards):
    """The sharded variant: PUTs settle in random order *per shard*, then
    the crash drops every shard's in-flight PUTs at once.  The union of
    the shards' surviving objects must still recover prefix-consistently
    — a hole on one shard strands later objects on all of them."""
    settled_view, store, image, cfg, vol = build(unsettled=True, n_shards=n_shards)
    rec = HistoryRecorder(vol.write, vol.flush)
    rng = random.Random(order_seed)
    for op, page in steps:
        if op == "write":
            try:
                rec.write(page * 4096, 4096)
            except Exception:
                if store.in_flight:
                    handle = rng.choice(store.pending_handles())
                    store.settle(handle)
                    vol.settle_put(handle)
                rec.write(page * 4096, 4096)
        elif op == "barrier":
            rec.barrier()
        elif op == "settle_one" and store.in_flight:
            handle = rng.choice(store.pending_handles())
            store.settle(handle)
            vol.settle_put(handle)
    store.crash()  # in-flight PUTs vanish on every shard
    image.lose()
    fresh = DiskImage(4 * MiB)
    vol2 = LSVDVolume.open(settled_view, "vd", fresh, cfg, cache_lost=True)
    verdict = PrefixChecker(rec).check(vol2.read)
    assert verdict.ok_prefix, verdict.problems[:3]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    steps=step_strategy,
    crash_seed=st.integers(min_value=0, max_value=2**16),
    survive=st.floats(min_value=0.0, max_value=1.0),
)
def test_sharded_crash_anywhere_with_cache_is_prefix_consistent(
    steps, crash_seed, survive
):
    """Cache-crash suite over a 3-shard backend: placement must be
    invisible to the prefix-consistency contract."""
    _settled, store, image, cfg, vol = build(unsettled=False, n_shards=3)
    rec = HistoryRecorder(vol.write, vol.flush)
    for op, page in steps:
        if op == "write":
            rec.write(page * 4096, 4096)
        elif op == "barrier":
            rec.barrier()
    image.crash(
        rng=random.Random(crash_seed),
        survive_probability=survive,
        allow_torn=True,
    )
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    verdict = PrefixChecker(rec).check(vol2.read, require_committed=True)
    assert verdict.ok_prefix, verdict.problems[:3]
    assert verdict.ok_committed, (verdict.cut, verdict.committed_through)
