"""Property-based tests for the write-cache log under random workloads."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import CacheFullError
from repro.core.write_cache import WriteCache
from repro.devices.image import DiskImage

MiB = 1 << 20


def make_cache(size=4 * MiB):
    img = DiskImage(size)
    wc = WriteCache(img, 0, size, ckpt_slot_size=128 * 1024)
    wc.format()
    return wc


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "release", "barrier", "ckpt"]),
        st.integers(min_value=0, max_value=255),  # page index
        st.integers(min_value=0, max_value=255),  # fill byte seed
    ),
    min_size=5,
    max_size=120,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_cache_reads_agree_with_model_modulo_releases(ops):
    """Unreleased data must read back exactly; released data may only
    disappear entirely (never read as the wrong bytes)."""
    wc = make_cache()
    model = {}  # page -> (fill, seq)
    released_through = 0
    for op, page, fill in ops:
        if op == "write":
            data = bytes([fill % 255 + 1]) * 4096
            try:
                rec = wc.append([(page * 4096, data)])
            except CacheFullError:
                if wc.records:
                    released_through = wc.records[
                        max(0, len(wc.records) // 2)
                    ].seq
                    wc.release_through(released_through)
                rec = wc.append([(page * 4096, data)])
            model[page] = (data, rec.seq)
        elif op == "release" and wc.records:
            released_through = wc.records[len(wc.records) // 2].seq
            wc.release_through(released_through)
        elif op == "barrier":
            wc.barrier()
        elif op == "ckpt":
            wc.checkpoint()
    for page, (data, seq) in model.items():
        pieces = wc.read(page * 4096, 4096)
        if seq > released_through:
            assert len(pieces) == 1
            assert pieces[0][2] == data
        elif pieces:
            # still present: must be the newest value, not garbage
            assert pieces[0][2] == data


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy, crash_seed=st.integers(min_value=0, max_value=2**16))
def test_recovery_invariants_under_random_ops(ops, crash_seed):
    """After any crash: recovered records form a consecutive seq range,
    every barrier-covered record survives, and all content is exact."""
    wc = make_cache()
    payloads = {}
    durable_seq = 0
    for op, page, fill in ops:
        if op == "write":
            data = bytes([fill % 255 + 1]) * 4096
            try:
                rec = wc.append([(page * 4096, data)])
            except CacheFullError:
                if wc.records:
                    wc.release_through(wc.records[len(wc.records) // 2].seq)
                try:
                    rec = wc.append([(page * 4096, data)])
                except CacheFullError:
                    continue
            payloads[rec.seq] = (page * 4096, data)
        elif op == "release" and wc.records:
            wc.release_through(wc.records[len(wc.records) // 2].seq)
        elif op == "barrier":
            wc.barrier()
            if wc.records:
                durable_seq = wc.records[-1].seq
        elif op == "ckpt":
            wc.checkpoint()
    lowest_live = wc.records[0].seq if wc.records else None
    wc.image.crash(rng=random.Random(crash_seed))
    fresh = WriteCache(wc.image, 0, wc.region_size, wc.slot_size)
    fresh.recover()
    seqs = [r.seq for r in fresh.records]
    # consecutive
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs))) if seqs else True
    # all barrier-covered, still-live records survive
    if lowest_live is not None:
        for seq in range(max(lowest_live, 1), durable_seq + 1):
            assert seq in set(seqs), (seq, durable_seq, seqs)
    # content of every recovered record is exact
    for ref in fresh.replay_after(0):
        if ref.seq in payloads:
            lba, data = payloads[ref.seq]
            [(got_lba, length, position)] = ref.extents
            assert (got_lba, length) == (lba, 4096)
            assert fresh.image.read(fresh._phys(position), length) == data
