"""Table 6: fine-grained single-operation latency breakdown.

Paper measurements of the prototype (microseconds): a read miss is
dominated by the ~5.9 ms S3 range request; a write's critical path is the
~64 us NVMe log write plus map update, with the kernel/user plumbing
(context switch ~50 us, boundary crossings ~20-27 us, golang overhead
34-63 us) in the background.

Here we measure isolated QD=1 operations on the simulated stack and
decompose their latency against the calibrated parameters.
"""

import pytest

from conftest import GiB, make_lsvd
from repro.analysis import Table
from repro.runtime.params import LSVDParams
from repro.sim import Simulator
from repro.workloads.base import IOOp


def one_op_latency(world, op):
    start = world.sim.now
    done = world.device.submit(op)
    world.sim.run_until_event(done)
    return world.sim.now - start


def measure():
    params = LSVDParams()
    hit_world = make_lsvd(read_hit_rate=1.0)
    miss_world = make_lsvd(read_hit_rate=0.0)
    write_world = make_lsvd()
    return {
        "write": one_op_latency(write_world, IOOp("write", 4096, 4096)),
        "read_hit": one_op_latency(hit_world, IOOp("read", 4096, 4096)),
        "read_miss": one_op_latency(miss_world, IOOp("read", 4096, 4096)),
        "barrier": one_op_latency(write_world, IOOp("flush")),
        "params": params,
        # the per-request RGW latency the backend model actually charges
        "s3_latency": miss_world.backend.request_latency,
    }


def test_tab06_overhead_breakdown(once):
    m = once(measure)
    params = m["params"]

    us = lambda s: f"{s * 1e6:.0f}"
    table = Table(
        "Table 6: isolated single-operation latencies (QD=1, microseconds)",
        ["operation", "measured us", "dominant component"],
    )
    table.add("write (4K)", us(m["write"]), f"NVMe log write + CPU ({us(params.write_cpu)}us)")
    table.add("read hit (4K)", us(m["read_hit"]), f"NVMe read + CPU ({us(params.read_hit_cpu)}us)")
    table.add("read miss (4K)", us(m["read_miss"]), f"S3 range GET ({us(m['s3_latency'])}us)")
    table.add("commit barrier", us(m["barrier"]), "single device flush")
    table.show()

    # the read miss is dominated by the S3 request (paper: 5920 of ~6200us)
    assert m["read_miss"] > 0.8 * m["s3_latency"]
    assert m["read_miss"] > 5e-3
    # hits and writes are 1-2 orders of magnitude cheaper
    assert m["write"] < m["read_miss"] / 20
    assert m["read_hit"] < m["read_miss"] / 20
    # a barrier costs roughly one flush, not a metadata storm
    assert m["barrier"] < 0.3e-3
    # writes complete in the ~100us regime the paper's Table 6 implies
    assert 30e-6 < m["write"] < 300e-6
