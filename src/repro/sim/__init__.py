"""Discrete-event simulation engine underlying all timed LSVD experiments.

The engine is a small, dependency-free cousin of SimPy: processes are
Python generators that ``yield`` events (timeouts, resource requests,
completions of other processes) and are resumed when those events fire.

The paper's prototype is a kernel module driving a real NVMe drive; a pure
Python block device cannot sustain the 50K+ IOPS the evaluation measures,
so every performance experiment in this reproduction instead runs on this
simulator with calibrated device service-time models (see DESIGN.md).
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store, TokenBucket

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TokenBucket",
]
