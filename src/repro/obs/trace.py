"""Structured, deterministic event trace.

An append-only stream of *typed* events — ``write_commit``, ``gc_round``,
``cache_evict``, ``backend_put``, ``crash``, ``recovery_replay`` and
friends — timestamped from whatever virtual clock the embedding stack
runs on: the simulated clock (``sim.now``) in the timed runtime, the
:class:`~repro.obs.timing.TimedStore` cost-model clock in the CLI, and a
plain logical step counter in pure-logic code that has no clock at all.
Never the wall clock: two identical runs must serialise to byte-identical
JSONL (the trace-determinism golden test), which is also why events carry
no uuids and JSON is dumped with sorted keys.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

#: the event catalogue; emit() rejects unknown types so tooling can rely
#: on the names
EVENT_TYPES: FrozenSet[str] = frozenset(
    {
        "write_commit",     # volume sealed+committed a data batch
        "gc_round",         # collector finished relocating one round
        "cache_evict",      # read cache evicted bytes (FIFO ring wrap)
        "readahead_resize",  # read cache halved/doubled its prefetch window
        "backend_put",      # block store PUT an object (data/gc/ckpt)
        "checkpoint",       # KIND_CHECKPOINT object written
        "crash",            # a crash was injected / simulated
        "recovery_replay",  # one cache record replayed to the backend
        "recovery_complete",  # mount-time recovery finished
        "recovery_scan",    # timed mount sweep (LIST + header GET fans)
        "snapshot",         # stream head designated as a snapshot
        "barrier_group",    # group commit settled N barriers on one FLUSH
        "fleet_create",     # fleet registered + created a new vdisk
        "fleet_attach",     # fleet mounted a vdisk (QoS + cache wired)
        "fleet_detach",     # fleet unmounted a vdisk
        "fleet_delete",     # fleet unregistered a vdisk, objects deleted
    }
)

#: event field values are JSON scalars only — keeps the export byte-stable
FieldValue = object


class TraceEvent:
    """One trace event: (timestamp, type, sorted field tuple)."""

    __slots__ = ("ts", "etype", "fields")

    def __init__(self, ts: float, etype: str, fields: Tuple[Tuple[str, FieldValue], ...]):
        self.ts = ts
        self.etype = etype
        self.fields = fields

    def to_dict(self) -> Dict[str, FieldValue]:
        out: Dict[str, FieldValue] = {"ts": self.ts, "type": self.etype}
        out.update(self.fields)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"TraceEvent({self.to_json()})"


class Trace:
    """Append-only stream of typed events."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        #: virtual-clock source; None = logical step counter
        self.clock = clock
        self._events: List[TraceEvent] = []
        self._step = 0  # logical timestamp source when no clock is wired

    # -- emission --------------------------------------------------------
    def emit(self, etype: str, **fields: FieldValue) -> TraceEvent:
        """Record one event; returns it."""
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown trace event type {etype!r}")
        if self.clock is not None:
            ts = float(self.clock())
        else:
            ts = float(self._step)
        self._step += 1
        event = TraceEvent(ts, etype, tuple(sorted(fields.items())))
        self._events.append(event)
        return event

    # -- inspection ------------------------------------------------------
    def events(self, etype: Optional[str] = None) -> List[TraceEvent]:
        if etype is None:
            return list(self._events)
        return [e for e in self._events if e.etype == etype]

    def counts(self) -> Dict[str, int]:
        """Event-type -> occurrence count."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.etype] = out.get(event.etype, 0) + 1
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        return len(self._events)

    # -- export / lifecycle ----------------------------------------------
    def to_jsonl(self, limit: Optional[int] = None) -> str:
        """JSONL export, byte-stable across identical runs.

        ``limit`` keeps only the newest N events (0/None = all).
        """
        events = list(self._events)
        if limit:
            events = events[-limit:]
        if not events:
            return ""
        return "\n".join(e.to_json() for e in events) + "\n"

    def clear(self) -> None:
        self._events.clear()
        self._step = 0
