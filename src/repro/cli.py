"""Command-line interface for LSVD volumes on a directory object store.

Gives the library the operational surface of a real block-storage tool::

    python -m repro.cli ROOT create  VOLUME --size 64M [--shards N]
    python -m repro.cli ROOT info    VOLUME
    python -m repro.cli ROOT import  VOLUME FILE [--offset N]
    python -m repro.cli ROOT export  VOLUME FILE [--offset N --length N]
    python -m repro.cli ROOT snapshot VOLUME NAME
    python -m repro.cli ROOT clone   BASE NEW [--snapshot NAME]
    python -m repro.cli ROOT replicate VOLUME TARGET_ROOT [--shards N]
    python -m repro.cli ROOT shard-status [VOLUME]
    python -m repro.cli ROOT fsck    VOLUME
    python -m repro.cli ROOT scrub   VOLUME
    python -m repro.cli ROOT lint    [PATHS...]
    python -m repro.cli ROOT stats   [VOLUME] [--exercise N] [--format F]
                                     [--from-dump FILE]
    python -m repro.cli ROOT trace   VOLUME [--exercise N] [--limit N]
    python -m repro.cli ROOT spans   VOLUME [--exercise N] [--slowest K]
    python -m repro.cli ROOT flightrec dump VOLUME [--exercise N] [--out F]

``ROOT`` is a directory acting as the S3 bucket; the cache SSD is an
ephemeral in-memory image (each invocation mounts with ``cache_lost``,
i.e. from the backend's consistent prefix — exactly the crash-safe path).
Roots created with ``--shards N`` carry a ``shard-layout.json`` manifest
and every command transparently scatter-gathers across the shards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core import LSVDConfig, LSVDVolume
from repro.core.errors import LSVDError, VolumeExistsError, VolumeNotFoundError
from repro.core.ids import IDS
from repro.core.replication import Replicator
from repro.core.scrub import Scrubber
from repro.devices.image import DiskImage
from repro.fleet.manager import FleetError
from repro.objstore.s3 import ObjectStore
from repro.shard import (
    LAYOUTS,
    ShardedObjectStore,
    open_directory_store,
    sharded_directory_store,
)
from repro.tools import fsck_volume

MiB = 1 << 20
DEFAULT_CACHE = 16 * MiB


def parse_size(text: str) -> int:
    """'64M', '1G', '512K', or plain bytes."""
    text = text.strip().upper()
    factor = 1
    if text and text[-1] in "KMGT":
        factor = 1024 ** ("KMGT".index(text[-1]) + 1)
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("size must be positive")
    return value * factor


def _config() -> LSVDConfig:
    return LSVDConfig(batch_size=1 * MiB, checkpoint_interval=16)


def _open(store: ObjectStore, name: str) -> LSVDVolume:
    return LSVDVolume.open(
        store, name, DiskImage(DEFAULT_CACHE), _config(), cache_lost=True
    )


def _open_observed(store: ObjectStore, name: str):
    """Mount with a fresh registry, timing the backend via TimedStore.

    The pure-logic core has no clock, so backend latency percentiles come
    from the TimedStore cost model; its virtual clock also stamps the
    trace (same determinism contract as the simulated runtime).
    """
    from repro.obs import Registry, TimedStore

    obs = Registry()
    if isinstance(store, ShardedObjectStore):
        # route the store's shard.* counters into the reported registry
        store.obs = obs
    timed = TimedStore(store, obs)
    obs.trace.clock = timed.now
    obs.spans.clock = timed.now
    vol = LSVDVolume.open(
        timed, name, DiskImage(DEFAULT_CACHE), _config(), cache_lost=True, obs=obs
    )
    return vol, obs


def _exercise(vol: LSVDVolume, ops: int) -> None:
    """Deterministic mixed workload behind ``stats``/``trace --exercise``.

    Overwrite-heavy 4 KiB writes confined to a small window (so garbage
    accumulates and GC fires), periodic flushes, then a read pass over the
    same window after a drain (so reads miss the write cache and exercise
    the read cache).  Offsets come from a fixed LCG — no randomness, two
    identical invocations emit byte-identical traces.
    """
    block = 4096
    # confine writes to 1 MiB so overwrites push live/total below the GC
    # watermark within a few hundred ops
    window = max(1, min(vol.size, 1 * MiB) // block)
    state = 1
    offsets = []
    for i in range(ops):
        state = (state * 48271) % 2147483647
        offset = (state % window) * block
        offsets.append(offset)
        vol.write(offset, bytes([i % 256]) * block)
        if i % 16 == 15:
            vol.flush()
    vol.drain()
    for offset in offsets[: max(1, ops // 2)]:
        vol.read(offset, block)
        vol.read(offset, block)  # second read is a read-cache hit


def _stats_headline(snapshot: dict) -> str:
    """The numbers the paper's evaluation leads with, plus the commit
    pipeline's health (queue depth, barrier coalescing).

    Works on a **snapshot dict** (``Registry.snapshot()`` or the
    ``metrics`` section of a ``stats --format json`` dump reloaded from
    disk), never on live metric objects — so the same headline renders
    post-mortem via ``stats --from-dump`` when the process that ran the
    workload is long gone.
    """

    def scalar(name: str, default: float = 0.0) -> float:
        value = snapshot.get(name, default)
        return float(value) if isinstance(value, (int, float)) else default

    def hist(name: str) -> Optional[dict]:
        value = snapshot.get(name)
        return value if isinstance(value, dict) else None

    client = scalar("store.client_bytes")
    backend = (
        scalar("store.data_bytes")
        + scalar("store.gc_bytes")
        + scalar("store.ckpt_bytes")
    )
    hits = scalar("rc.hits")
    lookups = hits + scalar("rc.misses")
    put = hist("backend.put_latency_s")
    p99 = float(put["p99"]) if put else 0.0  # type: ignore[arg-type]
    sizes = hist("barrier.group_size")
    if sizes and sizes.get("count"):
        mean = float(sizes["sum"]) / float(sizes["count"])  # type: ignore[arg-type]
        group = f"mean {mean:.2f} / max {float(sizes['max']):.0f}"  # type: ignore[arg-type]
    else:
        # pure-model stack: the write cache's flush-elision counters are
        # the coalescing signal (no timed commit worker to sample)
        group = (
            f"{int(scalar('wc.barriers_coalesced'))} coalesced"
            f" / {int(scalar('wc.device_flushes'))} device flushes"
        )
    lines = [
        f"write amplification:  {backend / client:.3f}" if client else
        "write amplification:  n/a",
        f"read cache hit rate:  {hits / lookups:.3f}" if lookups else
        "read cache hit rate:  n/a",
        f"gc bytes relocated:   {scalar('gc.bytes_relocated') / MiB:.2f} MiB",
        f"backend put p99:      {p99 * 1e3:.3f} ms",
        f"destage queue depth:  {int(scalar('destage.queue_depth'))}",
        f"barrier group size:   {group}",
    ]
    if "rc.readahead_window_bytes" in snapshot:  # older dumps predate it
        used = scalar("rc.prefetch_used_bytes")
        wasted = scalar("rc.prefetch_wasted_bytes")
        verdicts = used + wasted
        efficiency = f"{used / verdicts:.3f}" if verdicts else "n/a"
        window = int(scalar("rc.readahead_window_bytes"))  # 0: no miss yet
        lines.insert(2, (
            f"read-ahead:           "
            f"window {f'{window // 1024} KiB' if window else 'n/a'}, "
            f"used {used / MiB:.2f} MiB, wasted {wasted / MiB:.2f} MiB, "
            f"efficiency {efficiency}"
        ))
    # per-class GC/WA section (temperature-aware placement); older dumps
    # predate the placement layer and simply have no store.class_* keys
    class_names = [
        name for name in ("hot", "warm", "cold")
        if f"store.class_{name}.bytes" in snapshot
    ]
    if class_names:
        lines.append("gc per class:")
        for name in class_names:
            prefix = f"store.class_{name}"
            total = scalar(f"{prefix}.data_bytes")
            live = scalar(f"{prefix}.live_bytes")
            occupancy = f"{live / total:.3f}" if total else "n/a"
            lines.append(
                f"  {name + ':':<6} "
                f"{scalar(f'{prefix}.bytes') / MiB:7.2f} MiB written, "
                f"{scalar(f'{prefix}.gc_bytes') / MiB:7.2f} MiB relocated, "
                f"occupancy {occupancy}"
            )
    sc_lookups = scalar("sharedcache.hits") + scalar("sharedcache.misses")
    if sc_lookups:
        lines.append(
            f"shared cache:         hit rate "
            f"{scalar('sharedcache.hits') / sc_lookups:.3f}, "
            f"{scalar('sharedcache.bytes') / MiB:.2f} MiB cached, "
            f"{int(scalar('sharedcache.evictions'))} evictions"
        )
    # per-tenant QoS section (fleet.<tenant>.admitted names the tenants)
    suffix = ".admitted"
    tenants = sorted(
        name[len("fleet."):-len(suffix)]
        for name in snapshot
        if name.startswith("fleet.") and name.endswith(suffix)
        and not name.endswith(".bytes" + suffix)
    )
    for tenant in tenants:
        prefix = f"fleet.{tenant}"
        lines.append(
            f"tenant {tenant}:  "
            f"admitted {int(scalar(f'{prefix}.admitted'))}, "
            f"throttled {int(scalar(f'{prefix}.throttled'))}, "
            f"{scalar(f'{prefix}.bytes_admitted') / MiB:.2f} MiB, "
            f"queue {int(scalar(f'{prefix}.queue_depth'))}"
        )
    return "\n".join(lines)


def _span_attribution(spans) -> str:
    """Stage-attribution section of ``stats``: each request's completion
    latency decomposed into additive per-stage components."""
    from repro.obs.spans import format_decomposition, format_stage_table

    analyzer = spans.analyzer
    if not len(analyzer):
        return ""
    parts = [
        "stage attribution (additive critical path, virtual seconds):",
        format_stage_table(analyzer),
    ]
    for name in analyzer.root_names():
        decomp = format_decomposition(analyzer, name)
        if decomp:
            parts.append(f"{name}:")
            parts.append("  " + decomp.replace("\n", "\n  "))
    return "\n".join(parts)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    elif text:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_create(store, args) -> int:
    if args.shards > 1 or args.layout != "round-robin":
        store = sharded_directory_store(args.root, args.shards, args.layout)
    LSVDVolume.create(store, args.volume, args.size, DiskImage(DEFAULT_CACHE), _config())
    extra = ""
    if isinstance(store, ShardedObjectStore):
        extra = (
            f" across {store.router.n_shards} shards"
            f" ({store.router.layout.name})"
        )
    print(f"created {args.volume!r}: {args.size} bytes{extra}")
    return 0


def cmd_info(store, args) -> int:
    from repro.core.block_store import BlockStore

    meta = BlockStore.read_super(store, args.volume)
    vol = _open(store, args.volume)
    live, total = vol.occupancy()
    print(f"volume:     {args.volume}")
    print(f"size:       {meta['size']} bytes")
    print(f"uuid:       {meta['uuid']}")
    print(f"snapshots:  {', '.join(meta.get('snapshots', {})) or '-'}")
    print(f"base chain: {meta.get('base_chain') or '-'}")
    print(f"objects:    {len(store.list(args.volume + '.'))}")
    print(f"backend:    {store.total_bytes(args.volume + '.') / MiB:.2f} MiB "
          f"({live / MiB:.2f} MiB live, {max(total - live, 0) / MiB:.2f} MiB garbage)")
    return 0


def cmd_import(store, args) -> int:
    vol = _open(store, args.volume)
    with open(args.file, "rb") as fh:
        data = fh.read()
    pad = (-len(data)) % 512
    vol.write(args.offset, data + b"\x00" * pad)
    vol.close()
    print(f"imported {len(data)} bytes at offset {args.offset}")
    return 0


def cmd_export(store, args) -> int:
    vol = _open(store, args.volume)
    length = args.length if args.length else vol.size - args.offset
    with open(args.file, "wb") as fh:
        pos = args.offset
        remaining = length
        while remaining > 0:
            take = min(remaining, 4 * MiB)
            fh.write(vol.read(pos, take))
            pos += take
            remaining -= take
    print(f"exported {length} bytes to {args.file}")
    return 0


def cmd_snapshot(store, args) -> int:
    vol = _open(store, args.volume)
    seq = vol.snapshot(args.name)
    vol.close()
    print(f"snapshot {args.name!r} at sequence {seq}")
    return 0


def cmd_clone(store, args) -> int:
    LSVDVolume.clone(
        store, args.base, args.new, DiskImage(DEFAULT_CACHE), _config(),
        at_snapshot=args.snapshot,
    )
    origin = f"{args.base}@{args.snapshot}" if args.snapshot else args.base
    print(f"cloned {origin} -> {args.new}")
    return 0


def cmd_replicate(store, args) -> int:
    if args.shards:
        # the replica may be sharded differently from the source: routing
        # is per-store, the object stream itself is placement-agnostic
        target: ObjectStore = sharded_directory_store(
            args.target_root, args.shards, args.layout
        )
    else:
        target = open_directory_store(args.target_root)
    rep = Replicator(store, target, args.volume, min_age=0.0)
    rep.observe(now=0.0)
    copied = rep.step(now=1.0)
    print(f"replicated {len(copied)} objects "
          f"({rep.stats.bytes_copied / MiB:.2f} MiB) to {args.target_root}")
    if rep.stats.checkpoints_deferred:
        print(f"deferred {rep.stats.checkpoints_deferred} checkpoint(s); "
              "run again after the source checkpoints")
    return 0


def cmd_fsck(store, args) -> int:
    report = fsck_volume(store, args.volume)
    print(report.summary())
    return 0 if report.healthy else 1


def cmd_lint(store, args) -> int:
    """Static invariant gate; also available standalone as ``repro-lint``."""
    from repro.lint.cli import main as lint_main

    argv = list(args.paths) + ["--format", args.format]
    if args.rule:
        argv += ["--rule", args.rule]
    if args.explain:
        argv.append("--explain")
    return lint_main(argv)


def cmd_scrub(store, args) -> int:
    vol = _open(store, args.volume)
    scrubber = Scrubber(vol.bs)
    findings = scrubber.full_pass()
    print(f"scrubbed {scrubber.stats.objects_checked} objects, "
          f"{scrubber.stats.bytes_verified / MiB:.2f} MiB")
    for finding in findings:
        print(f"  seq {finding.seq}: {finding.problem}")
    return 0 if not findings else 1


def cmd_shard_status(store, args) -> int:
    """Per-shard occupancy and balance for a sharded root."""
    if not isinstance(store, ShardedObjectStore):
        prefix = args.volume + "." if args.volume else ""
        names = store.list(prefix)
        print("not sharded (no shard-layout.json manifest): 1 backend")
        print(f"objects: {len(names)}  "
              f"bytes: {sum(store.size(n) for n in names) / MiB:.2f} MiB")
        return 0
    router = store.router
    prefix = args.volume + "." if args.volume else ""
    usage = store.shard_usage(prefix)
    total_objects = sum(count for count, _nbytes in usage)
    total_bytes = sum(nbytes for _count, nbytes in usage)
    scope = f"volume {args.volume!r}" if args.volume else "all objects"
    print(f"{router.n_shards} shards, layout {router.layout.name!r} ({scope})")
    for index, (count, nbytes) in enumerate(usage):
        share = (count / total_objects * 100) if total_objects else 0.0
        print(f"  {router.shard_name(index)}: {count:>6} objects  "
              f"{nbytes / MiB:>10.2f} MiB  {share:5.1f}%")
    print(f"  total:    {total_objects:>6} objects  {total_bytes / MiB:>10.2f} MiB")
    if total_objects:
        fair = total_objects / router.n_shards
        hottest = max(count for count, _nbytes in usage)
        print(f"  imbalance: {hottest / fair:.3f} "
              "(1.0 = even; hottest shard vs fair share)")
    return 0


def cmd_stats(store, args) -> int:
    from repro.analysis.report import registry_table
    from repro.obs import metrics_json, prometheus_text, registry_csv

    if args.from_dump:
        # post-mortem: render the headline from a metrics dump on disk
        # (`stats --format json --out FILE` from an earlier run)
        with open(args.from_dump, encoding="utf-8") as fh:
            document = json.load(fh)
        snapshot = document.get("metrics", document)
        if not isinstance(snapshot, dict):
            print(f"error: no metrics section in {args.from_dump}",
                  file=sys.stderr)
            return 2
        _emit(_stats_headline(snapshot) + "\n", args.out)
        return 0
    if not args.volume:
        print("error: stats needs VOLUME (or --from-dump FILE)", file=sys.stderr)
        return 2
    vol, obs = _open_observed(store, args.volume)
    if args.exercise:
        _exercise(vol, args.exercise)
    vol.close()
    # close()'s final seal can still move bytes between classes; refresh
    # the store.class_* occupancy gauges after it so the headline (and a
    # json dump replayed later through --from-dump) reflects the closed
    # image, not the last GC round
    vol.bs.occupancy_by_class()
    # the store's own operation counters (merged across shards when the
    # root is sharded) land in the same snapshot as the stack metrics,
    # as do the span-tree aggregates (span.trees, span.stage.*)
    store.stats.publish(obs)
    obs.spans.publish(obs)
    if args.format == "prometheus":
        text = prometheus_text(obs)
    elif args.format == "json":
        text = metrics_json(obs, extra={"volume": args.volume})
    elif args.format == "csv":
        text = registry_csv(obs)
    else:
        table = registry_table(obs, caption=f"metrics for {args.volume!r}")
        text = table.render() + "\n\n" + _stats_headline(obs.snapshot()) + "\n"
        attribution = _span_attribution(obs.spans)
        if attribution:
            text += "\n" + attribution + "\n"
    _emit(text, args.out)
    return 0


def cmd_spans(store, args) -> int:
    """Slowest-K span trees plus the per-stage attribution table."""
    from repro.obs.spans import format_stage_table, format_tree

    vol, obs = _open_observed(store, args.volume)
    if args.exercise:
        _exercise(vol, args.exercise)
    vol.close()
    spans = obs.spans
    if spans.completed == 0:
        _emit("no completed span trees (mount-only; try --exercise N)\n",
              args.out)
        return 0
    lines = [
        f"{spans.completed} trees completed, {spans.open_roots} open, "
        f"{spans.slo_breaches} SLO breaches",
        "",
        f"slowest {min(args.slowest, spans.completed)} trees "
        "(~ marks queue wait):",
    ]
    for root in spans.slowest(args.slowest):
        lines.append("")
        lines.append(format_tree(root))
    lines += ["", format_stage_table(spans.analyzer, args.name)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_flightrec(store, args) -> int:
    """Flight-recorder debug bundle (ring of last-N complete trees)."""
    vol, obs = _open_observed(store, args.volume)
    if args.exercise:
        _exercise(vol, args.exercise)
    vol.close()
    if args.out:
        obs.spans.dump_debug_bundle(args.out, reason="repro flightrec dump")
        print(f"wrote {args.out} ({len(obs.spans.flight)} trees)")
    else:
        bundle = obs.spans.debug_bundle(reason="repro flightrec dump")
        sys.stdout.write(json.dumps(bundle, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_trace(store, args) -> int:
    vol, obs = _open_observed(store, args.volume)
    if args.exercise:
        _exercise(vol, args.exercise)
    vol.close()
    events = obs.trace.events(args.type)
    if args.limit:
        events = events[-args.limit :]
    text = "".join(event.to_json() + "\n" for event in events)
    _emit(text, args.out)
    return 0


def cmd_fleet(store, args) -> int:
    """Fleet registry operations over the root's object store."""
    from repro.fleet import FleetManager, QoSLimits

    fleet = FleetManager(store)
    if args.action in ("create", "delete") and not args.name:
        raise ValueError(f"fleet {args.action} requires a vdisk name")
    if args.action == "create":
        limits = QoSLimits(iops=args.iops, bytes_per_s=args.bytes_per_s)
        fleet.create(
            args.name,
            args.size,
            tenant=args.tenant,
            limits=limits,
            cache_budget=args.cache_budget,
        )
        print(f"created {args.name!r} ({args.size / MiB:.0f} MiB, "
              f"tenant {args.tenant!r})")
        return 0
    if args.action == "delete":
        deleted = fleet.delete(args.name)
        print(f"deleted {args.name!r} ({deleted} backend objects)")
        return 0
    if args.action == "recover":
        report = fleet.recover()
        for name in sorted(report):
            entry = report[name]
            print(f"  {name:<16} tenant {entry['tenant']:<12} "
                  f"{entry['size'] / MiB:>8.0f} MiB  "
                  f"{entry['objects']:>5} objects")
        print(f"recovered {len(report)} vdisk(s)")
        fleet.close()
        return 0
    # status
    records = fleet.vdisks()
    if not records:
        print("no vdisks registered")
        return 0
    print(f"{'vdisk':<16} {'tenant':<12} {'size':>10}  "
          f"{'iops':>8}  {'bytes/s':>10}  {'cache':>10}")
    for record in records:
        lim = record.limits
        print(f"{record.name:<16} {record.tenant:<12} "
              f"{record.size / MiB:>6.0f} MiB  "
              f"{lim.iops:>8.0f}  {lim.bytes_per_s:>10.0f}  "
              f"{record.cache_budget / MiB:>6.1f} MiB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="LSVD volume management"
    )
    parser.add_argument("root", help="object-store directory (the 'bucket')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("create", help="create a new volume")
    p.add_argument("volume")
    p.add_argument("--size", type=parse_size, default=64 * MiB)
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="stripe the object stream across N backend shards")
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="round-robin",
                   help="seq->shard placement (with --shards)")
    p.set_defaults(fn=cmd_create)

    p = sub.add_parser("info", help="show volume metadata and usage")
    p.add_argument("volume")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("import", help="write a file's bytes into the volume")
    p.add_argument("volume")
    p.add_argument("file")
    p.add_argument("--offset", type=parse_size, default=0)
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("export", help="read volume bytes out to a file")
    p.add_argument("volume")
    p.add_argument("file")
    p.add_argument("--offset", type=parse_size, default=0)
    p.add_argument("--length", type=parse_size, default=0)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("snapshot", help="create a snapshot")
    p.add_argument("volume")
    p.add_argument("name")
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("clone", help="create a copy-on-write clone")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--snapshot", default=None)
    p.set_defaults(fn=cmd_clone)

    p = sub.add_parser("replicate", help="copy the object stream elsewhere")
    p.add_argument("volume")
    p.add_argument("target_root")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="create the replica sharded across N backends")
    p.add_argument("--layout", choices=sorted(LAYOUTS), default="round-robin",
                   help="replica placement (with --shards)")
    p.set_defaults(fn=cmd_replicate)

    p = sub.add_parser("shard-status", help="per-shard occupancy and balance")
    p.add_argument("volume", nargs="?", default=None,
                   help="limit to one volume's stream (default: all objects)")
    p.set_defaults(fn=cmd_shard_status)

    p = sub.add_parser("fsck", help="verify the object stream")
    p.add_argument("volume")
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser("scrub", help="deep-verify every object's CRC")
    p.add_argument("volume")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser("lint", help="check source against LSVD invariants")
    p.add_argument("paths", nargs="*", default=["src/repro"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--rule", default=None, metavar="CODE",
                   help="restrict the run (or --explain) to one rule")
    p.add_argument("--explain", action="store_true",
                   help="print rule invariants/examples/paper sections")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("stats", help="mount, optionally exercise, dump metrics")
    p.add_argument("volume", nargs="?", default=None)
    p.add_argument("--exercise", type=int, default=0, metavar="N",
                   help="run a deterministic N-op workload before reporting")
    p.add_argument("--format", choices=("table", "prometheus", "json", "csv"),
                   default="table")
    p.add_argument("--from-dump", default=None, metavar="FILE",
                   help="render the headline from a saved metrics JSON dump "
                        "instead of mounting")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("spans", help="slowest span trees + stage attribution")
    p.add_argument("volume")
    p.add_argument("--exercise", type=int, default=0, metavar="N",
                   help="run a deterministic N-op workload before reporting")
    p.add_argument("--slowest", type=int, default=5, metavar="K",
                   help="how many slowest trees to print")
    p.add_argument("--name", default=None,
                   help="restrict the stage table to one root name")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_spans)

    p = sub.add_parser("flightrec", help="flight-recorder debug bundle")
    p.add_argument("action", choices=("dump",),
                   help="'dump': write the last-N-trees JSON bundle")
    p.add_argument("volume")
    p.add_argument("--exercise", type=int, default=0, metavar="N",
                   help="run a deterministic N-op workload before dumping")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_flightrec)

    p = sub.add_parser("fleet", help="multi-tenant vdisk registry operations")
    p.add_argument("action", choices=("create", "status", "delete", "recover"))
    p.add_argument("name", nargs="?", default=None,
                   help="vdisk name (create/delete)")
    p.add_argument("--tenant", default="default",
                   help="owning tenant (create)")
    p.add_argument("--size", type=parse_size, default=64 * MiB)
    p.add_argument("--iops", type=float, default=0.0,
                   help="per-tenant IOPS cap (0 = unlimited)")
    p.add_argument("--bytes-per-s", type=parse_size, default=0,
                   help="per-tenant throughput cap (0 = unlimited)")
    p.add_argument("--cache-budget", type=parse_size, default=0,
                   help="shared-cache byte budget for the tenant")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("trace", help="dump the structured event trace as JSONL")
    p.add_argument("volume")
    p.add_argument("--exercise", type=int, default=0, metavar="N",
                   help="run a deterministic N-op workload before dumping")
    p.add_argument("--type", default=None, help="only events of this type")
    p.add_argument("--limit", type=int, default=0, help="newest N events only")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # a person creates volumes here: ids unique across invocations, not seed 0's
    IDS.reseed(int.from_bytes(os.urandom(8), "little"))
    try:
        # sharded roots are self-describing (shard-layout.json manifest)
        store = open_directory_store(args.root)
        return args.fn(store, args)
    except (VolumeNotFoundError, VolumeExistsError, LSVDError, FleetError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
