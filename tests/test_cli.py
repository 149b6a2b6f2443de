"""Tests for the volume-management CLI."""

import pytest

from repro.cli import main, parse_size


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_size():
    assert parse_size("512") == 512
    assert parse_size("4K") == 4096
    assert parse_size("64M") == 64 << 20
    assert parse_size("1G") == 1 << 30
    with pytest.raises(Exception):
        parse_size("abc")
    with pytest.raises(Exception):
        parse_size("-5")


def test_create_info_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "bucket")
    rc, out, _ = run(capsys, root, "create", "vol", "--size", "32M")
    assert rc == 0 and "created" in out
    rc, out, _ = run(capsys, root, "info", "vol")
    assert rc == 0
    assert "size:       33554432" in out


def test_create_twice_errors(tmp_path, capsys):
    root = str(tmp_path)
    run(capsys, root, "create", "vol")
    rc, _out, err = run(capsys, root, "create", "vol")
    assert rc == 2
    assert "error" in err


def test_import_export_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "bucket")
    payload = bytes(range(256)) * 64  # 16 KiB
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    dst = tmp_path / "out.bin"
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "import", "vol", str(src), "--offset", "4K")
    assert rc == 0
    rc, out, _ = run(
        capsys, root, "export", "vol", str(dst), "--offset", "4K", "--length", "16K"
    )
    assert rc == 0
    assert dst.read_bytes() == payload


def test_snapshot_and_clone(tmp_path, capsys):
    root = str(tmp_path)
    src = tmp_path / "data.bin"
    src.write_bytes(b"GOLD" * 1024)
    run(capsys, root, "create", "vol", "--size", "16M")
    run(capsys, root, "import", "vol", str(src))
    rc, out, _ = run(capsys, root, "snapshot", "vol", "v1")
    assert rc == 0 and "snapshot 'v1'" in out
    rc, out, _ = run(capsys, root, "clone", "vol", "dev", "--snapshot", "v1")
    assert rc == 0 and "cloned vol@v1 -> dev" in out
    exported = tmp_path / "clone.bin"
    rc, _out, _ = run(capsys, root, "export", "dev", str(exported), "--length", "4K")
    assert rc == 0
    assert exported.read_bytes() == b"GOLD" * 1024


def test_fsck_and_scrub_clean(tmp_path, capsys):
    root = str(tmp_path)
    run(capsys, root, "create", "vol")
    rc, out, _ = run(capsys, root, "fsck", "vol")
    assert rc == 0 and "no errors" in out
    rc, out, _ = run(capsys, root, "scrub", "vol")
    assert rc == 0 and "scrubbed" in out


def test_replicate_command(tmp_path, capsys):
    root = str(tmp_path / "a")
    target = str(tmp_path / "b")
    src = tmp_path / "data.bin"
    src.write_bytes(b"R" * 8192)
    run(capsys, root, "create", "vol", "--size", "16M")
    run(capsys, root, "import", "vol", str(src))
    rc, out, _ = run(capsys, root, "replicate", "vol", target)
    assert rc == 0 and "replicated" in out
    # the replica mounts via fsck on the target root
    rc, out, _ = run(capsys, target, "fsck", "vol")
    assert rc == 0


def test_unknown_volume_errors(tmp_path, capsys):
    rc, _out, err = run(capsys, str(tmp_path), "info", "ghost")
    assert rc == 2 and "error" in err


def test_stats_reports_headline_metrics(tmp_path, capsys):
    root = str(tmp_path)
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "stats", "vol", "--exercise", "600")
    assert rc == 0
    # the full registry table...
    assert "store.client_bytes" in out
    assert "backend.put_latency_s" in out
    # ...and the paper's headline figures, all registry-derived
    assert "write amplification:  0." in out or "write amplification:  1." in out
    assert "read cache hit rate:  0." in out
    gc_line = next(
        line for line in out.splitlines() if line.startswith("gc bytes relocated:")
    )
    assert "0.00 MiB" not in gc_line
    assert "backend put p99:" in out and "0.000 ms" not in out


def test_stats_alternate_formats(tmp_path, capsys):
    import json

    root = str(tmp_path)
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "stats", "vol", "--format", "prometheus")
    assert rc == 0 and "# TYPE volume_writes counter" in out
    rc, out, _ = run(capsys, root, "stats", "vol", "--format", "csv")
    assert rc == 0 and out.startswith("metric,value")
    out_file = tmp_path / "m.json"
    rc, out, _ = run(
        capsys, root, "stats", "vol", "--format", "json", "--out", str(out_file)
    )
    assert rc == 0 and "wrote" in out
    doc = json.loads(out_file.read_text())
    assert doc["volume"] == "vol" and "metrics" in doc


def test_trace_dumps_typed_jsonl(tmp_path, capsys):
    import json

    from repro.obs import EVENT_TYPES

    root = str(tmp_path)
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "trace", "vol", "--exercise", "200")
    assert rc == 0
    events = [json.loads(line) for line in out.splitlines()]
    assert events
    assert {e["type"] for e in events} <= EVENT_TYPES
    assert all("ts" in e for e in events)
    # filtered + limited dump (600 ops seal several objects)
    rc, out, _ = run(
        capsys, root, "trace", "vol", "--exercise", "600",
        "--type", "backend_put", "--limit", "2",
    )
    filtered = [json.loads(line) for line in out.splitlines()]
    assert len(filtered) == 2
    assert all(e["type"] == "backend_put" for e in filtered)


def test_trace_runs_are_deterministic(tmp_path, capsys):
    """Identical volumes + identical exercises -> byte-identical traces."""
    outputs = []
    for sub in ("a", "b"):
        root = str(tmp_path / sub)
        run(capsys, root, "create", "vol", "--size", "16M")
        _, out, _ = run(capsys, root, "trace", "vol", "--exercise", "150")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_stats_headline_fleet_and_sharedcache_sections():
    """The headline renders fleet QoS and shared-cache lines straight
    from a snapshot dict, so --from-dump works post-mortem."""
    from repro.cli import _stats_headline

    snapshot = {
        "sharedcache.hits": 30,
        "sharedcache.misses": 10,
        "sharedcache.bytes": 2 * (1 << 20),
        "sharedcache.evictions": 5,
        "fleet.acme.admitted": 100,
        "fleet.acme.throttled": 7,
        "fleet.acme.bytes_admitted": 1 << 20,
        "fleet.acme.queue_depth": 2,
        "fleet.bob.admitted": 3,
        "fleet.bob.throttled": 0,
    }
    out = _stats_headline(snapshot)
    assert "shared cache:         hit rate 0.750, 2.00 MiB cached, 5 evictions" in out
    assert "tenant acme:  admitted 100, throttled 7, 1.00 MiB, queue 2" in out
    assert "tenant bob:  admitted 3, throttled 0, 0.00 MiB, queue 0" in out


def test_stats_headline_omits_fleet_lines_without_fleet_metrics():
    from repro.cli import _stats_headline

    out = _stats_headline({"store.client_bytes": 1024})
    assert "tenant " not in out
    assert "shared cache:" not in out
    # pre-placement dumps carry no store.class_* keys -> no class section
    assert "gc per class:" not in out


def test_stats_headline_gc_per_class_section():
    """Per-class written/relocated/occupancy lines render straight from a
    snapshot dict (the --from-dump contract)."""
    from repro.cli import _stats_headline

    MiB = 1 << 20
    snapshot = {
        "store.class_hot.bytes": 8 * MiB,
        "store.class_hot.gc_bytes": 2 * MiB,
        "store.class_hot.live_bytes": 3 * MiB,
        "store.class_hot.data_bytes": 4 * MiB,
        "store.class_cold.bytes": 16 * MiB,
        "store.class_cold.gc_bytes": 0,
        "store.class_cold.live_bytes": 0,
        "store.class_cold.data_bytes": 0,
    }
    out = _stats_headline(snapshot)
    assert "gc per class:" in out
    assert "hot:      8.00 MiB written,    2.00 MiB relocated, occupancy 0.750" in out
    # zero total bytes (class never populated) degrades to n/a, not a crash
    assert "cold:    16.00 MiB written,    0.00 MiB relocated, occupancy n/a" in out
    # warm never appeared in the snapshot -> no line
    assert "warm" not in out


def test_stats_gc_per_class_live_and_from_dump(tmp_path, capsys):
    """The exercised stack emits the class section, and a json dump
    replayed through --from-dump renders the same class lines."""
    import json

    root = str(tmp_path)
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "stats", "vol", "--exercise", "600")
    assert rc == 0
    assert "gc per class:" in out
    # the overwrite-heavy exercise classifies hot traffic and relocates
    # survivors, so at least the hot class shows nonzero written bytes
    hot_line = next(line for line in out.splitlines() if line.strip().startswith("hot:"))
    assert "0.00 MiB written" not in hot_line
    class_lines = [line for line in out.splitlines() if "MiB relocated" in line]

    out_file = tmp_path / "m.json"
    rc, _out, _ = run(
        capsys, root, "stats", "vol", "--exercise", "600",
        "--format", "json", "--out", str(out_file),
    )
    assert rc == 0
    assert "metrics" in json.loads(out_file.read_text())
    rc, out, _ = run(capsys, root, "stats", "--from-dump", str(out_file))
    assert rc == 0
    assert "gc per class:" in out
    dump_lines = [line for line in out.splitlines() if "MiB relocated" in line]
    assert len(dump_lines) == len(class_lines) >= 1


def test_stats_headline_readahead_line():
    """window / used / wasted / efficiency, straight from a snapshot dict
    (the --from-dump contract); dumps that predate the controller and
    caches that took no miss degrade, not crash."""
    from repro.cli import _stats_headline

    snapshot = {
        "rc.hits": 30, "rc.misses": 10,
        "rc.readahead_window_bytes": 16 * 1024,
        "rc.prefetch_used_bytes": 1 << 20,
        "rc.prefetch_wasted_bytes": 3 << 20,
    }
    out = _stats_headline(snapshot).splitlines()
    assert out[1] == "read cache hit rate:  0.750"
    assert out[2] == (
        "read-ahead:           window 16 KiB, used 1.00 MiB, "
        "wasted 3.00 MiB, efficiency 0.250"
    )
    idle = _stats_headline(dict.fromkeys(snapshot, 0))
    assert "read-ahead:           window n/a, used 0.00 MiB, wasted 0.00 MiB, efficiency n/a" in idle
    assert "read-ahead" not in _stats_headline({"rc.hits": 3, "rc.misses": 1})


def test_stats_readahead_live_and_from_dump(tmp_path, capsys):
    root = str(tmp_path)
    run(capsys, root, "create", "vol", "--size", "16M")
    rc, out, _ = run(capsys, root, "stats", "vol", "--exercise", "600")
    assert rc == 0
    # the three registry metrics are in the table, the line in the headline
    for name in ("rc.readahead_window_bytes", "rc.prefetch_used_bytes", "rc.prefetch_wasted_bytes"):
        assert name in out
    [live] = [line for line in out.splitlines() if line.startswith("read-ahead:")]
    # the exercise re-reads what it wrote in write order: read-ahead pays
    assert "window 128 KiB" in live and "used 0.00 MiB" not in live
    out_file = tmp_path / "m.json"
    run(capsys, root, "stats", "vol", "--exercise", "600", "--format", "json", "--out", str(out_file))
    rc, out, _ = run(capsys, root, "stats", "--from-dump", str(out_file))
    assert rc == 0
    [dumped] = [line for line in out.splitlines() if line.startswith("read-ahead:")]
    assert "window 128 KiB" in dumped and "efficiency n/a" not in dumped


def test_fleet_create_status_delete(tmp_path, capsys):
    root = str(tmp_path / "bucket")
    rc, out, _ = run(
        capsys, root, "fleet", "create", "vd0",
        "--size", "32M", "--tenant", "acme",
        "--iops", "500", "--cache-budget", "4M",
    )
    assert rc == 0 and "created 'vd0'" in out and "acme" in out
    rc, out, _ = run(capsys, root, "fleet", "status")
    assert rc == 0
    assert "vd0" in out and "acme" in out and "500" in out
    # duplicate create maps FleetError to the standard error path
    rc, _out, err = run(capsys, root, "fleet", "create", "vd0")
    assert rc == 2 and "error" in err
    rc, out, _ = run(capsys, root, "fleet", "delete", "vd0")
    assert rc == 0 and "deleted 'vd0'" in out
    rc, out, _ = run(capsys, root, "fleet", "status")
    assert rc == 0 and "no vdisks registered" in out


def test_fleet_create_requires_name(tmp_path, capsys):
    rc, _out, err = run(capsys, str(tmp_path), "fleet", "create")
    assert rc == 2 and "requires a vdisk name" in err


def test_fleet_recover_sweep(tmp_path, capsys):
    root = str(tmp_path / "bucket")
    run(capsys, root, "fleet", "create", "vd0", "--size", "32M",
        "--tenant", "t0")
    run(capsys, root, "fleet", "create", "vd1", "--size", "32M",
        "--tenant", "t1")
    rc, out, _ = run(capsys, root, "fleet", "recover")
    assert rc == 0
    assert "recovered 2 vdisk(s)" in out
    assert "vd0" in out and "t1" in out
