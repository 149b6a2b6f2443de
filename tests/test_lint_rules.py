"""Fixture-based unit tests for the LSVD invariant checker.

Each rule family gets: a known-bad snippet that must produce the
expected diagnostic, a suppressed variant, and an allowlisted variant.
Plus: JSON reporter schema, suppression scoping regression, config
loading from pyproject, and the format-string parser.
"""

import json
import textwrap
from dataclasses import replace

from repro.lint import ALL_RULES, Diagnostic, LintConfig, LintRunner, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.config import discover_config
from repro.lint.framework import parse_suppressions
from repro.lint.reporters import json_document
from repro.lint.rules.structs import format_field_count


def lint_src(relkey, source, config=None):
    """Run every rule over ``source`` as if it lived at repro/<relkey>."""
    runner = LintRunner([cls() for cls in ALL_RULES], config or LintConfig())
    return runner.check_source(f"repro/{relkey}", textwrap.dedent(source))


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# LSVD001 immutability
# ---------------------------------------------------------------------------


class TestImmutability:
    BAD = """
        def sneaky(store, data):
            store.put("vol.00000042", data)
    """

    def test_flags_direct_put_outside_allowlist(self):
        diags = lint_src("analysis/report.py", self.BAD)
        assert codes(diags) == ["LSVD001"]
        assert "store.put()" in diags[0].message
        assert diags[0].line == 3

    def test_allowlisted_module_is_exempt(self):
        # the discarded handle still (rightly) trips LSVD010; only the
        # layering rule is exempt here
        assert "LSVD001" not in codes(lint_src("core/block_store.py", self.BAD))

    def test_suppression_comment_silences(self):
        src = """
            def sneaky(store, data):
                store.put("k", data)  # lint: disable=LSVD001 -- reviewed
        """
        assert lint_src("analysis/report.py", src) == []

    def test_delete_also_flagged(self):
        src = """
            def cleanup(backend, store):
                backend.delete("k")
                store.delete("j")
        """
        assert codes(lint_src("workloads/fio.py", src)) == ["LSVD001", "LSVD001"]

    def test_queue_put_is_not_a_store(self):
        src = """
            def enqueue(q, item):
                q.put(item)
                self.results.put(item)
        """
        assert lint_src("analysis/report.py", src) == []

    def test_reads_are_unrestricted(self):
        src = """
            def peek(store):
                return store.get("k"), store.list("v."), store.get_range("k", 0, 10)
        """
        assert lint_src("analysis/report.py", src) == []

    def test_pyproject_extension_adds_allowlist_entry(self):
        config = replace(
            LintConfig(), immutability_allow=LintConfig().immutability_allow + ("analysis/report.py",)
        )
        assert lint_src("analysis/report.py", self.BAD, config) == []


# ---------------------------------------------------------------------------
# LSVD002 sequence hygiene
# ---------------------------------------------------------------------------


class TestSequenceHygiene:
    def test_flags_seq_arithmetic_outside_log_layer(self):
        src = """
            def bump(self):
                self.next_seq += 1
        """
        diags = lint_src("core/gc.py", src)
        assert codes(diags) == ["LSVD002"]
        assert "next_seq" in diags[0].message

    def test_binop_on_seq_flagged(self):
        assert codes(lint_src("tools/x.py", "y = seq + 1\n")) == ["LSVD002"]

    def test_log_layer_owns_the_arithmetic(self):
        src = "def take(self):\n    self.next_seq += 1\n"
        for module in ("core/log.py", "core/block_store.py", "core/write_cache.py"):
            assert lint_src(module, src) == []

    def test_comparisons_are_fine(self):
        src = """
            def check(seq, other_seq):
                return seq >= other_seq and seq != 0
        """
        assert lint_src("core/gc.py", src) == []

    def test_sequential_bandwidth_names_do_not_match(self):
        src = """
            def model(seq_write_bw, seq_run_mean):
                return seq_write_bw * 2 + seq_run_mean - 1
        """
        assert lint_src("devices/ssd.py", src) == []


# ---------------------------------------------------------------------------
# LSVD003 determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_flagged_in_core(self):
        src = """
            import time
            def stamp():
                return time.time()
        """
        diags = lint_src("core/volume.py", src)
        assert codes(diags) == ["LSVD003"]
        assert "time.time" in diags[0].message

    def test_aliased_import_still_caught(self):
        src = """
            from time import monotonic as mono
            def stamp():
                return mono()
        """
        assert codes(lint_src("sim/engine.py", src)) == ["LSVD003"]

    def test_unseeded_random_flagged_seeded_ok(self):
        src = """
            import random
            bad = random.Random()
            good = random.Random(42)
        """
        diags = lint_src("workloads/fio.py", src)
        assert codes(diags) == ["LSVD003"]
        assert diags[0].line == 3

    def test_module_level_random_flagged(self):
        src = """
            import random
            def pick():
                return random.randrange(10)
        """
        assert codes(lint_src("gcsim/simulator.py", src)) == ["LSVD003"]

    def test_outside_deterministic_dirs_unrestricted(self):
        src = """
            import time, random
            def bench():
                return time.time() + random.random()
        """
        assert lint_src("analysis/report.py", src) == []

    def test_datetime_now_flagged(self):
        src = """
            from datetime import datetime
            def stamp():
                return datetime.now()
        """
        assert codes(lint_src("crash/consistency.py", src)) == ["LSVD003"]

    ENTROPY = """
        import os, secrets, uuid
        from uuid import uuid4 as fresh
        def identity():
            return os.urandom(16), uuid.uuid1(), fresh(), secrets.token_bytes(8)
    """

    def test_os_entropy_flagged_in_core(self):
        diags = lint_src("core/block_store.py", self.ENTROPY)
        assert codes(diags) == ["LSVD003"] * 4
        assert [d.message.split("()")[0] for d in diags] == [
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
            "secrets.token_bytes",
        ]
        assert "never be replayed" in diags[0].message
        assert "seeded source" in diags[0].fixit

    def test_os_entropy_unrestricted_outside_deterministic_dirs(self):
        assert lint_src("cli.py", self.ENTROPY) == []
        assert lint_src("analysis/report.py", self.ENTROPY) == []

    def test_os_entropy_suppression_comment_silences(self):
        src = """
            import os
            def fresh_epoch():
                return os.urandom(8)  # lint: disable=LSVD003 -- identity, not replayed
        """
        assert lint_src("core/write_cache.py", src) == []

    def test_deterministic_uuid_and_os_calls_stay_legal(self):
        src = """
            import os, uuid
            def stable(name):
                return uuid.uuid5(uuid.NAMESPACE_DNS, name), os.path.basename(name)
        """
        assert lint_src("core/naming.py", src) == []


# ---------------------------------------------------------------------------
# LSVD004 recovery error handling
# ---------------------------------------------------------------------------


class TestRecoveryHandlers:
    def test_swallowing_broad_except_flagged(self):
        src = """
            def probe(self, seq):
                try:
                    return self.header_of(seq).kind
                except Exception:
                    return -1
        """
        diags = lint_src("core/block_store.py", src)
        assert codes(diags) == ["LSVD004"]

    def test_bare_except_flagged(self):
        src = """
            def probe():
                try:
                    risky()
                except:
                    pass
        """
        assert codes(lint_src("crash/consistency.py", src)) == ["LSVD004"]

    def test_reraise_is_fine(self):
        src = """
            def probe():
                try:
                    risky()
                except Exception:
                    cleanup()
                    raise
        """
        assert lint_src("core/volume.py", src) == []

    def test_recording_the_error_is_fine(self):
        src = """
            def probe(self):
                try:
                    risky()
                except Exception as exc:
                    self.errors.append(str(exc))
        """
        assert lint_src("core/scrub.py", src) == []

    def test_narrow_except_is_fine(self):
        src = """
            def probe():
                try:
                    risky()
                except (ValueError, KeyError):
                    return None
        """
        assert lint_src("core/block_store.py", src) == []

    def test_outside_recovery_dirs_unrestricted(self):
        src = """
            def probe():
                try:
                    risky()
                except Exception:
                    return None
        """
        assert lint_src("analysis/report.py", src) == []


# ---------------------------------------------------------------------------
# LSVD005 unit confusion
# ---------------------------------------------------------------------------


class TestUnitConfusion:
    def test_mixed_unannotated_params_flagged(self):
        src = """
            def translate(lba, offset):
                return lba, offset
        """
        diags = lint_src("core/extent_map.py", src)
        assert codes(diags) == ["LSVD005", "LSVD005"]

    def test_annotated_params_ok(self):
        src = """
            def translate(lba: int, offset: int) -> int:
                return lba
        """
        assert lint_src("core/extent_map.py", src) == []

    def test_single_family_needs_no_annotations(self):
        src = """
            def only_lbas(lba, other_lba):
                return lba, other_lba
        """
        assert lint_src("core/extent_map.py", src) == []

    def test_direct_lba_byte_arithmetic_flagged(self):
        src = "pos = lba + byte_off\n"
        diags = lint_src("core/volume.py", src)
        assert codes(diags) == ["LSVD005"]

    def test_converted_arithmetic_ok(self):
        src = "pos = lba * BLOCK + byte_off\n"
        assert lint_src("core/volume.py", src) == []


# ---------------------------------------------------------------------------
# LSVD006 struct/header consistency
# ---------------------------------------------------------------------------


class TestStructConsistency:
    def test_pack_arity_mismatch_flagged(self):
        src = """
            import struct
            _HDR = struct.Struct("<4sHHQ")
            blob = _HDR.pack(b"MAGC", 1, 2)
        """
        diags = lint_src("core/x.py", src)
        assert codes(diags) == ["LSVD006"]
        assert "packs 3 value(s)" in diags[0].message

    def test_pack_correct_arity_ok(self):
        src = """
            import struct
            _HDR = struct.Struct("<4sHHQ")
            blob = _HDR.pack(b"MAGC", 1, 2, 3)
        """
        assert lint_src("core/x.py", src) == []

    def test_unpack_target_arity_mismatch_flagged(self):
        src = """
            import struct
            _EXT = struct.Struct("<QIQ")
            lba, length = _EXT.unpack_from(buf, 0)
        """
        assert codes(lint_src("core/x.py", src)) == ["LSVD006"]

    def test_literal_struct_pack_checked(self):
        src = """
            import struct
            blob = struct.pack("<HH", 1)
        """
        assert codes(lint_src("core/x.py", src)) == ["LSVD006"]

    def test_starred_args_skipped(self):
        src = """
            import struct
            _ROW = struct.Struct("<QQ")
            def pack_rows(rows):
                return b"".join(_ROW.pack(*row) for row in rows)
        """
        assert lint_src("core/x.py", src) == []

    def test_dataclass_cross_check(self):
        src = """
            import struct
            from dataclasses import dataclass

            _EXT = struct.Struct("<QIQ")

            @dataclass
            class Extent:
                lba: int
                length: int
        """
        config = replace(
            LintConfig(), struct_dataclass_map={"core/x.py": {"_EXT": "Extent"}}
        )
        diags = lint_src("core/x.py", src, config)
        assert codes(diags) == ["LSVD006"]
        assert "2 field(s)" in diags[0].message and "3" in diags[0].message

    def test_format_field_count(self):
        assert format_field_count("<4sHHQQIII") == 8
        assert format_field_count("<QI") == 2
        assert format_field_count("<4sHHI I") == 5  # whitespace is legal
        assert format_field_count("<8sQ") == 2
        assert format_field_count("4x") == 0  # pad bytes consume no values
        assert format_field_count("<3H") == 3
        assert format_field_count("not a format") is None


# ---------------------------------------------------------------------------
# LSVD007 observability
# ---------------------------------------------------------------------------


class TestObservability:
    BAD_COUNTER = """
        class Cache:
            def __init__(self):
                self.hits = 0

            def lookup(self):
                self.hits += 1
    """

    def test_flags_undeclared_stat_counter_in_core(self):
        diags = lint_src("core/cache.py", self.BAD_COUNTER)
        assert codes(diags) == ["LSVD007"]
        assert "self.hits" in diags[0].message
        assert "metric_field" in diags[0].fixit

    def test_flags_in_runtime_too(self):
        assert codes(lint_src("runtime/dev.py", self.BAD_COUNTER)) == ["LSVD007"]

    def test_other_packages_are_not_instrumented(self):
        assert lint_src("analysis/report.py", self.BAD_COUNTER) == []
        assert lint_src("workloads/fio.py", self.BAD_COUNTER) == []

    def test_metric_field_declaration_exempts_the_increment(self):
        src = """
            from repro.obs import bind_metrics, metric_field

            class Cache:
                hits = metric_field("rc.hits")

                def __init__(self, obs):
                    self.obs = obs
                    bind_metrics(self)

                def lookup(self):
                    self.hits += 1
        """
        assert lint_src("core/cache.py", src) == []

    def test_gauge_field_declaration_exempts_subtraction(self):
        src = """
            from repro.obs import bind_metrics, gauge_field

            class Dev:
                dirty_bytes = gauge_field("dev.dirty_bytes")

                def __init__(self, obs):
                    self.obs = obs
                    bind_metrics(self)

                def release(self, n):
                    self.dirty_bytes -= n
        """
        assert lint_src("runtime/dev.py", src) == []

    UNBOUND = """
        from repro.obs import bind_metrics, metric_field

        class Cache:
            hits = metric_field("rc.hits")

            def __init__(self, obs):
                self.obs = obs
                {bind}
    """

    def test_flags_a_declaring_class_that_never_binds(self):
        diags = lint_src("core/cache.py", self.UNBOUND.format(bind="self.size = 0"))
        assert codes(diags) == ["LSVD007"]
        assert "'Cache'" in diags[0].message and "bind_metrics(self)" in diags[0].fixit
        no_init = """
            from repro.obs import gauge_field

            class Dev:
                dirty_bytes = gauge_field("dev.dirty_bytes")
        """
        assert codes(lint_src("fleet/dev.py", no_init)) == ["LSVD007"]

    def test_binding_self_in_init_passes(self):
        assert lint_src("core/cache.py", self.UNBOUND.format(bind="bind_metrics(self)")) == []

    def test_private_attributes_are_mechanism_not_metrics(self):
        src = """
            class Cache:
                def lookup(self):
                    self._hits += 1
        """
        assert lint_src("core/cache.py", src) == []

    def test_non_stat_names_pass(self):
        src = """
            class Cache:
                def push(self):
                    self.depth += 1
        """
        assert lint_src("core/cache.py", src) == []

    def test_flags_print_in_instrumented_code(self):
        src = """
            def report(stats):
                print("hits:", stats)
        """
        diags = lint_src("core/cache.py", src)
        assert codes(diags) == ["LSVD007"]
        assert "print()" in diags[0].message

    def test_print_is_fine_outside_instrumented_dirs(self):
        src = """
            def report(stats):
                print("hits:", stats)
        """
        assert lint_src("analysis/report.py", src) == []

    def test_suppression_comment_silences(self):
        src = """
            class Batch:
                def add(self, data):
                    self.bytes_in += len(data)  # lint: disable=LSVD007 -- payload accounting
        """
        assert lint_src("core/batch.py", src) == []

    def test_obs_allow_extension_exempts_module(self):
        config = replace(
            LintConfig(), obs_allow=LintConfig().obs_allow + ("core/cache.py",)
        )
        assert lint_src("core/cache.py", self.BAD_COUNTER, config) == []

    def test_pyproject_obs_allow_and_stat_markers(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\n"
            'obs-allow = ["core/cache.py"]\n'
            'stat-markers = ["frobs"]\n'
        )
        config = LintConfig.from_pyproject(pyproject)
        assert config.module_allowed("repro/core/cache.py", config.obs_allow)
        src = """
            class Dev:
                def tick(self):
                    self.frobs += 1
        """
        assert codes(lint_src("runtime/dev.py", src, config)) == ["LSVD007"]
        assert lint_src("core/cache.py", self.BAD_COUNTER, config) == []


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------


class TestShardOwnership:
    BAD_MOD = """
        def place(seq, n_shards):
            return (seq + 7) % n_shards
    """
    BAD_NAME = """
        def shard_dir(i):
            return f"shard-{i:02d}"
    """

    def test_flags_modulo_on_shard_count(self):
        diags = lint_src("core/destage.py", self.BAD_MOD)
        assert "LSVD008" in codes(diags)
        shard_diag = next(d for d in diags if d.code == "LSVD008")
        assert "n_shards" in shard_diag.message
        assert "ShardRouter" in shard_diag.fixit

    def test_flags_attribute_shard_count_too(self):
        src = """
            class Router:
                def pick(self, key):
                    return hash(key) % self.num_shards
        """
        assert "LSVD008" in codes(lint_src("runtime/destage.py", src))

    def test_flags_fstring_shard_name_construction(self):
        diags = lint_src("tools/admin.py", self.BAD_NAME)
        assert codes(diags) == ["LSVD008"]
        assert "shard name" in diags[0].message

    def test_flags_format_and_percent_templates(self):
        src = """
            def a(i):
                return "shard-{}".format(i)

            def b(i):
                return "shard-%02d" % i
        """
        assert codes(lint_src("analysis/report.py", src)) == ["LSVD008", "LSVD008"]

    def test_fixed_literals_are_fine(self):
        src = """
            def build(sub):
                p = sub.add_parser("shard-status")
                return p
        """
        assert lint_src("cli.py", src) == []

    def test_shard_package_is_exempt(self):
        # (seq arithmetic still answers to LSVD002 there — only the shard
        # ownership rule stands down inside repro/shard/)
        assert "LSVD008" not in codes(lint_src("shard/router.py", self.BAD_MOD))
        assert lint_src("shard/store.py", self.BAD_NAME) == []

    def test_suppression_comment_silences(self):
        src = """
            def place(seq, n_shards):
                return seq % n_shards  # lint: disable=LSVD002,LSVD008 -- migration tool
        """
        assert lint_src("tools/reshard.py", src) == []

    def test_shard_allow_extends_from_config(self):
        config = replace(LintConfig(), shard_allow=("tools/reshard.py",))
        assert lint_src("tools/reshard.py", self.BAD_NAME, config) == []

    def test_other_modulo_arithmetic_passes(self):
        src = """
            def bucket(key, n_buckets):
                return key % n_buckets
        """
        assert lint_src("core/cache.py", src) == []


# ---------------------------------------------------------------------------
# LSVD009 hot-path hygiene
# ---------------------------------------------------------------------------


class TestHotPath:
    BAD_INSERT = """
        def carve(entries, i, frag):
            entries.insert(i, frag)
    """
    BAD_DEL = """
        def drop(entries, i):
            del entries[i]
    """
    BAD_COPY = """
        def pieces(buf, exts):
            return [bytes(buf[e.offset : e.offset + e.length]) for e in exts]
    """

    def test_flags_list_insert_in_data_plane_module(self):
        diags = lint_src("core/extent_map.py", self.BAD_INSERT)
        assert codes(diags) == ["LSVD009"]
        assert "list.insert" in diags[0].message

    def test_flags_del_subscript(self):
        diags = lint_src("core/volume.py", self.BAD_DEL)
        assert codes(diags) == ["LSVD009"]
        assert "del" in diags[0].message

    def test_flags_per_extent_bytes_copy(self):
        diags = lint_src("core/batch.py", self.BAD_COPY)
        assert codes(diags) == ["LSVD009"]
        assert "bytes" in diags[0].message
        assert "sgio" in diags[0].fixit

    def test_non_hotpath_modules_are_ignored(self):
        # checkpoint/recovery modules may shuffle lists freely
        assert lint_src("core/checkpoint.py", self.BAD_INSERT) == []
        assert lint_src("core/write_cache.py", self.BAD_COPY) == []

    def test_blessed_helper_is_exempt(self):
        src = """
            def _leaf_insert(chunk, lbas, ei, new):
                chunk.insert(ei, new)
                lbas.insert(ei, new.lba)
        """
        assert lint_src("core/extent_map.py", src) == []

    def test_blessing_is_per_function_not_per_name_prefix(self):
        # a different function in the same module is still checked
        src = """
            def _leaf_insert(chunk, ei, new):
                chunk.insert(ei, new)

            def rebalance(chunk, ei, new):
                chunk.insert(ei, new)
        """
        diags = lint_src("core/extent_map.py", src)
        assert codes(diags) == ["LSVD009"]
        assert diags[0].line == 6

    def test_nested_function_shadows_blessing(self):
        # a def nested inside a blessed helper is its own scope: blessing
        # does not leak into it
        src = """
            def _split_chunk(chunks, ci):
                def helper(xs, i):
                    xs.insert(i, None)
                chunks.insert(ci, [])
                return helper
        """
        diags = lint_src("core/extent_map.py", src)
        assert codes(diags) == ["LSVD009"]
        assert diags[0].line == 4

    def test_hotpath_allow_extends_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\n"
            'hotpath-allow = ["core/batch.py::pieces"]\n'
        )
        config = LintConfig.from_pyproject(pyproject)
        assert lint_src("core/batch.py", self.BAD_COPY, config) == []

    def test_whole_module_exemption(self):
        config = replace(LintConfig(), hotpath_blessed=("core/log.py",))
        assert lint_src("core/log.py", self.BAD_DEL, config) == []

    def test_real_decode_paths_are_allowlisted(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[1]
        config = LintConfig.from_pyproject(repo / "pyproject.toml")
        assert "core/log.py::decode_record" in config.hotpath_blessed
        assert "core/log.py::decode_object" in config.hotpath_blessed

    def test_suppression_comment_silences(self):
        src = """
            def insert_piece(cache, lba, data):
                cache.insert(lba, data)  # lint: disable=LSVD009 -- cache API
        """
        assert lint_src("core/volume.py", src) == []

    def test_bytes_of_name_is_fine(self):
        # the single whole-buffer materialisation is the blessed pattern
        src = """
            def seal(out):
                return bytes(out)
        """
        assert lint_src("core/log.py", src) == []


class TestSuppressions:
    def test_disable_only_silences_named_code_on_that_line(self):
        # one line violating LSVD002 *and* LSVD005: disabling LSVD002
        # must leave the LSVD005 finding intact
        src = "x = (seq + 1) + (lba + byte_off)  # lint: disable=LSVD002\n"
        diags = lint_src("core/x.py", src)
        assert codes(diags) == ["LSVD005"]

    def test_disable_is_line_scoped(self):
        src = """
            y = seq + 1  # lint: disable=LSVD002
            z = seq + 2
        """
        diags = lint_src("core/x.py", src)
        assert codes(diags) == ["LSVD002"]
        assert diags[0].line == 3

    def test_multiple_codes_one_comment(self):
        src = "x = (seq + 1) + (lba + byte_off)  # lint: disable=LSVD002,LSVD005\n"
        assert lint_src("core/x.py", src) == []

    def test_comment_inside_string_is_not_a_suppression(self):
        src = 'msg = "# lint: disable=LSVD002"\ny = seq + 1\n'
        assert codes(lint_src("core/x.py", src)) == ["LSVD002"]

    def test_parse_suppressions_table(self):
        table = parse_suppressions(
            "a = 1  # lint: disable=LSVD001\n"
            "b = 2\n"
            "c = 3  # lint: disable=LSVD002, LSVD003 -- reason\n"
        )
        assert table == {1: {"LSVD001"}, 3: {"LSVD002", "LSVD003"}}


# ---------------------------------------------------------------------------
# reporters & CLI
# ---------------------------------------------------------------------------


class TestReporting:
    def make_diag(self):
        return Diagnostic(
            path="repro/core/x.py",
            line=3,
            col=5,
            code="LSVD001",
            message="direct object-store mutation",
            fixit="route through BlockStore",
        )

    def test_json_document_schema(self):
        doc = json_document([self.make_diag()])
        assert doc["schema_version"] == 1
        assert doc["tool"] == "repro-lint"
        assert doc["summary"] == {
            "total": 1,
            "by_code": {"LSVD001": 1},
            "clean": False,
        }
        (entry,) = doc["diagnostics"]
        assert set(entry) == {
            "path", "line", "col", "code", "message", "fixit", "severity",
        }
        assert entry["severity"] == "error"
        json.dumps(doc)  # must be serialisable

    def test_text_render_format(self):
        line = self.make_diag().render()
        assert line.startswith("repro/core/x.py:3:5: LSVD001 ")
        assert "(fix: " in line

    def test_cli_reports_violation_and_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\n")
        assert lint_main([str(tmp_path), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert "LSVD003" in out and "bad.py:2:" in out

    def test_cli_select_and_ignore(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\ny = seq + 1\n")
        assert lint_main([str(tmp_path), "--no-config", "--select", "LSVD002"]) == 1
        assert "LSVD003" not in capsys.readouterr().out
        assert lint_main([str(tmp_path), "--no-config", "--ignore", "LSVD002,LSVD003"]) == 0

    def test_cli_missing_path_exits_two(self, capsys):
        assert lint_main(["/nonexistent/nowhere"]) == 2

    def test_cli_json_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("y = seq + 1\n")
        assert lint_main([str(tmp_path), "--no-config", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_code"] == {"LSVD002": 1}

    def test_syntax_error_reported_not_crash(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        diags = run_lint([bad])
        assert codes(diags) == ["LSVD000"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_module_key_anchors_on_package_dir(self):
        assert LintConfig.module_key("src/repro/core/log.py") == "core/log.py"
        assert LintConfig.module_key("/a/b/repro/sim/engine.py") == "sim/engine.py"
        assert LintConfig.module_key("scratch.py") == "scratch.py"

    def test_pyproject_loading_extends_allowlists(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\n"
            'ignore = ["LSVD005"]\n'
            'immutability-allow = ["analysis/report.py"]\n'
            'sequence-allow = ["tools/x.py"]\n'
        )
        config = LintConfig.from_pyproject(pyproject)
        assert not config.code_enabled("LSVD005")
        assert config.code_enabled("LSVD001")
        assert config.module_allowed(
            "repro/analysis/report.py", config.immutability_allow
        )
        assert config.module_allowed("repro/tools/x.py", config.sequence_allow)

    def test_discover_config_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nignore = ["LSVD006"]\n'
        )
        nested = tmp_path / "repro" / "core"
        nested.mkdir(parents=True)
        config = discover_config(nested)
        assert not config.code_enabled("LSVD006")

    def test_real_repo_pyproject_parses(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[1]
        config = LintConfig.from_pyproject(repo / "pyproject.toml")
        assert config.code_enabled("LSVD001")
