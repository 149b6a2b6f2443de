"""Fixture-based unit tests for the LSVD invariant checker.

Each rule family gets: a known-bad snippet that must produce the
expected diagnostic, a suppressed variant, and an allowlisted variant.
Plus: JSON reporter schema, suppression scoping regression, and config
loading from pyproject.
"""

import json
import textwrap
from dataclasses import replace

from repro.lint import ALL_RULES, Diagnostic, LintConfig, LintRunner, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.config import discover_config
from repro.lint.framework import parse_suppressions
from repro.lint.reporters import json_document


def lint_src(relkey, source, config=None):
    """Run every rule over ``source`` as if it lived at repro/<relkey>."""
    runner = LintRunner([cls() for cls in ALL_RULES], config or LintConfig())
    return runner.check_source(f"repro/{relkey}", textwrap.dedent(source))


def codes(diagnostics):
    return [d.code for d in diagnostics]


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


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------


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
            "a = 1  # lint: disable=LSVD010\n"
            "b = 2\n"
            "c = 3  # lint: disable=LSVD002, LSVD003 -- reason\n"
        )
        assert table == {1: {"LSVD010"}, 3: {"LSVD002", "LSVD003"}}


# ---------------------------------------------------------------------------
# reporters & CLI
# ---------------------------------------------------------------------------


class TestReporting:
    def make_diag(self):
        return Diagnostic(
            path="repro/core/x.py",
            line=3,
            col=5,
            code="LSVD010",
            message="PUT handle discarded",
            fixit="bind the handle and settle it",
        )

    def test_json_document_schema(self):
        doc = json_document([self.make_diag()])
        assert doc["schema_version"] == 1
        assert doc["tool"] == "repro-lint"
        assert doc["summary"] == {
            "total": 1,
            "by_code": {"LSVD010": 1},
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
        assert line.startswith("repro/core/x.py:3:5: LSVD010 ")
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
            'obs-allow = ["analysis/extra.py"]\n'
            'sequence-allow = ["tools/x.py"]\n'
        )
        config = LintConfig.from_pyproject(pyproject)
        assert not config.code_enabled("LSVD005")
        assert config.code_enabled("LSVD010")
        assert config.module_allowed("repro/analysis/extra.py", config.obs_allow)
        assert config.module_allowed("repro/cli.py", config.obs_allow)
        assert config.module_allowed("repro/tools/x.py", config.sequence_allow)

    def test_discover_config_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nignore = ["LSVD009"]\n'
        )
        nested = tmp_path / "repro" / "core"
        nested.mkdir(parents=True)
        config = discover_config(nested)
        assert not config.code_enabled("LSVD009")

    def test_real_repo_pyproject_parses(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[1]
        config = LintConfig.from_pyproject(repo / "pyproject.toml")
        assert config.code_enabled("LSVD010")
