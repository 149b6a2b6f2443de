"""Fixture tests for the flow-sensitive rules (LSVD010-LSVD013).

Mirrors ``tests/test_lint_rules.py``: each rule gets a violating
fixture, clean variants (one per way of discharging the obligation),
a suppressed variant, and an allowlisted variant.  Also covers the
``--rule`` / ``--explain`` CLI surface the flow rules introduced.
"""

import textwrap
from dataclasses import replace

from repro.lint import ALL_RULES, LintConfig, LintRunner
from repro.lint.cli import explain_rules, main as lint_main, rule_sections
from repro.lint.rules.async_safety import AsyncCancellationRule
from repro.lint.rules.durability import DurabilityOrderingRule
from repro.lint.rules.recovery_order import RecoveryMutationOrderRule
from repro.lint.rules.settlement import SettlementLeakRule


def lint_src(relkey, source, config=None):
    """Run every rule over ``source`` as if it lived at repro/<relkey>."""
    runner = LintRunner([cls() for cls in ALL_RULES], config or LintConfig())
    return runner.check_source(f"repro/{relkey}", textwrap.dedent(source))


def only(diags, code):
    return [d for d in diags if d.code == code]


def codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# LSVD010 settlement-leak
# ---------------------------------------------------------------------------


class TestSettlementLeak:
    # core/block_store.py sits in the settlement dirs and is exempt from
    # the LSVD001 layering rule, so fixtures only exercise LSVD010
    KEY = "core/block_store.py"

    BAD = """
        def stash(self, store, name, data):
            handle = store.put(name, data)
            self.log(name)
    """

    def test_leaked_handle_is_flagged(self):
        diags = only(lint_src(self.KEY, self.BAD), "LSVD010")
        assert len(diags) == 1
        assert diags[0].line == 3
        assert "handle" in diags[0].message

    def test_discarded_put_result_is_flagged(self):
        src = """
            def stash(self, store, name, data):
                store.put(name, data)
        """
        diags = only(lint_src(self.KEY, src), "LSVD010")
        assert len(diags) == 1

    def test_settled_handle_is_clean(self):
        src = """
            def stash(self, store, name, data):
                handle = store.put(name, data)
                if handle is not None:
                    store.settle(handle)
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_registered_handle_is_clean(self):
        src = """
            def stash(self, store, name, data):
                handle = store.put(name, data)
                self._pending[handle] = name
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_returned_handle_is_clean(self):
        src = """
            def stash(self, store, name, data):
                return store.put(name, data)
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_raising_path_is_forgiven(self):
        src = """
            def stash(self, store, name, data):
                handle = store.put(name, data)
                if handle is None:
                    raise RuntimeError("store settles synchronously")
                store.settle(handle)
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_leak_via_swallowed_exception_path(self):
        # the except->return path reaches normal exit with the handle
        # still live; only the flow engine can see this
        src = """
            def stash(self, store, name, data):
                handle = store.put(name, data)
                try:
                    self.index(name)
                except KeyError:
                    return
                store.settle(handle)
        """
        diags = only(lint_src(self.KEY, src), "LSVD010")
        assert len(diags) == 1
        assert diags[0].line == 3

    def test_overwrite_loses_the_first_handle(self):
        src = """
            def stash(self, store, data):
                h = store.put("a", data)
                h = store.put("b", data)
                store.settle(h)
        """
        diags = only(lint_src(self.KEY, src), "LSVD010")
        assert len(diags) == 1
        assert diags[0].line == 3

    def test_awaited_put_expression_is_the_wait(self):
        # `await store.put(...)` / `yield store.put(...)` as a bare
        # expression IS the settlement wait, not a discard
        src = """
            async def stash(self, store, name, data):
                await store.put(name, data)
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_suppression_comment_silences(self):
        src = """
            def stash(self, store, name, data):
                handle = store.put(name, data)  # lint: disable=LSVD010 -- caller settles
                return None
        """
        assert only(lint_src(self.KEY, src), "LSVD010") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), settlement_allow=("core/block_store.py::stash",)
        )
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD010") == []

    def test_allowlisted_module_is_exempt(self):
        config = replace(LintConfig(), settlement_allow=("core/block_store.py",))
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD010") == []

    def test_outside_settlement_dirs_is_exempt(self):
        assert only(lint_src("analysis/report.py", self.BAD), "LSVD010") == []


# ---------------------------------------------------------------------------
# LSVD011 durability-ordering
# ---------------------------------------------------------------------------


class TestDurabilityOrdering:
    # core/write_cache.py is one of the durability modules
    KEY = "core/write_cache.py"

    BAD = """
        def finish(self):
            self.wc.release_through(self.last_seq)
    """

    def test_unguarded_ack_is_flagged(self):
        diags = only(lint_src(self.KEY, self.BAD), "LSVD011")
        assert len(diags) == 1
        assert "release_through" in diags[0].message

    def test_flush_before_ack_is_clean(self):
        src = """
            def finish(self):
                self.store.flush()
                self.wc.release_through(self.last_seq)
        """
        assert only(lint_src(self.KEY, src), "LSVD011") == []

    def test_settled_branch_is_evidence(self):
        src = """
            def finish(self):
                if self.batch.settled:
                    self.wc.release_through(self.last_seq)
        """
        assert only(lint_src(self.KEY, src), "LSVD011") == []

    def test_partial_evidence_still_flags(self):
        # the fast=False path reaches the ack with no barrier
        src = """
            def finish(self, fast):
                if fast:
                    self.bs.flush()
                self.wc.release_through(self.last_seq)
        """
        diags = only(lint_src(self.KEY, src), "LSVD011")
        assert len(diags) == 1

    def test_yielded_put_is_evidence_in_the_timed_model(self):
        src = """
            def worker(self):
                yield self.backend.put("obj", 4096)
                self._release_space(4096)
        """
        assert only(lint_src("runtime/lsvd.py", src), "LSVD011") == []

    def test_settlement_callbacks_are_exempt(self):
        src = """
            def settle_put(self, handle):
                self.wc.release_through(handle.seq)
        """
        assert only(lint_src(self.KEY, src), "LSVD011") == []

    def test_suppression_comment_silences(self):
        src = """
            def finish(self):
                self.wc.release_through(self.last_seq)  # lint: disable=LSVD011 -- test hook
        """
        assert only(lint_src(self.KEY, src), "LSVD011") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), durability_allow=("core/write_cache.py::finish",)
        )
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD011") == []

    def test_outside_durability_modules_is_exempt(self):
        assert only(lint_src("analysis/report.py", self.BAD), "LSVD011") == []

    def test_none_test_on_unrelated_state_is_not_evidence(self):
        # `self.qos is None` says nothing about durability: the ack on
        # its None side is exactly as unguarded as the bare one
        src = """
            def finish(self):
                if self.qos is None:
                    self.wc.release_through(5)
        """
        diags = only(lint_src("core/volume.py", src), "LSVD011")
        assert [d.line for d in diags] == [4]

    def test_early_return_on_unrelated_not_none_is_not_evidence(self):
        src = """
            def finish(self):
                if self.qos is not None:
                    return
                self.wc.release_through(5)
        """
        diags = only(lint_src("core/volume.py", src), "LSVD011")
        assert [d.line for d in diags] == [5]

    def test_local_handle_is_none_is_evidence(self):
        # a settled-synchronous store returned no handle: nothing in flight
        src = """
            def finish(self, name, data):
                result = self.store.put(name, data)
                if result is None:
                    self.wc.release_through(5)
                    return
                self.pending.append(result)
        """
        assert only(lint_src("core/volume.py", src), "LSVD011") == []


# ---------------------------------------------------------------------------
# LSVD012 recovery-mutation-ordering
# ---------------------------------------------------------------------------


class TestRecoveryMutationOrder:
    KEY = "core/recovery.py"

    BAD = """
        def recover(self):
            try:
                self._ckpt_history.append(7)
                self.store.put("ckpt", b"x")
            except KeyError:
                pass
    """

    def test_mutation_before_durable_write_is_flagged(self):
        diags = only(lint_src(self.KEY, self.BAD), "LSVD012")
        assert len(diags) == 1
        assert diags[0].line == 4
        assert "_ckpt_history" in diags[0].message

    def test_durable_write_first_is_clean(self):
        src = """
            def recover(self):
                try:
                    self.store.put("ckpt", b"x")
                    self._ckpt_history.append(7)
                except KeyError:
                    pass
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_reraising_handler_is_clean(self):
        src = """
            def recover(self):
                try:
                    self._ckpt_history.append(7)
                    self.store.put("ckpt", b"x")
                except KeyError:
                    raise
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_restoring_handler_is_clean(self):
        src = """
            def recover(self):
                saved = list(self._ckpt_history)
                try:
                    self._ckpt_history.append(7)
                    self.store.put("ckpt", b"x")
                except KeyError:
                    self._ckpt_history = saved
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_unhandled_try_is_clean(self):
        # no handler: the exception propagates, the caller sees the
        # failure, nothing is silently half-applied
        src = """
            def recover(self):
                try:
                    self._ckpt_history.append(7)
                    self.store.put("ckpt", b"x")
                finally:
                    self.close()
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_non_recovery_function_is_exempt(self):
        src = """
            def process(self):
                try:
                    self._ckpt_history.append(7)
                    self.store.put("ckpt", b"x")
                except KeyError:
                    pass
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_suppression_comment_silences(self):
        src = """
            def recover(self):
                try:
                    self._ckpt_history.append(7)  # lint: disable=LSVD012 -- idempotent
                    self.store.put("ckpt", b"x")
                except KeyError:
                    pass
        """
        assert only(lint_src(self.KEY, src), "LSVD012") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), recovery_order_allow=("core/recovery.py::recover",)
        )
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD012") == []


# ---------------------------------------------------------------------------
# LSVD013 async-cancellation-safety
# ---------------------------------------------------------------------------


class TestAsyncCancellation:
    KEY = "core/write_path.py"

    BAD = """
        async def destage(self, batch):
            self._dirty_map[batch.seq] = batch
            await self.backend.put(batch.name, batch.data)
            self.ledger.settle_put(batch.seq)
    """

    def test_unregistered_mutation_across_await_is_flagged(self):
        diags = only(lint_src(self.KEY, self.BAD), "LSVD013")
        assert len(diags) == 1
        assert diags[0].line == 4  # reported at the await point
        assert "_dirty_map" in diags[0].message

    def test_registration_before_await_is_clean(self):
        src = """
            async def destage(self, batch):
                self._dirty_map[batch.seq] = batch
                self.ledger.settle_put(batch.seq)
                await self.backend.put(batch.name, batch.data)
        """
        assert only(lint_src(self.KEY, src), "LSVD013") == []

    def test_pending_table_writes_are_registrations(self):
        src = """
            async def destage(self, batch):
                self._pending[batch.seq] = batch
                await self.backend.put(batch.name, batch.data)
        """
        assert only(lint_src(self.KEY, src), "LSVD013") == []

    def test_mutation_after_await_is_clean(self):
        src = """
            async def destage(self, batch):
                await self.backend.put(batch.name, batch.data)
                self._dirty_map[batch.seq] = batch
        """
        assert only(lint_src(self.KEY, src), "LSVD013") == []

    def test_sync_generators_are_exempt(self):
        # the simulator's timed coroutines are sync generators; yield
        # there is a simulated delay, not a cancellation point
        src = """
            def worker(self):
                self._dirty_map[1] = 2
                yield self.backend.put("k", 4096)
        """
        assert only(lint_src(self.KEY, src), "LSVD013") == []

    def test_nested_async_def_is_checked(self):
        src = """
            def make_destager(self):
                async def destage(batch):
                    self._dirty_map[batch.seq] = batch
                    await self.backend.put(batch.name, batch.data)
                return destage
        """
        diags = only(lint_src(self.KEY, src), "LSVD013")
        assert len(diags) == 1

    def test_suppression_comment_silences(self):
        src = """
            async def destage(self, batch):
                self._dirty_map[batch.seq] = batch
                await self.backend.put(batch.name, batch.data)  # lint: disable=LSVD013 -- shielded
                self.ledger.settle_put(batch.seq)
        """
        assert only(lint_src(self.KEY, src), "LSVD013") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), async_allow=("core/write_path.py::destage",)
        )
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD013") == []

    def test_outside_async_dirs_is_exempt(self):
        assert only(lint_src("analysis/report.py", self.BAD), "LSVD013") == []


# ---------------------------------------------------------------------------
# --rule / --explain CLI surface
# ---------------------------------------------------------------------------


class TestExplainCli:
    def test_every_rule_docstring_has_all_sections(self):
        for cls in ALL_RULES:
            sections = rule_sections(cls)
            for header in ("Invariant", "Example violation", "Paper"):
                assert header in sections, f"{cls.code} lacks {header}:"
                assert sections[header].strip(), f"{cls.code} has empty {header}:"

    def test_explain_one_rule(self, capsys):
        assert lint_main(["--rule", "LSVD010", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "LSVD010" in out
        assert "Invariant:" in out
        assert "Paper:" in out
        assert "LSVD011" not in out

    def test_explain_all_rules(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.code in out

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        assert lint_main(["--rule", "LSVD099", "--explain"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_rule_flag_restricts_the_run(self):
        # a module that violates LSVD001 is clean under --rule LSVD011
        runner_codes = {
            cls.code: cls for cls in ALL_RULES
        }
        assert "LSVD011" in runner_codes
        config = replace(LintConfig(), select=("LSVD011",))
        diags = lint_src(
            "analysis/report.py",
            """
            def sneaky(store, data):
                store.put("vol.00000042", data)
            """,
            config,
        )
        assert codes(diags) == []

    def test_explain_text_mentions_paper_sections(self):
        text = explain_rules(["LSVD011"])
        assert "§3.2" in text

    def test_help_names_the_registered_code_range(self):
        from repro.lint.cli import build_parser

        text = " ".join(build_parser().format_help().split())
        assert f"(LSVD001-LSVD{len(ALL_RULES):03d})" in text
        assert "LSVD013)" not in text  # the range once hard-coded there


# ---------------------------------------------------------------------------
# the four flow rules expose their metadata consistently
# ---------------------------------------------------------------------------


class TestFlowRuleRegistry:
    def test_flow_rules_are_registered(self):
        registered = {cls.code for cls in ALL_RULES}
        assert {"LSVD010", "LSVD011", "LSVD012", "LSVD013"} <= registered

    def test_codes_and_names(self):
        assert SettlementLeakRule.code == "LSVD010"
        assert DurabilityOrderingRule.code == "LSVD011"
        assert RecoveryMutationOrderRule.code == "LSVD012"
        assert AsyncCancellationRule.code == "LSVD013"
        names = {
            SettlementLeakRule.name,
            DurabilityOrderingRule.name,
            RecoveryMutationOrderRule.name,
            AsyncCancellationRule.name,
        }
        assert len(names) == 4


# ---------------------------------------------------------------------------
# LSVD014 barrier-coalescing-safety
# ---------------------------------------------------------------------------


class TestBarrierCoalescing:
    KEY = "runtime/lsvd.py"

    BAD_FIRE_AND_FORGET = """
        def _group_commit_worker(self):
            while True:
                first = yield self._barrier_q.get()
                group = [first]
                group.extend(self._barrier_q.drain())
                self.machine.ssd.flush()
                for waiter in group:
                    waiter.succeed()
    """

    def test_unyielded_flush_is_flagged(self):
        # in a coroutine a bare ssd.flush() returns an Event nobody waits
        # on: the barriers settle before the device flushed anything
        diags = only(lint_src(self.KEY, self.BAD_FIRE_AND_FORGET), "LSVD014")
        assert len(diags) == 1
        assert "yielded/awaited" in diags[0].message

    def test_settle_without_any_flush_is_flagged(self):
        src = """
            def barrier(self, done):
                self.barriers += 1  # lint: disable=LSVD007 -- fixture
                done.succeed()
        """
        diags = only(lint_src(self.KEY, src), "LSVD014")
        assert len(diags) == 1

    def test_flush_on_only_one_branch_is_flagged(self):
        src = """
            def _serial_barrier(self, done):
                yield from self.machine.cpu_work(self.params.barrier_cpu)
                if self._dirty:
                    yield self.machine.ssd.flush()
                done.succeed()
        """
        diags = only(lint_src(self.KEY, src), "LSVD014")
        assert len(diags) == 1

    def test_yielded_flush_before_group_settle_is_clean(self):
        src = """
            def _group_commit_worker(self):
                while True:
                    first = yield self._barrier_q.get()
                    group = [first]
                    group.extend(self._barrier_q.drain())
                    yield self.machine.ssd.flush()
                    for waiter in group:
                        waiter.succeed()
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_plain_function_flush_call_is_clean(self):
        src = """
            def barrier(self, done):
                self.image.flush()
                done.succeed()
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_non_barrier_functions_are_not_checked(self):
        # writes are acked after the SSD log write, not after a flush
        src = """
            def _write(self, op, done):
                yield self.machine.ssd.write(0, op.length)
                done.succeed()
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_gate_release_is_not_a_settlement_site(self):
        # waking gated *writers* is not acknowledging a barrier caller
        src = """
            def _serial_barrier(self, done):
                yield self.machine.ssd.flush()
                done.succeed()
                while self._gate_waiters:
                    self._gate_waiters.popleft().succeed()
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_suppressed_with_disable_comment(self):
        src = """
            def barrier(self, done):
                done.succeed()  # lint: disable=LSVD014 -- fixture
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_scoped_allowlist_exempts_one_function(self):
        config = replace(
            LintConfig(),
            barrier_allow=("runtime/lsvd.py::_group_commit_worker",),
        )
        diags = only(
            lint_src(self.KEY, self.BAD_FIRE_AND_FORGET, config), "LSVD014"
        )
        assert diags == []

    def test_outside_barrier_modules_is_not_checked(self):
        diags = only(
            lint_src("analysis/report.py", self.BAD_FIRE_AND_FORGET),
            "LSVD014",
        )
        assert diags == []

    def test_registered_with_metadata(self):
        from repro.lint.rules.barrier_commit import BarrierCoalescingRule

        assert BarrierCoalescingRule.code == "LSVD014"
        assert BarrierCoalescingRule.name == "barrier-coalescing-safety"
        assert BarrierCoalescingRule in ALL_RULES
        assert "§3.2" in explain_rules(["LSVD014"])


# ---------------------------------------------------------------------------
# LSVD015 span-hygiene
# ---------------------------------------------------------------------------


class TestSpanHygiene:
    # core/block_store.py sits in the span dirs and is exempt from the
    # LSVD001 layering rule, so fixtures only exercise LSVD015
    KEY = "core/block_store.py"

    BAD = """
        def put_one(self, span, shard, name, data):
            stage = span.begin("shard_put")
            handle = shard.put(name, data)
            self.settle(handle)
    """

    def test_leaked_span_is_flagged(self):
        diags = only(lint_src(self.KEY, self.BAD), "LSVD015")
        assert len(diags) == 1
        assert diags[0].line == 3
        assert "stage" in diags[0].message

    def test_discarded_begin_is_flagged(self):
        src = """
            def mark(self, span):
                span.begin("wc_append")
        """
        diags = only(lint_src(self.KEY, src), "LSVD015")
        assert len(diags) == 1
        assert "discarded" in diags[0].message

    def test_ended_span_is_clean(self):
        src = """
            def put_one(self, span, shard, name, data):
                stage = span.begin("shard_put")
                handle = shard.put(name, data)
                stage.end()
                self.settle(handle)
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_adopted_span_is_clean(self):
        # passing the handle to a callee adopts it: the callee now owns
        # closing the stage (`store.put(name, data, span=stage)`)
        src = """
            def put_one(self, span, store, name, data):
                stage = span.begin("backend_put")
                handle = store.put(name, data, span=stage)
                self.settle(handle)
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_returned_span_is_clean(self):
        src = """
            def open_stage(self, span):
                return span.begin("barrier_queue", kind="queue")
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_root_from_recorder_is_tracked(self):
        src = """
            def write(self, data):
                span = self.obs.spans.root("write", bytes=len(data))
                self.wc.append(data)
        """
        diags = only(lint_src(self.KEY, src), "LSVD015")
        assert len(diags) == 1
        assert "span" in diags[0].message

    def test_early_return_leak_is_flagged(self):
        src = """
            def put_one(self, span, name, data):
                stage = span.begin("wc_append")
                if not data:
                    return None
                stage.end()
        """
        diags = only(lint_src(self.KEY, src), "LSVD015")
        assert len(diags) == 1
        assert diags[0].line == 3

    def test_ended_on_both_exits_is_clean(self):
        src = """
            def select(self, span, pool):
                stage = span.begin("gc_select")
                if not pool:
                    stage.end(victims=0)
                    return None
                stage.end(victims=len(pool))
                return pool
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_raising_path_is_forgiven(self):
        src = """
            def put_one(self, span, name, data):
                stage = span.begin("wc_append")
                if not data:
                    raise ValueError("empty write")
                stage.end()
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_overwrite_loses_the_first_span(self):
        src = """
            def two_stages(self, span):
                stage = span.begin("first")
                stage = span.begin("second")
                stage.end()
        """
        diags = only(lint_src(self.KEY, src), "LSVD015")
        assert len(diags) == 1
        assert diags[0].line == 3

    def test_unrelated_receiver_is_ignored(self):
        src = """
            def walk(self, tree):
                node = tree.begin("iteration")
                return None
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_suppression_comment_silences(self):
        src = """
            def put_one(self, span, shard, name, data):
                stage = span.begin("shard_put")  # lint: disable=LSVD015 -- ended by worker
                self.settle(shard.put(name, data))
        """
        assert only(lint_src(self.KEY, src), "LSVD015") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), span_allow=("core/block_store.py::put_one",)
        )
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD015") == []

    def test_allowlisted_module_is_exempt(self):
        config = replace(LintConfig(), span_allow=("core/block_store.py",))
        assert only(lint_src(self.KEY, self.BAD, config), "LSVD015") == []

    def test_outside_span_dirs_is_exempt(self):
        assert only(lint_src("analysis/report.py", self.BAD), "LSVD015") == []

    def test_bare_files_are_always_in_scope(self):
        # benchmarks/examples live outside any repro package; span leaks
        # there corrupt the attributions the benchmark gates check
        runner = LintRunner([cls() for cls in ALL_RULES], LintConfig())
        diags = runner.check_source(
            "obs_smoke.py", textwrap.dedent(self.BAD)
        )
        assert len(only(diags, "LSVD015")) == 1

    def test_registered_with_metadata(self):
        from repro.lint.rules.span_hygiene import SpanHygieneRule

        assert SpanHygieneRule.code == "LSVD015"
        assert SpanHygieneRule.name == "span-hygiene"
        assert SpanHygieneRule in ALL_RULES
        assert "§4.4" in explain_rules(["LSVD015"])


# ---------------------------------------------------------------------------
# LSVD016 tenant-isolation
# ---------------------------------------------------------------------------


class TestTenantIsolation:
    # core/volume.py is one of the fleet entry layers (fleet_modules), so
    # both the confinement and the admission checks apply there
    KEY = "core/volume.py"

    CONSTRUCTION = """
        def setup(self):
            self.bucket = QoSTokenBucket(500.0)
    """

    UNGUARDED = """
        def write(self, offset, data):
            span = self.obs.spans.root("write")
            self.wc.append([(offset, data)])
    """

    GUARDED = """
        def write(self, offset, data):
            if self.qos is not None:
                self.qos.admit("write", len(data))
            self.wc.append([(offset, data)])
    """

    def test_bucket_construction_outside_fleet_is_flagged(self):
        diags = only(lint_src(self.KEY, self.CONSTRUCTION), "LSVD016")
        assert len(diags) == 1
        assert "QoSTokenBucket" in diags[0].message

    def test_every_enforcement_class_is_confined(self):
        for cls in ("TenantThrottle", "ThrottleSet", "CoreAdmission"):
            src = f"""
                def setup(self):
                    self.t = {cls}("acme")
            """
            diags = only(lint_src(self.KEY, src), "LSVD016")
            assert len(diags) == 1, cls

    def test_qos_limits_are_policy_not_enforcement(self):
        src = """
            def setup(self):
                self.limits = QoSLimits(iops=500.0)
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_cross_tenant_state_outside_fleet_is_flagged(self):
        src = """
            def bypass(self, tenant):
                return self._throttles[tenant]
        """
        diags = only(lint_src(self.KEY, src), "LSVD016")
        assert len(diags) == 1
        assert "_throttles" in diags[0].message

    def test_fleet_package_is_exempt_from_confinement(self):
        assert only(lint_src("fleet/qos.py", self.CONSTRUCTION), "LSVD016") == []

    def test_unguarded_forward_in_entry_point_is_flagged(self):
        diags = only(lint_src(self.KEY, self.UNGUARDED), "LSVD016")
        assert len(diags) == 1
        assert diags[0].line == 4
        assert "wc.append()" in diags[0].message

    def test_admission_guarded_forward_is_clean(self):
        assert only(lint_src(self.KEY, self.GUARDED), "LSVD016") == []

    def test_unconditional_admit_is_clean(self):
        src = """
            def write(self, offset, data):
                self.qos.admit("write", len(data))
                self.wc.append([(offset, data)])
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_no_tenant_branch_is_evidence(self):
        # the true side of `qos is None` proves there is nothing to
        # charge; only the other path needs an admit call
        src = """
            def write(self, offset, data):
                if self.qos is None:
                    self.wc.append([(offset, data)])
                else:
                    self.qos.admit("write", len(data))
                    self.wc.append([(offset, data)])
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_partial_path_violation_is_flagged(self):
        # admission happens on one branch but the forward is reachable
        # from the un-admitted branch too
        src = """
            def write(self, offset, data):
                if self.fast_path:
                    pass
                else:
                    self.qos.admit("write", len(data))
                self.wc.append([(offset, data)])
        """
        diags = only(lint_src(self.KEY, src), "LSVD016")
        assert len(diags) == 1
        assert diags[0].line == 7

    def test_non_entry_function_is_ignored(self):
        src = """
            def destage_batch(self, batch):
                self.wc.append(batch)
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_unrelated_receiver_is_ignored(self):
        src = """
            def write(self, offset, data):
                self.pending.append((offset, data))
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_outside_fleet_modules_no_admission_check(self):
        # modules outside the entry layers only get the confinement
        # check; their writes do not need admission evidence
        assert only(lint_src("devices/image.py", self.UNGUARDED), "LSVD016") == []

    def test_suppression_comment_silences(self):
        src = """
            def write(self, offset, data):
                self.wc.append([(offset, data)])  # lint: disable=LSVD016 -- admitted by caller
        """
        assert only(lint_src(self.KEY, src), "LSVD016") == []

    def test_allowlisted_function_is_exempt(self):
        config = replace(
            LintConfig(), fleet_admission_allow=("core/volume.py::write",)
        )
        assert only(lint_src(self.KEY, self.UNGUARDED, config), "LSVD016") == []

    def test_fleet_allow_extends_confinement_scope(self):
        config = replace(
            LintConfig(), fleet_allow=("fleet/", "core/volume.py")
        )
        assert only(lint_src(self.KEY, self.CONSTRUCTION, config), "LSVD016") == []

    def test_registered_with_metadata(self):
        from repro.lint.rules.tenant_isolation import TenantIsolationRule

        assert TenantIsolationRule.code == "LSVD016"
        assert TenantIsolationRule.name == "tenant-isolation"
        assert TenantIsolationRule in ALL_RULES
        assert "§4.5" in explain_rules(["LSVD016"])


# ---------------------------------------------------------------------------
# LSVD017 placement-confinement
# ---------------------------------------------------------------------------


class TestPlacementConfinement:
    # core/gc.py consumes placement (placement_modules) but does not own
    # it, so both the confinement and the relocation-flow checks apply
    KEY = "core/gc.py"

    CONSTRUCTION = """
        def setup(self):
            self.policy = SepBitPolicy()
    """

    UNGUARDED = """
        def requeue(self, batch, pieces, temp):
            batch.seal_gc_batch(7, b"u", pieces, last_record_seq=0, temp=temp)
    """

    GUARDED = """
        def execute(self, plan, batch):
            for temp, chunk in plan_relocation(plan.pieces, self.policy, 65536):
                batch.seal_gc_batch(7, b"u", chunk, last_record_seq=0, temp=temp)
    """

    def test_policy_construction_outside_placement_is_flagged(self):
        diags = only(lint_src(self.KEY, self.CONSTRUCTION), "LSVD017")
        assert len(diags) == 1
        assert "SepBitPolicy" in diags[0].message

    def test_both_policy_classes_are_confined(self):
        for cls in ("SepBitPolicy", "SingleClassPolicy"):
            src = f"""
                def setup(self):
                    self.policy = {cls}()
            """
            assert len(only(lint_src(self.KEY, src), "LSVD017")) == 1, cls

    def test_make_policy_is_blessed_everywhere(self):
        src = """
            def setup(self, config):
                self.policy = make_policy(config)
        """
        assert only(lint_src(self.KEY, src), "LSVD017") == []

    def test_classifier_state_outside_placement_is_flagged(self):
        src = """
            def peek(self, policy, page):
                return policy._page_temp[page]
        """
        diags = only(lint_src(self.KEY, src), "LSVD017")
        assert len(diags) == 1
        assert "_page_temp" in diags[0].message

    def test_temp_arithmetic_outside_placement_is_flagged(self):
        src = """
            def demote(self, temp):
                return TEMP_HOT + 1
        """
        diags = only(lint_src(self.KEY, src), "LSVD017")
        assert len(diags) == 1
        assert "TEMP_HOT" in diags[0].message

    def test_temp_comparison_and_indexing_are_reads_not_classification(self):
        src = """
            def report(self, temp, rows):
                if temp == TEMP_COLD:
                    return rows[TEMP_COLD]
                return [0] * NUM_TEMPS
        """
        assert only(lint_src(self.KEY, src), "LSVD017") == []

    def test_placement_module_is_exempt(self):
        diags = lint_src("core/placement.py", self.CONSTRUCTION)
        assert only(diags, "LSVD017") == []

    def test_unclassified_relocation_write_is_flagged(self):
        diags = only(lint_src(self.KEY, self.UNGUARDED), "LSVD017")
        assert len(diags) == 1
        assert "seal_gc_batch()" in diags[0].message
        assert "classifier" in diags[0].message

    def test_relocation_through_planner_is_clean(self):
        assert only(lint_src(self.KEY, self.GUARDED), "LSVD017") == []

    def test_gc_true_store_requires_classifier_in_simulator(self):
        src = """
            def shortcut(self, pages, temp):
                self._store_object(pages, gc=True, temp=temp)
        """
        diags = only(lint_src("gcsim/simulator.py", src), "LSVD017")
        assert len(diags) == 1

    def test_destage_store_is_not_a_relocation_write(self):
        # gc=False is the on_write-classified destage path
        src = """
            def _flush(self, pages, temp):
                self._store_object(pages, gc=False, temp=temp)
        """
        assert only(lint_src("gcsim/simulator.py", src), "LSVD017") == []

    def test_flow_check_only_runs_in_placement_modules(self):
        assert only(lint_src("analysis/report.py", self.UNGUARDED), "LSVD017") == []

    def test_flow_allowlist_exempts_helper(self):
        config = replace(
            LintConfig(), placement_flow_allow=("core/gc.py::requeue",)
        )
        src = self.UNGUARDED
        assert only(lint_src(self.KEY, src, config), "LSVD017") == []

    def test_suppression_comment_silences(self):
        src = """
            def setup(self):
                self.policy = SepBitPolicy()  # lint: disable=LSVD017 -- reviewed
        """
        assert only(lint_src(self.KEY, src), "LSVD017") == []
