"""Fixture tests for the flow-sensitive rules (LSVD010, 011, 014, 016, 017).

Mirrors ``tests/test_lint_rules.py``: each rule gets a violating
fixture, clean variants (one per way of discharging the obligation),
and a suppressed variant; LSVD010 also an allowlisted one.  Also covers the
``--rule`` / ``--explain`` CLI surface the flow rules introduced.
"""

import textwrap
from dataclasses import replace

from repro.lint import ALL_RULES, LintConfig, LintRunner
from repro.lint.cli import explain_rules, main as lint_main, rule_sections
from repro.lint.rules.durability import DurabilityOrderingRule
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
    # core/block_store.py sits in the settlement dirs
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

    def test_callback_hung_on_the_put_is_evidence(self):
        # the record form of `yield backend.put(..)`: the callback runs
        # only once the PUT has settled
        src = """
            class _Destager:
                def _put(self):
                    self.rt.backend.put("obj", 4096).callbacks.append(self._put_done)

                def _put_done(self, _put):
                    self.rt._release_space(4096)
        """
        assert only(lint_src("runtime/lsvd.py", src), "LSVD011") == []

    def test_callback_hung_on_another_event_is_flagged(self):
        src = """
            class _Destager:
                def _get(self):
                    self.rt.backend.get_range("obj", 0, 4096).callbacks.append(self._put_done)

                def _put_done(self, _get):
                    self.rt._release_space(4096)
        """
        diags = only(lint_src("runtime/lsvd.py", src), "LSVD011")
        assert [d.line for d in diags] == [7]

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
# --rule / --explain CLI surface
# ---------------------------------------------------------------------------


class TestExplainCli:
    def test_every_rule_docstring_has_all_sections(self):
        for cls in ALL_RULES:
            sections = rule_sections(cls)
            for header in ("Invariant", "Example violation", "Paper", "Evidence"):
                assert header in sections, f"{cls.code} lacks {header}:"
                assert sections[header].strip(), f"{cls.code} has empty {header}:"
            assert len(sections["Evidence"].splitlines()) <= 4, cls.code

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
        assert out.count("\nEvidence:\n") == len(ALL_RULES)

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        assert lint_main(["--rule", "LSVD099", "--explain"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_rule_flag_restricts_the_run(self):
        # a module that violates LSVD003 is clean under --rule LSVD011
        src = """
            import time

            def stamp(self):
                return time.time()
        """
        assert codes(lint_src("core/volume.py", src)) == ["LSVD003"]
        config = replace(LintConfig(), select=("LSVD011",))
        assert codes(lint_src("core/volume.py", src, config)) == []

    def test_explain_text_mentions_paper_sections(self):
        text = explain_rules(["LSVD011"])
        assert "§3.2" in text

    def test_help_names_the_registered_code_range(self):
        from repro.lint.cli import build_parser

        text = " ".join(build_parser().format_help().split())
        assert f"({ALL_RULES[0].code}-{ALL_RULES[-1].code})" in text
        assert "LSVD013)" not in text  # the range once hard-coded there


# ---------------------------------------------------------------------------
# the flow rules expose their metadata consistently
# ---------------------------------------------------------------------------


class TestFlowRuleRegistry:
    def test_flow_rules_are_registered(self):
        registered = {cls.code for cls in ALL_RULES}
        assert {"LSVD010", "LSVD011", "LSVD014", "LSVD016", "LSVD017"} <= registered

    def test_codes_and_names(self):
        assert SettlementLeakRule.code == "LSVD010"
        assert DurabilityOrderingRule.code == "LSVD011"
        assert len({cls.name for cls in ALL_RULES}) == len(ALL_RULES)


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

    def test_settle_callback_hung_on_the_flush_is_clean(self):
        # the record form of the group commit: the settle step runs as
        # the completion callback of the covering FLUSH
        src = """
            class _Committer:
                def _flush(self):
                    self.rt.machine.ssd.flush().callbacks.append(self._settle_barriers)

                def _settle_barriers(self, _flush):
                    for done, span in self.group:
                        done.succeed()
        """
        assert only(lint_src(self.KEY, src), "LSVD014") == []

    def test_settle_callback_hung_on_a_non_flush_event_is_flagged(self):
        src = """
            class _Committer:
                def _flush(self):
                    self.rt.machine.ssd.write(0, 4096).callbacks.append(self._settle_barriers)

                def _settle_barriers(self, _write):
                    for done, span in self.group:
                        done.succeed()
        """
        diags = only(lint_src(self.KEY, src), "LSVD014")
        assert [d.line for d in diags] == [8]

    def test_settle_callback_also_called_directly_is_flagged(self):
        # one registration on the flush does not cover a direct call
        src = """
            class _Committer:
                def _flush(self):
                    self.rt.machine.ssd.flush().add_callback(self._settle_barriers)

                def _quiesce(self):
                    self._settle_barriers(None)

                def _settle_barriers(self, _flush):
                    for done, span in self.group:
                        done.succeed()
        """
        diags = only(lint_src(self.KEY, src), "LSVD014")
        assert [d.line for d in diags] == [11]

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

    def test_suppression_comment_silences(self):
        src = """
            def setup(self):
                self.policy = SepBitPolicy()  # lint: disable=LSVD017 -- reviewed
        """
        assert only(lint_src(self.KEY, src), "LSVD017") == []
