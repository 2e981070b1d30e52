"""Tests for the whole-program protocol verifier.

Covers the CFG/dataflow engine, the three protocol rule families
(sync-protocol + sync-lock-order, state-machine-conformance,
frame-protocol-symmetry), stable finding fingerprints, the baseline
workflow, and the parse cache.  Each rule gets a seeded-violation
fixture asserting the exact finding and a clean twin asserting silence;
a mutation test flips one transition in a copy of the real controller
source and requires the conformance rule to catch exactly it.
"""

import ast
import json
import os
import textwrap

import pytest

import repro
from repro.analysis import (
    Project,
    load_baseline,
    partition,
    render_baseline,
    render_json,
    render_sarif,
    run_analysis,
    write_baseline,
)
from repro.analysis.baseline import BaselineError
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve_forward
from repro.cli import main as cli_main

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(REPRO_ROOT))


def analyze(sources, rules=None):
    return run_analysis(Project.from_sources(sources), rule_names=rules)


def src(text):
    """Dedent a fixture and drop the leading blank line, so the first
    source line is line 1 and asserted line numbers stay readable."""
    return textwrap.dedent(text).lstrip("\n")


def _func(source):
    return ast.parse(src(source)).body[0]


# -- CFG / dataflow engine ----------------------------------------------------


class TestCFGDataflow:
    def test_linear_function_reaches_exit(self):
        cfg = build_cfg(_func("""
            def f():
                x = 1
                return x
        """))
        solution = solve_forward(cfg, frozenset({"seed"}), lambda n, f: f)
        assert solution.reachable(cfg.exit)
        assert solution.in_fact(cfg.exit) == frozenset({"seed"})

    def test_exception_edge_carries_pre_statement_fact(self):
        # The raising statement's own effects must not appear on the
        # exception path: the exception edge propagates the IN fact.
        cfg = build_cfg(_func("""
            def f():
                risky()
        """))

        def transfer(node, fact):
            if node.kind == "stmt":
                return fact | {"after-call"}
            return fact

        solution = solve_forward(cfg, frozenset(), transfer)
        assert solution.reachable(cfg.raise_exit)
        assert "after-call" not in solution.in_fact(cfg.raise_exit)
        assert "after-call" in solution.in_fact(cfg.exit)

    def test_return_routes_through_finally(self):
        cfg = build_cfg(_func("""
            def f():
                try:
                    return 1
                finally:
                    cleanup()
        """))
        seen = []

        def transfer(node, fact):
            if node.kind == "stmt":
                seen.append(node.line)
                return fact | {"cleaned"}
            return fact

        solution = solve_forward(cfg, frozenset(), transfer)
        assert solution.reachable(cfg.exit)
        assert "cleaned" in solution.in_fact(cfg.exit)

    def test_branch_facts_join_at_merge(self):
        cfg = build_cfg(_func("""
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
        """))

        def transfer(node, fact):
            if node.kind == "stmt" and node.line in (3, 5):
                return fact | {node.line}
            return fact

        solution = solve_forward(cfg, frozenset(), transfer)
        assert {3, 5} <= set(solution.in_fact(cfg.exit))


# -- sync-protocol ------------------------------------------------------------


LEAK = {
    "fleet/worker.py": src("""
        class Worker:
            def run(self):
                gate = self._lock.acquire()
                yield gate
                self._work()
                self._lock.release()
    """)
}

LEAK_FIXED = {
    "fleet/worker.py": src("""
        class Worker:
            def run(self):
                gate = self._lock.acquire()
                try:
                    yield gate
                    self._work()
                finally:
                    self._lock.release()
    """)
}


class TestSyncProtocol:
    def test_exception_path_leak_is_flagged(self):
        findings, _ = analyze(LEAK, rules=["sync-protocol"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "fleet/worker.py"
        assert finding.line == 3
        assert finding.symbol == "Worker.run"
        assert "'self._lock' acquired here may still be held" in \
            finding.message
        assert "unwinds on an exception" in finding.message

    def test_try_finally_release_is_clean(self):
        findings, _ = analyze(LEAK_FIXED, rules=["sync-protocol"])
        assert findings == []

    def test_held_context_manager_is_clean(self):
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self):
                        with self._lock.held() as gate:
                            yield gate
                            self._work()
            """)
        }, rules=["sync-protocol"])
        assert findings == []

    def test_double_release_is_flagged(self):
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self):
                        yield self._lock.acquire()
                        self._lock.release()
                        self._lock.release()
            """)
        }, rules=["sync-protocol"])
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "no path holds it" in findings[0].message

    def test_double_acquire_is_flagged(self):
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self):
                        yield self._lock.acquire()
                        yield self._lock.acquire()
                        self._lock.release()
            """)
        }, rules=["sync-protocol"])
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "may already be held" in findings[0].message

    def test_per_key_map_locks_are_not_double_acquire(self):
        # Different subscripts share one widened resource
        # (self._vm_locks[*]); acquiring two map entries is legitimate,
        # so the double-acquire check skips subscripted keys, and one
        # release clears the widened hold.
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self, a, b):
                        yield self._vm_locks[a].acquire()
                        yield self._vm_locks[b].acquire()
                        self._vm_locks[a].release()
            """)
        }, rules=["sync-protocol"])
        assert findings == []

    def test_yield_in_no_yield_region_is_flagged(self):
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self):
                        self._lock.acquire()  # repro-sync: no-yield
                        try:
                            yield 1.0
                        finally:
                            self._lock.release()
            """)
        }, rules=["sync-protocol"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.line == 5
        assert "yield while holding 'self._lock'" in finding.message
        assert "marked no-yield" in finding.message

    def test_held_outside_with_is_flagged(self):
        findings, _ = analyze({
            "fleet/worker.py": src("""
                class Worker:
                    def run(self):
                        hold = self._lock.held()
                        hold.__enter__()
            """)
        }, rules=["sync-protocol"])
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "must be the context manager" in findings[0].message

    def test_suppression_directive_silences(self):
        source = LEAK["fleet/worker.py"].replace(
            "gate = self._lock.acquire()",
            "gate = self._lock.acquire()  # repro-lint: disable=sync-protocol")
        findings, suppressed = analyze({"fleet/worker.py": source},
                                       rules=["sync-protocol"])
        assert findings == []
        assert suppressed == 1


# -- sync-lock-order ----------------------------------------------------------


CYCLE = {
    "fleet/controller.py": src("""
        class Controller:
            def first(self):
                with self._alpha.held() as a:
                    yield a
                    with self._beta.held() as b:
                        yield b

            def second(self):
                with self._beta.held() as b:
                    yield b
                    with self._alpha.held() as a:
                        yield a
    """)
}


class TestSyncLockOrder:
    def test_opposite_nesting_orders_are_a_cycle(self):
        findings, _ = analyze(CYCLE, rules=["sync-lock-order"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "Controller"
        assert "lock-order cycle between {self._alpha, self._beta}" in \
            finding.message

    def test_consistent_order_is_clean(self):
        consistent = src("""
            class Controller:
                def first(self):
                    with self._alpha.held() as a:
                        yield a
                        with self._beta.held() as b:
                            yield b

                def second(self):
                    with self._alpha.held() as a:
                        yield a
                        with self._beta.held() as b:
                            yield b
        """)
        findings, _ = analyze({"fleet/controller.py": consistent},
                              rules=["sync-lock-order"])
        assert findings == []

    def test_cross_method_acquire_while_held_is_an_edge(self):
        findings, _ = analyze({
            "fleet/controller.py": src("""
                class Controller:
                    def outer(self):
                        with self._alpha.held() as a:
                            yield a
                            yield from self._nested()

                    def _nested(self):
                        with self._beta.held() as b:
                            yield b
                            with self._alpha.held() as a:
                                yield a
            """)
        }, rules=["sync-lock-order"])
        # outer: alpha -> beta (transitively through _nested), and
        # _nested itself: beta -> alpha — a cross-method cycle.
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_rollback_shape_has_no_false_cycle(self):
        # Regression: exception-path facts must not flow through a with
        # block's normal exit into the loop back-edge.  The merged-exit
        # CFG reported a spurious ledger -> vm-lock edge here.
        findings, _ = analyze({
            "fleet/controller.py": src("""
                class Controller:
                    def roll_back(self, names):
                        for name in names:
                            with self._vm_locks[name].held() as gate:
                                yield gate
                                yield self._ledger.reserve(name)
                                with self._link.held() as link:
                                    yield link
                                    self._stream(name)
                                self._commit(name)

                    def _commit(self, name):
                        self._ledger.release(name)
            """)
        }, rules=["sync-lock-order"])
        assert findings == []


# -- state-machine-conformance ------------------------------------------------


_STATE_TEMPLATE = src("""
    from enum import Enum
    from typing import Dict, FrozenSet


    class HostState(Enum):
        PENDING = "pending"
        RUNNING = "running"
        FAILED = "failed"
        DONE = "done"

        @property
        def terminal(self) -> bool:
            return self in @TERMINAL@


    LEGAL_TRANSITIONS: Dict[HostState, FrozenSet[HostState]] = {
    @RELATION@
    }


    class HostRecord:
        state: HostState = HostState.PENDING
""")


def _state_decl(relation, terminal="(HostState.DONE,)"):
    return _STATE_TEMPLATE.replace("@TERMINAL@", terminal) \
        .replace("@RELATION@", relation.rstrip("\n"))


GOOD_RELATION = """\
    HostState.PENDING: frozenset({HostState.RUNNING}),
    HostState.RUNNING: frozenset({HostState.DONE, HostState.FAILED}),
    HostState.FAILED: frozenset({HostState.RUNNING}),
    HostState.DONE: frozenset(),
"""


class TestStateMachineDeclaration:
    def test_well_formed_relation_is_clean(self):
        findings, _ = analyze({
            "fleet/state.py": _state_decl(GOOD_RELATION),
        }, rules=["state-machine-conformance"])
        assert findings == []

    def test_missing_relation_entry_is_flagged(self):
        relation = "\n".join(
            line for line in GOOD_RELATION.splitlines()
            if "FAILED:" not in line)
        findings, _ = analyze({
            "fleet/state.py": _state_decl(relation),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "HostState.FAILED has no entry in LEGAL_TRANSITIONS" in \
            findings[0].message

    def test_terminal_with_outgoing_edges_is_flagged(self):
        findings, _ = analyze({
            "fleet/state.py": _state_decl(
                GOOD_RELATION,
                terminal="(HostState.DONE, HostState.FAILED)"),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "HostState.FAILED is declared terminal but has outgoing " \
            "transitions" in findings[0].message

    def test_absorbing_state_missing_from_terminal_property(self):
        relation = GOOD_RELATION.replace(
            "HostState.FAILED: frozenset({HostState.RUNNING}),",
            "HostState.FAILED: frozenset(),")
        findings, _ = analyze({
            "fleet/state.py": _state_decl(relation),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "the terminal property does not include it" in \
            findings[0].message

    def test_unreachable_state_is_flagged(self):
        source = _state_decl(GOOD_RELATION).replace(
            'DONE = "done"',
            'DONE = "done"\n    ORPHAN = "orphan"').replace(
            "HostState.DONE: frozenset(),",
            "HostState.DONE: frozenset(),\n"
            "    HostState.ORPHAN: frozenset({HostState.DONE}),")
        findings, _ = analyze({"fleet/state.py": source},
                              rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "HostState.ORPHAN is unreachable from the initial state " \
            "HostState.PENDING" in findings[0].message

    def test_livelock_pocket_is_flagged(self):
        # FAILED <-> RUNNING with no path to DONE left.
        relation = GOOD_RELATION.replace(
            "frozenset({HostState.DONE, HostState.FAILED})",
            "frozenset({HostState.FAILED})")
        findings, _ = analyze({
            "fleet/state.py": _state_decl(relation),
        }, rules=["state-machine-conformance"])
        messages = [f.message for f in findings]
        assert any("cannot reach any terminal state" in m for m in messages)


class TestStateMachineConformance:
    DECL = {"fleet/state.py": _state_decl(GOOD_RELATION)}

    def test_legal_transition_chain_is_clean(self):
        findings, _ = analyze({
            **self.DECL,
            "fleet/controller.py": src("""
                class Controller:
                    def run(self, record):
                        record.transition(HostState.RUNNING)
                        yield 1.0
                        if record.ok:
                            record.transition(HostState.DONE)
                        else:
                            record.transition(HostState.FAILED)
            """),
        }, rules=["state-machine-conformance"])
        assert findings == []

    def test_undeclared_transition_is_flagged(self):
        findings, _ = analyze({
            **self.DECL,
            "fleet/controller.py": src("""
                class Controller:
                    def run(self, record):
                        record.transition(HostState.DONE)
            """),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "Controller.run"
        assert "undeclared transition to HostState.DONE" in finding.message
        assert "{PENDING}" in finding.message

    def test_transition_to_unknown_state_is_flagged(self):
        findings, _ = analyze({
            **self.DECL,
            "fleet/controller.py": src("""
                class Controller:
                    def run(self, record):
                        record.transition(HostState.EXPLODED)
            """),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "unknown state HostState.EXPLODED" in findings[0].message

    def test_state_threads_through_helper_calls(self):
        # run -> RUNNING, then the helper's transitions are judged from
        # RUNNING (legal), and the caller continues from the helper's
        # exit states — DONE from FAILED would be illegal and is flagged.
        findings, _ = analyze({
            **self.DECL,
            "fleet/controller.py": src("""
                class Controller:
                    def run(self, record):
                        record.transition(HostState.RUNNING)
                        yield from self._fail(record)
                        record.transition(HostState.DONE)

                    def _fail(self, record):
                        record.transition(HostState.FAILED)
                        yield 1.0
            """),
        }, rules=["state-machine-conformance"])
        assert len(findings) == 1
        assert "undeclared transition to HostState.DONE" in \
            findings[0].message
        assert "{FAILED}" in findings[0].message

    def test_spawned_generator_does_not_pollute_caller(self):
        # _host() is handed to a process driver, not iterated inline: the
        # caller's state set must stay {PENDING} after the spawn, so the
        # second spawn in the loop body is still judged from PENDING.
        findings, _ = analyze({
            **self.DECL,
            "fleet/controller.py": src("""
                class Controller:
                    def run(self, records):
                        for record in records:
                            self._drive(self._host(record))

                    def _host(self, record):
                        record.transition(HostState.RUNNING)
                        yield 1.0
                        record.transition(HostState.DONE)
            """),
        }, rules=["state-machine-conformance"])
        assert findings == []


class TestControllerMutation:
    """Flip one transition in a copy of the real controller source: the
    conformance rule must catch exactly that edge, and nothing else."""

    def _sources(self):
        sources = {}
        for rel in ("fleet/state.py", "fleet/controller.py",
                    "fleet/failures.py"):
            full = os.path.join(REPRO_ROOT, rel.replace("/", os.sep))
            with open(full, "r", encoding="utf-8") as handle:
                sources[rel] = handle.read()
        return sources

    def test_pristine_controller_is_clean(self):
        findings, _ = analyze(self._sources(),
                              rules=["state-machine-conformance"])
        assert findings == []

    def test_flipped_transition_is_caught_exactly_once(self):
        sources = self._sources()
        assert "HostState.EVACUATING" in sources["fleet/controller.py"]
        sources["fleet/controller.py"] = \
            sources["fleet/controller.py"].replace(
                "HostState.EVACUATING", "HostState.VERIFYING", 1)
        findings, _ = analyze(sources, rules=["state-machine-conformance"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "state-machine-conformance"
        assert finding.path == "fleet/controller.py"
        assert "undeclared transition to HostState.VERIFYING" in \
            finding.message
        # The fingerprint is line-independent and therefore stable.
        assert finding.fingerprint() == finding.fingerprint()
        assert len(finding.fingerprint()) == 16


# -- journal-hygiene ----------------------------------------------------------


class TestJournalHygiene:
    VIOLATION = {
        "fleet/controller.py": src("""
            class Host:
                def demote(self, now):
                    self.record.state = "failed"
                    self.journal.transition(now, self.name,
                                            "running", "failed")
        """)
    }

    CLEAN_TWIN = {
        "fleet/controller.py": src("""
            class Host:
                def demote(self, now):
                    self.journal.transition(now, self.name,
                                            "running", "failed")
                    self.record.state = "failed"
        """)
    }

    def test_mutation_before_append_is_flagged(self):
        findings, _ = analyze(self.VIOLATION, rules=["journal-hygiene"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "journal-hygiene"
        assert finding.path == "fleet/controller.py"
        assert finding.line == 3
        assert finding.symbol == "Host.demote"
        assert "append first" in finding.message

    def test_append_then_mutate_is_clean(self):
        findings, _ = analyze(self.CLEAN_TWIN, rules=["journal-hygiene"])
        assert findings == []

    def test_mutation_in_append_failure_handler_is_flagged(self):
        # The exception edge out of the append carries the unjournaled
        # fact: if transition() raised, nothing became durable, so the
        # handler's mutation still runs ahead of the log.
        findings, _ = analyze({
            "fleet/controller.py": src("""
                class Host:
                    def demote(self, now):
                        try:
                            self.journal.transition(now, self.name,
                                                    "running", "failed")
                        except OSError:
                            self.record.state = "failed"
            """)
        }, rules=["journal-hygiene"])
        assert len(findings) == 1
        assert findings[0].line == 7

    def test_one_unjournaled_branch_is_enough(self):
        findings, _ = analyze({
            "fleet/controller.py": src("""
                class Host:
                    def demote(self, now, urgent):
                        if urgent:
                            self.journal.transition(now, self.name,
                                                    "running", "failed")
                        self.record.state = "failed"
            """)
        }, rules=["journal-hygiene"])
        assert len(findings) == 1
        assert "on some path" in findings[0].message

    def test_modules_outside_the_journal_scope_are_exempt(self):
        sources = {"core/widget.py": self.VIOLATION["fleet/controller.py"]}
        findings, _ = analyze(sources, rules=["journal-hygiene"])
        assert findings == []

    def test_mutation_without_any_append_is_not_a_composite(self):
        # A plain state machine that never journals is out of the rule's
        # jurisdiction — only mixed append+mutate functions are held to
        # write-ahead ordering.
        findings, _ = analyze({
            "fleet/machine.py": src("""
                class Host:
                    def demote(self):
                        self.record.state = "failed"
            """)
        }, rules=["journal-hygiene"])
        assert findings == []

    def test_shipped_fleet_and_journal_modules_are_clean(self):
        project = Project.from_directory(REPRO_ROOT)
        findings, _ = run_analysis(project, rule_names=["journal-hygiene"])
        assert [f.message for f in findings] == []


# -- frame-protocol-symmetry --------------------------------------------------


class TestFrameSymmetry:
    def test_emitted_but_never_consumed_is_flagged(self):
        findings, _ = analyze({
            "core/chan.py": src("""
                PING_FRAME = 1
                PONG_FRAME = 2


                def send(writer, payload):
                    writer.frame(PING_FRAME, payload)
                    writer.frame(PONG_FRAME, payload)


                def recv(stream):
                    reader = FrameReader(stream)
                    for frame_type, body in reader:
                        if frame_type == PING_FRAME:
                            yield body
            """),
        }, rules=["frame-protocol-symmetry"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "PONG_FRAME"
        assert "emitted here but no reader branch" in finding.message

    def test_dead_reader_branch_is_flagged(self):
        findings, _ = analyze({
            "core/chan.py": src("""
                PING_FRAME = 1
                PONG_FRAME = 2


                def send(writer, payload):
                    writer.frame(PING_FRAME, payload)


                def recv(stream):
                    reader = FrameReader(stream)
                    for frame_type, body in reader:
                        if frame_type == PING_FRAME:
                            yield body
                        elif frame_type == PONG_FRAME:
                            yield body
            """),
        }, rules=["frame-protocol-symmetry"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "PONG_FRAME"
        assert "but no writer in this module emits it" in finding.message

    def test_balanced_channel_is_clean(self):
        findings, _ = analyze({
            "core/chan.py": src("""
                PING_FRAME = 1


                def send(writer, payload):
                    writer.frame(PING_FRAME, payload)


                def recv(stream):
                    reader = FrameReader(stream)
                    for frame_type, body in reader:
                        if frame_type == PING_FRAME:
                            yield body
            """),
        }, rules=["frame-protocol-symmetry"])
        assert findings == []

    def test_enum_constructor_consumes_every_member(self):
        findings, _ = analyze({
            "core/chan.py": src("""
                from enum import IntEnum


                class Tag(IntEnum):
                    HELLO = 1
                    DATA = 2
                    BYE = 3


                def send(writer):
                    writer.frame(Tag.HELLO, b"")
                    writer.frame(Tag.DATA, b"")
                    writer.frame(Tag.BYE, b"")


                def recv(stream):
                    reader = FrameReader(stream)
                    for frame_type, body in reader:
                        yield Tag(frame_type), body
            """),
        }, rules=["frame-protocol-symmetry"])
        assert findings == []

    def test_end_marker_is_exempt(self):
        findings, _ = analyze({
            "core/chan.py": src("""
                END_FRAME = 0
                DATA_FRAME = 1


                def send(writer):
                    writer.frame(DATA_FRAME, b"x")
                    writer.frame(END_FRAME, b"")


                def recv(stream):
                    for frame_type, body in decode_frame(stream):
                        if frame_type == DATA_FRAME:
                            yield body
            """),
        }, rules=["frame-protocol-symmetry"])
        assert findings == []

    def test_codec_layer_is_exempt(self):
        findings, _ = analyze({
            "io/chan.py": src("""
                PING_FRAME = 1


                def send(writer, payload):
                    writer.frame(PING_FRAME, payload)
            """),
        }, rules=["frame-protocol-symmetry"])
        assert findings == []


# -- stable fingerprints and deterministic reports ----------------------------


class TestFindingIdentity:
    def test_fingerprint_survives_line_shifts(self):
        first, _ = analyze(LEAK, rules=["sync-protocol"])
        shifted = {"fleet/worker.py":
                   "# a new leading comment\n\n" + LEAK["fleet/worker.py"]}
        second, _ = analyze(shifted, rules=["sync-protocol"])
        assert len(first) == len(second) == 1
        assert first[0].line != second[0].line
        assert first[0].fingerprint() == second[0].fingerprint()

    def test_fingerprints_distinguish_rules_and_paths(self):
        finding = analyze(LEAK, rules=["sync-protocol"])[0][0]
        moved = {"fleet/other.py": LEAK["fleet/worker.py"]}
        other = analyze(moved, rules=["sync-protocol"])[0][0]
        assert finding.fingerprint() != other.fingerprint()

    def test_json_report_is_byte_deterministic(self):
        runs = [analyze(LEAK, rules=["sync-protocol"]) for _ in range(2)]
        rendered = [render_json(findings, suppressed)
                    for findings, suppressed in runs]
        assert rendered[0] == rendered[1]
        payload = json.loads(rendered[0])
        assert payload["findings"][0]["id"] == \
            runs[0][0][0].fingerprint()

    def test_sarif_report_is_byte_deterministic(self):
        runs = [analyze(LEAK, rules=["sync-protocol"]) for _ in range(2)]
        rendered = [render_sarif(findings, suppressed)
                    for findings, suppressed in runs]
        assert rendered[0] == rendered[1]
        document = json.loads(rendered[0])
        assert document["version"] == "2.1.0"
        result = document["runs"][0]["results"][0]
        assert result["partialFingerprints"]["reproLint/v1"] == \
            runs[0][0][0].fingerprint()


# -- baseline workflow --------------------------------------------------------


class TestBaseline:
    def test_committed_baseline_is_the_canonical_empty_one(self):
        path = os.path.join(REPO_ROOT, "lint-baseline.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == render_baseline([])

    def test_round_trip_partitions_known_findings(self, tmp_path):
        findings, _ = analyze(LEAK, rules=["sync-protocol"])
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), findings)
        ids = load_baseline(str(baseline))
        new, baselined = partition(findings, ids)
        assert new == []
        assert baselined == findings
        fresh, _ = analyze({"fleet/fresh.py": LEAK["fleet/worker.py"]},
                           rules=["sync-protocol"])
        new, baselined = partition(findings + fresh, ids)
        assert new == fresh
        assert baselined == findings

    def test_render_is_deterministic(self):
        findings, _ = analyze(LEAK, rules=["sync-protocol"])
        assert render_baseline(findings) == render_baseline(findings)
        assert render_baseline(findings).endswith("\n")

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "findings": []}')
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        bad.write_text("not json at all")
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        with pytest.raises(BaselineError):
            load_baseline(str(tmp_path / "missing.json"))

    def test_cli_baseline_workflow(self, tmp_path, capsys):
        tree = tmp_path / "tree" / "core"
        tree.mkdir(parents=True)
        (tree / "x.py").write_text("import time\ntime.sleep(1)\n")
        root = str(tmp_path / "tree")
        baseline = str(tmp_path / "baseline.json")

        assert cli_main(["lint", "--strict", root]) == 1
        capsys.readouterr()
        assert cli_main(["lint", "--write-baseline", baseline, root]) == 0
        capsys.readouterr()
        # Accepted debt no longer fails --strict, and is reported as such.
        assert cli_main(["lint", "--strict", "--baseline", baseline,
                         root]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # A new violation still fails.
        (tree / "y.py").write_text("import time\ntime.sleep(2)\n")
        assert cli_main(["lint", "--strict", "--baseline", baseline,
                         root]) == 1

    def test_cli_rejects_malformed_baseline(self, tmp_path, capsys):
        tree = tmp_path / "core"
        tree.mkdir()
        (tree / "x.py").write_text("X = 1\n")
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        assert cli_main(["lint", "--baseline", str(bad),
                         str(tmp_path)]) == 2

    def test_cli_format_sarif(self, tmp_path, capsys):
        tree = tmp_path / "core"
        tree.mkdir()
        (tree / "x.py").write_text("import time\ntime.sleep(1)\n")
        assert cli_main(["lint", "--format", "sarif", str(tmp_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == \
            "sim-clock-hygiene"


# -- parse cache --------------------------------------------------------------


class TestParseCache:
    def test_repeated_directory_loads_parse_each_file_once(
            self, tmp_path, monkeypatch):
        from repro.analysis import project as project_mod

        (tmp_path / "a.py").write_text("X = 1\n")
        (tmp_path / "b.py").write_text("Y = 2\n")
        project_mod.clear_parse_cache()
        calls = []
        real_parse = project_mod.ast.parse

        def counting_parse(source, **kwargs):
            calls.append(kwargs.get("filename"))
            return real_parse(source, **kwargs)

        monkeypatch.setattr(project_mod.ast, "parse", counting_parse)
        try:
            first = Project.from_directory(str(tmp_path))
            second = Project.from_directory(str(tmp_path))
            assert len(calls) == 2
            assert first.get("a.py") is second.get("a.py")

            # A changed mtime invalidates exactly that entry.
            stat = os.stat(tmp_path / "a.py")
            os.utime(tmp_path / "a.py",
                     ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
            third = Project.from_directory(str(tmp_path))
            assert len(calls) == 3
            assert third.get("b.py") is second.get("b.py")
        finally:
            project_mod.clear_parse_cache()

    def test_in_memory_sources_bypass_the_cache(self):
        from repro.analysis import project as project_mod

        project_mod.clear_parse_cache()
        Project.from_sources({"core/x.py": "X = 1\n"})
        assert project_mod._PARSE_CACHE == {}
