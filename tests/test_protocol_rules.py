"""Tests for the whole-program protocol verifier.

Covers the CFG/dataflow engine, the three protocol rule families
(sync-lock-order, state-machine-conformance, frame-protocol-symmetry),
journal write-ahead ordering, deterministic reports and the parse cache.
Each rule gets a seeded-violation fixture asserting the exact finding and
a clean twin asserting silence; mutation tests edit a copy of the real
controller source and require the rule to catch exactly the edit.
"""

import ast
import json
import os
import textwrap

import repro
from repro.analysis import Project, render_json, run_analysis
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve_forward

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _read_live(*paths):
    """The real source of ``paths`` (package-relative), keyed by path."""
    sources = {}
    for rel in paths:
        full = os.path.join(REPRO_ROOT, rel.replace("/", os.sep))
        with open(full, "r", encoding="utf-8") as handle:
            sources[rel] = handle.read()
    return sources


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

    def test_held_context_manager_is_clean(self):
        assert lock_order_findings("""
            class Worker:
                def run(self):
                    with self._lock.held() as gate:
                        yield gate
                        self._work()
        """) == []

    def test_double_acquire_is_flagged(self):
        (finding,) = lock_order_findings("""
            class Worker:
                def run(self):
                    with self._lock.held() as outer:
                        yield outer
                        with self._lock.held() as inner:
                            yield inner
        """)
        assert (finding.line, finding.symbol) == (5, "Worker")
        assert finding.message.startswith("'self._lock' may already be held")
        assert "single-permit FIFO semaphore" in finding.message

    def test_cross_method_reacquire_is_flagged(self):
        # The re-acquire happens in a helper the holder delegates to.
        (finding,) = lock_order_findings("""
            class Worker:
                def outer(self):
                    with self._link.held() as link:
                        yield link
                        yield from self.inner()

                def inner(self):
                    with self._link.held() as link:
                        yield link
        """)
        assert finding.line == 5
        assert finding.message.startswith("'self._link' may already be held")

    def test_per_key_map_locks_are_not_double_acquire(self):
        # Different subscripts share one widened resource
        # (self._vm_locks[*]), and reserve(node) picks a per-node slot
        # pool the same way: two entries are two locks, so the self-edge
        # check skips both, and one release clears the widened hold.
        assert lock_order_findings("""
            class Worker:
                def run(self, a, b):
                    yield self._vm_locks[a].acquire()
                    yield self._vm_locks[b].acquire()
                    self._vm_locks[a].release()
                    yield self._ledger.reserve(a)
                    yield self._ledger.reserve(b)
        """) == []

    def test_held_outside_with_is_flagged(self):
        (finding,) = lock_order_findings("""
            class Worker:
                def run(self):
                    hold = self._lock.held()
                    hold.__enter__()
        """)
        assert (finding.line, finding.symbol) == (3, "Worker.run")
        assert "must be the context manager" in finding.message

    def test_nested_link_reacquire_is_caught_exactly_once(self):
        scope = ("            with self._link.held() as link:\n"
                 "                yield link\n")
        (finding,) = lint_edited_controller(
            scope + "                stalled = ",
            scope + "                with self._link.held() as again:\n"
                    "                    yield again\n"
                    "                stalled = ")
        assert finding.symbol == "FleetController"
        assert finding.message.startswith("'self._link' may already be held")

    def test_bare_held_call_is_caught_exactly_once(self):
        entry = "        with self._admission.held() as admitted:\n"
        (finding,) = lint_edited_controller(
            entry, "        self._admission.held()\n" + entry)
        assert finding.symbol == "FleetController._host_process"
        assert finding.message.startswith(
            "'self._admission.held()' must be the context manager")


def lock_order_findings(source):
    return analyze({"fleet/worker.py": src(source)},
                   rules=["sync-lock-order"])[0]


def lint_edited_controller(old, new):
    """sync-lock-order findings on the real controller with ``old``, which
    must occur exactly once, replaced by ``new``."""
    sources = _read_live("fleet/controller.py")
    assert sources["fleet/controller.py"].count(old) == 1
    sources["fleet/controller.py"] = sources["fleet/controller.py"].replace(
        old, new)
    return analyze(sources, rules=["sync-lock-order"])[0]


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

    def test_pristine_controller_is_clean(self):
        findings, _ = analyze(
            _read_live("fleet/state.py", "fleet/controller.py"),
            rules=["state-machine-conformance"])
        assert findings == []

    def test_flipped_transition_is_caught_exactly_once(self):
        sources = _read_live("fleet/state.py", "fleet/controller.py")
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


# -- deterministic reports ----------------------------------------------------


class TestFindingIdentity:
    def test_json_report_is_byte_deterministic(self):
        sleepy = {"core/x.py": "import time\ntime.sleep(1)\n"}
        runs = [analyze(sleepy, rules=["sim-clock-hygiene"])
                for _ in range(2)]
        rendered = [render_json(*run) for run in runs]
        assert rendered[0] == rendered[1]
        (finding,) = runs[0][0]
        assert json.loads(rendered[0])["findings"] == [{
            "rule": "sim-clock-hygiene", "path": "core/x.py", "line": 2,
            "symbol": "", "message": finding.message}]


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
