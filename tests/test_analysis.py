"""Tests for the static verification pass (``repro.analysis``).

Each rule gets a known-bad fixture (exact finding locations asserted) and a
known-good fixture (clean), built with :meth:`Project.from_sources` so the
rules are exercised without touching the real tree.  The final tests run
the full pass over the shipped ``src/repro`` package and require it to be
clean — the pass's own acceptance criterion.
"""

import ast
import fnmatch
import json
import os
import re
import sys
import textwrap

import pytest

import repro
from repro.analysis import (
    Project,
    all_rules,
    build_cfg,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.engine import AnalysisError
from repro.analysis.project import top_level_classes, top_level_functions
from repro.analysis.rules import codec_symmetry, frame_symmetry, hygiene
from repro.analysis.rules import io_hygiene, journal_hygiene, mechanism_hygiene
from repro.analysis.rules import obs_hygiene, par_hygiene
from repro.analysis.rules import state_machine, sync_protocol, uisr_coverage
from repro.cli import main as cli_main

UISR_CLASSES = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass
    class UISRVCpu:
        vcpu: object

    @dataclass
    class UISRPlatform:
        platform: object

    @dataclass
    class UISRVMState:
        version: int
        vm_name: str
        vcpu_count: int
        vcpus: list
        platform: UISRPlatform
    """
)


def analyze(sources, rules=None):
    return run_analysis(Project.from_sources(sources), rule_names=rules)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- uisr-field-coverage ------------------------------------------------------

class TestUISRFieldCoverage:
    def test_writer_missing_field_flagged(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/bad.py": textwrap.dedent(
                """
                def to_uisr(domain):
                    return UISRVMState(
                        version=1,
                        vm_name=domain.name,
                        vcpus=[],
                        platform=None,
                    )
                """
            ),
        }
        findings, _ = analyze(sources, rules=["uisr-field-coverage"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "core/convert/bad.py"
        assert finding.line == 3  # the UISRVMState(...) construction
        assert "'vcpu_count'" in finding.message
        assert finding.symbol == "to_uisr"

    def test_writer_positional_fields_count(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/good.py": textwrap.dedent(
                """
                def to_uisr(domain):
                    return UISRVMState(1, domain.name, 2, [], None)
                """
            ),
        }
        findings, _ = analyze(sources, rules=["uisr-field-coverage"])
        assert findings == []

    def test_writer_unknown_keyword_flagged(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/bad.py": textwrap.dedent(
                """
                def to_uisr(domain):
                    return UISRVMState(1, domain.name, 2, [], None,
                                       flavor="odd")
                """
            ),
        }
        findings, _ = analyze(sources, rules=["uisr-field-coverage"])
        assert len(findings) == 1
        assert "'flavor'" in findings[0].message

    def test_reader_dropped_field_flagged(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/bad.py": textwrap.dedent(
                """
                def from_uisr(hypervisor, domain, state):
                    use(state.version, state.vm_name, state.vcpu_count)
                    use([r.vcpu for r in state.vcpus])
                    # state.platform never read -> lossy restore
                """
            ),
        }
        findings, _ = analyze(sources, rules=["uisr-field-coverage"])
        assert len(findings) == 2  # dropped field + unwrapped UISRPlatform
        dropped = [f for f in findings if "UISRVMState.platform" in f.message]
        assert len(dropped) == 1
        assert dropped[0].line == 2  # anchored at the def
        unwrapped = [f for f in findings
                     if "UISRPlatform.platform" in f.message]
        assert len(unwrapped) == 1

    def test_reader_helper_call_counts_as_read(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/good.py": textwrap.dedent(
                """
                def from_uisr(hypervisor, domain, state):
                    verify(vm_name=state.vm_name, count=state.vcpu_count,
                           version=state.version)
                    apply([r.vcpu for r in state.vcpus],
                          state.platform.platform)
                """
            ),
        }
        findings, _ = analyze(sources, rules=["uisr-field-coverage"])
        assert findings == []


# -- codec-symmetry -----------------------------------------------------------

CODEC_HEADER = "from repro.io.frames import Packer, Unpacker\n"


class TestCodecSymmetry:
    def test_width_mismatch_flagged(self):
        sources = {
            "hypervisors/test/formats.py": CODEC_HEADER + textwrap.dedent(
                """
                def encode_thing(value):
                    return Packer().u32(value.a).u64(value.b).bytes()

                def decode_thing(payload):
                    unpacker = Unpacker(payload)
                    return unpacker.u32(), unpacker.u32()  # u64 read as u32
                """
            ),
        }
        findings, _ = analyze(sources, rules=["codec-symmetry"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "hypervisors/test/formats.py"
        assert finding.line == 6  # anchored at the decoder def
        assert "writes [u32 u64] but reads [u32 u32]" in finding.message

    def test_loop_vs_comprehension_symmetric(self):
        sources = {
            "hypervisors/test/formats.py": CODEC_HEADER + textwrap.dedent(
                """
                def encode_table(rows):
                    packer = Packer()
                    packer.u32(len(rows))
                    for row in rows:
                        packer.u64(row)
                    return packer.bytes()

                def decode_table(payload):
                    unpacker = Unpacker(payload)
                    return [unpacker.u64() for _ in range(unpacker.u32())]
                """
            ),
        }
        findings, _ = analyze(sources, rules=["codec-symmetry"])
        assert findings == []

    def test_unpaired_encoder_flagged(self):
        sources = {
            "hypervisors/test/formats.py": CODEC_HEADER + textwrap.dedent(
                """
                def encode_orphan(value):
                    return Packer().u8(value).bytes()
                """
            ),
        }
        findings, _ = analyze(sources, rules=["codec-symmetry"])
        assert len(findings) == 1
        assert "no matching decoder" in findings[0].message
        assert findings[0].line == 3  # header line + leading blank

    def test_helper_inlining(self):
        sources = {
            "hypervisors/test/formats.py": CODEC_HEADER + textwrap.dedent(
                """
                def _put_pair(packer, pair):
                    packer.u64(pair[0]).u64(pair[1])

                def encode_pairs(pairs):
                    packer = Packer()
                    packer.u32(len(pairs))
                    for pair in pairs:
                        _put_pair(packer, pair)
                    return packer.bytes()

                def decode_pairs(payload):
                    unpacker = Unpacker(payload)
                    return [(unpacker.u64(), unpacker.u64())
                            for _ in range(unpacker.u32())]
                """
            ),
        }
        findings, _ = analyze(sources, rules=["codec-symmetry"])
        assert findings == []

    def test_out_of_scope_module_ignored(self):
        sources = {
            "bench/formats.py": CODEC_HEADER + textwrap.dedent(
                """
                def encode_thing(value):
                    return Packer().u32(value).bytes()

                def decode_thing(payload):
                    return Unpacker(payload).u64()
                """
            ),
        }
        findings, _ = analyze(sources, rules=["codec-symmetry"])
        assert findings == []


# -- sim-clock-hygiene --------------------------------------------------------

class TestSimClockHygiene:
    def test_wall_clock_in_scope_flagged(self):
        sources = {
            "core/transplant.py": textwrap.dedent(
                """
                import time

                def downtime():
                    start = time.time()
                    time.sleep(0.1)
                    return time.time() - start
                """
            ),
        }
        findings, _ = analyze(sources, rules=["sim-clock-hygiene"])
        assert [(f.line, f.message.split("(")[0]) for f in findings] == [
            (5, "time.time"),
            (6, "time.sleep"),
            (7, "time.time"),
        ]

    def test_import_alias_resolved(self):
        sources = {
            "sim/clock.py": "from time import sleep\n\n"
                            "def nap():\n    sleep(1)\n",
        }
        findings, _ = analyze(sources, rules=["sim-clock-hygiene"])
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_out_of_scope_path_ignored(self):
        sources = {
            "bench/runner.py": "import time\n\n"
                               "def stamp():\n    return time.time()\n",
        }
        findings, _ = analyze(sources, rules=["sim-clock-hygiene"])
        assert findings == []

    def test_fleet_package_in_scope(self):
        # The fleet control plane runs entirely on simulated time; a stray
        # wall-clock read there corrupts the measured vulnerability window.
        sources = {
            "fleet/controller.py": "import time\n\n"
                                   "def window():\n    return time.time()\n",
        }
        findings, _ = analyze(sources, rules=["sim-clock-hygiene"])
        assert len(findings) == 1
        assert findings[0].path == "fleet/controller.py"
        assert findings[0].line == 4


# -- exception-hygiene --------------------------------------------------------

class TestExceptionHygiene:
    def test_bare_except_flagged(self):
        sources = {
            "core/anything.py": textwrap.dedent(
                """
                def risky():
                    try:
                        work()
                    except:
                        cleanup()
                """
            ),
        }
        findings, _ = analyze(sources, rules=["exception-hygiene"])
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "bare 'except:'" in findings[0].message

    def test_swallowed_state_error_flagged(self):
        sources = {
            "core/anything.py": textwrap.dedent(
                """
                def risky():
                    try:
                        work()
                    except UISRError:
                        pass
                """
            ),
        }
        findings, _ = analyze(sources, rules=["exception-hygiene"])
        assert len(findings) == 1
        assert "swallows" in findings[0].message

    def test_handled_exception_clean(self):
        sources = {
            "core/anything.py": textwrap.dedent(
                """
                def risky():
                    try:
                        work()
                    except UISRError as error:
                        log(error)
                        raise
                """
            ),
        }
        findings, _ = analyze(sources, rules=["exception-hygiene"])
        assert findings == []

    def test_narrow_pass_allowed(self):
        sources = {
            "core/anything.py": textwrap.dedent(
                """
                def risky():
                    try:
                        work()
                    except KeyError:
                        pass
                """
            ),
        }
        findings, _ = analyze(sources, rules=["exception-hygiene"])
        assert findings == []

    def test_fleet_package_scanned(self):
        # A swallowed Exception in the fleet controller would turn a failed
        # remediation into a silently-vulnerable host.
        sources = {
            "fleet/controller.py": textwrap.dedent(
                """
                def drive():
                    try:
                        transplant()
                    except Exception:
                        pass
                """
            ),
        }
        findings, _ = analyze(sources, rules=["exception-hygiene"])
        assert len(findings) == 1
        assert findings[0].path == "fleet/controller.py"


# -- suppression --------------------------------------------------------------

class TestSuppression:
    BAD_SLEEP = ("import time\n\n"
                 "def nap():\n"
                 "    time.sleep(1){directive}\n")

    def test_same_line_directive(self):
        source = self.BAD_SLEEP.format(
            directive="  # repro-lint: disable=sim-clock-hygiene why not"
        )
        findings, suppressed = analyze({"core/x.py": source},
                                       rules=["sim-clock-hygiene"])
        assert findings == []
        assert suppressed == 1

    def test_line_above_directive(self):
        source = ("import time\n\n"
                  "def nap():\n"
                  "    # repro-lint: disable=sim-clock-hygiene\n"
                  "    time.sleep(1)\n")
        findings, suppressed = analyze({"core/x.py": source},
                                       rules=["sim-clock-hygiene"])
        assert findings == []
        assert suppressed == 1

    def test_other_rule_directive_does_not_suppress(self):
        source = self.BAD_SLEEP.format(
            directive="  # repro-lint: disable=codec-symmetry"
        )
        findings, suppressed = analyze({"core/x.py": source},
                                       rules=["sim-clock-hygiene"])
        assert len(findings) == 1
        assert suppressed == 0

    def test_disable_all(self):
        source = self.BAD_SLEEP.format(
            directive="  # repro-lint: disable=all"
        )
        findings, suppressed = analyze({"core/x.py": source},
                                       rules=["sim-clock-hygiene"])
        assert findings == []
        assert suppressed == 1

    def test_directive_in_a_second_lint_root(self, tmp_path, capsys):
        # All roots form one project, so a module's suppressions count
        # whichever root it came from.
        for root, text in (("a", "X = 1\n"), ("b", self.BAD_SLEEP.format(
                directive="  # repro-lint: disable=sim-clock-hygiene"))):
            (tmp_path / root / "core").mkdir(parents=True)
            (tmp_path / root / "core" / f"{root}.py").write_text(text)
        for roots in (["b"], ["a", "b"], ["b", "a"]):
            assert cli_main(["lint", "--strict", *(
                str(tmp_path / root) for root in roots)]) == 0
            assert capsys.readouterr().out == \
                "no findings (1 suppressed in source)\n"

    def test_roots_sharing_a_relative_path_rejected(self, tmp_path, capsys):
        # Modules are keyed by root-relative path: a/core/x.py and
        # b/core/x.py would share one entry, and b's suppression would
        # silence a's finding in one root order only.
        for root, directive in (("a", ""), ("b", (
                "  # repro-lint: disable=sim-clock-hygiene"))):
            (tmp_path / root / "core").mkdir(parents=True)
            (tmp_path / root / "core" / "x.py").write_text(
                self.BAD_SLEEP.format(directive=directive))
        for first, second in (("a", "b"), ("b", "a")):
            assert cli_main(["lint", "--strict", str(tmp_path / first),
                             str(tmp_path / second)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"lint: core/x.py is under both {tmp_path / first} and "
                f"{tmp_path / second}; lint those roots in separate runs\n")


# -- engine and reporters -----------------------------------------------------

class TestEngineAndReporters:
    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            analyze({}, rules=["no-such-rule"])

    def test_all_rules_registered(self):
        names = {rule.name for rule in all_rules()}
        assert names == {
            "codec-symmetry",
            "exception-hygiene",
            "frame-protocol-symmetry",
            "io-format-hygiene",
            "journal-hygiene",
            "mechanism-hygiene",
            "par-entrypoint-hygiene",
            "par-payload-hygiene",
            "sim-clock-hygiene",
            "state-machine-conformance",
            "sync-lock-order",
            "trace-format-hygiene",
            "uisr-field-coverage",
        }

    def test_text_reporter(self):
        findings, suppressed = analyze(
            {"core/x.py": "import time\ntime.sleep(1)\n"},
            rules=["sim-clock-hygiene"],
        )
        text = render_text(findings, suppressed)
        assert text.startswith("core/x.py:2: sim-clock-hygiene: "
                               "time.sleep() bypasses")
        assert text.endswith("1 finding(s)")

    def test_json_reporter(self):
        findings, suppressed = analyze(
            {"core/x.py": "import time\ntime.sleep(1)\n"},
            rules=["sim-clock-hygiene"],
        )
        payload = json.loads(render_json(findings, suppressed))
        assert set(payload) == {"findings", "suppressed", "clean"}
        assert payload["clean"] is False
        assert payload["suppressed"] == 0
        (record,) = payload["findings"]
        assert set(record) == {"rule", "path", "line", "symbol", "message"}
        assert record["rule"] == "sim-clock-hygiene"
        assert record["path"] == "core/x.py"
        assert record["line"] == 2

    def test_findings_sorted_by_location(self):
        findings, _ = analyze(
            {
                "core/b.py": "import time\ntime.sleep(1)\n",
                "core/a.py": "import time\ntime.sleep(1)\ntime.sleep(2)\n",
            },
            rules=["sim-clock-hygiene"],
        )
        assert [(f.path, f.line) for f in findings] == [
            ("core/a.py", 2), ("core/a.py", 3), ("core/b.py", 2),
        ]


# -- the shipped tree must be clean ------------------------------------------

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


class TestLiveTree:
    def test_shipped_tree_has_no_findings(self):
        project = Project.from_directory(REPRO_ROOT)
        findings, suppressed = run_analysis(project)
        assert findings == [], render_text(findings, suppressed)
        # exactly the documented suppressions: the two Xen LAPIC
        # split-record ones
        assert suppressed == 2

    def test_cli_lint_strict_passes(self, capsys):
        assert cli_main(["lint", "--strict"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_lint_json(self, capsys):
        assert cli_main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "suppressed": 2, "clean": True}

    def test_cli_lint_strict_fails_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "x.py").write_text("import time\ntime.sleep(1)\n")
        assert cli_main(["lint", "--strict", str(tmp_path)]) == 1
        assert "sim-clock-hygiene" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "codec-symmetry" in out
        assert "uisr-field-coverage" in out


@pytest.fixture(scope="module")
def live_project():
    return Project.from_directory(REPRO_ROOT)


# -- every scope entry and every rule has a live site ------------------------
#
# A rule left guarding deleted code passes silently; counting its sites in
# src/repro with its own matcher makes it fail in the deleting change.


def _codec_pairs(module):
    # encode_*/decode_* pairs with both sides present
    sides = {}
    for name in top_level_functions(module.tree):
        paired = codec_symmetry._pair_name(name)
        if paired is not None:
            sides.setdefault(paired[0], set()).add(paired[1])
    return [key for key, found in sides.items() if found == {"pack", "unpack"}]


def _journal_composites(module):
    # functions that both append to the journal and assign .state
    return [symbol for symbol, func in journal_hygiene._functions(module)
            if all(any(map(match, build_cfg(func).nodes))
                   for match in (journal_hygiene._append_calls,
                                 journal_hygiene._state_mutations))]


def _transition_targets(module):
    return [state_machine._transition_target(node)
            for node in ast.walk(module.tree) if isinstance(node, ast.Call)
            and state_machine._transition_target(node) is not None]


def _flagged_by(rule_cls):
    # what the rule would flag in a module its exemption leaves out
    return lambda module: list(rule_cls()._check_module(module))


#: every path constant of a rule module (a name ending in SCOPE, _PATH or
#: _PATHS) and its site counter.  An allow-list entry must hold a site the
#: rule inspects; an exemption must name a module the rule would flag
#: without it; CLOCK_SCOPE marks the layers where any site is a finding,
#: so its entries only have to name live code.
SCOPE_SITES = {
    "SCOPE": _codec_pairs,  # codec-symmetry
    "FRAME_SCOPE": lambda module: frame_symmetry._ModuleProtocol(
        module).emitted,
    "JOURNAL_SCOPE": _journal_composites,
    "DECLARATION_PATH": state_machine._extract_declaration,
    "CONFORMANCE_PATHS": _transition_targets,
    "SYNC_SCOPE": lambda module: any(map(
        sync_protocol.lock_order_edges,
        top_level_classes(module.tree).values())),
    "IO_SCOPE": _flagged_by(io_hygiene.IOFormatHygieneRule),
    "OBS_SCOPE": _flagged_by(obs_hygiene.TraceFormatHygieneRule),
    "MECHANISM_SCOPE": _flagged_by(mechanism_hygiene.MechanismHygieneRule),
    "CLOCK_SCOPE": lambda module: True,
}


def _in_entry(path, entry):
    return path.startswith(entry) or fnmatch.fnmatch(path, entry)


@pytest.mark.parametrize("rule", all_rules(), ids=lambda rule: rule.name)
def test_rule_scopes_match_live_modules(rule, live_project):
    """Every scope entry of every rule holds a live site."""
    module = sys.modules[rule.__module__]
    for name, value in sorted(vars(module).items()):
        if not re.search(r"(SCOPE|_PATHS?)$", name):
            continue
        for entry in (value,) if isinstance(value, str) else value:
            assert any(SCOPE_SITES[name](source)
                       for source in live_project.modules
                       if _in_entry(source.path, entry)), (
                f"{rule.name}: {name} entry {entry!r} holds no site under "
                f"src/repro")


def _live_calls(project):
    return [node for module in project.modules
            for node in ast.walk(module.tree) if isinstance(node, ast.Call)]


def test_par_entrypoint_rule_sees_live_sinks(live_project):
    # func_ref / map_tasks / Task(func=...) calls
    sinks = [call for call in _live_calls(live_project)
             if par_hygiene._entrypoint_arg(call) is not None]
    assert sinks


def test_par_payload_rule_sees_live_payloads(live_project):
    # map_tasks(payloads=...) / Task(payload=...) calls
    payloads = [call for call in _live_calls(live_project)
                if par_hygiene._payload_args(call)]
    assert payloads


def test_uisr_coverage_rule_sees_live_converters(live_project):
    assert uisr_coverage._find_dataclasses(live_project).get(
        uisr_coverage.STATE_CLASS)
    names = [name for module in live_project.modules
             for name in top_level_functions(module.tree)]
    assert names.count(uisr_coverage.TO_NAME) == 1
    assert names.count(uisr_coverage.FROM_NAME) == 1


def test_codec_rule_sees_live_pairs(live_project):
    modules = live_project.matching(*codec_symmetry.SCOPE)
    assert len(modules) == 4 and all(map(_codec_pairs, modules))


def test_frame_rule_sees_live_channels(live_project):
    channels = {module.path for module in live_project.modules
                if module.path.startswith(frame_symmetry.FRAME_SCOPE)
                and SCOPE_SITES["FRAME_SCOPE"](module)}
    assert channels == {"core/pram.py", "core/wire.py", "core/uisr/codec.py",
                        "cluster/serialize.py"}


def test_journal_rule_sees_the_live_composite(live_project):
    assert [(module.path, _journal_composites(module))
            for module in live_project.modules
            if module.path.startswith(journal_hygiene.JOURNAL_SCOPE)
            and _journal_composites(module)] == [
        ("fleet/state.py", ["HostRecord.transition"])]


def test_conformance_rule_sees_live_transitions(live_project):
    # The controller performs a transition into every non-initial state.
    declaration = state_machine._extract_declaration(
        live_project.get(state_machine.DECLARATION_PATH))
    targets = {member for path in state_machine.CONFORMANCE_PATHS
               for member, _ in _transition_targets(live_project.get(path))}
    assert targets == set(declaration.members) - {declaration.initial}


def test_sync_rule_sees_the_live_lock_order(live_project):
    controller = top_level_classes(
        live_project.get("fleet/controller.py").tree)["FleetController"]
    assert set(sync_protocol.lock_order_edges(controller)) == {
        ("self._admission", "self._vm_locks[*]"),
        ("self._admission", "self._ledger"),
        ("self._admission", "self._link"),
        ("self._vm_locks[*]", "self._ledger"),
        ("self._vm_locks[*]", "self._link"),
        ("self._ledger", "self._link"),
    }


def test_exception_rule_sees_live_handlers(live_project):
    # handlers of a broad or state-format exception: flagged if pass-only
    watched = hygiene.BROAD_EXCEPTIONS | hygiene.STATE_EXCEPTIONS
    assert any(isinstance(node, ast.ExceptHandler) and node.type
               and hygiene.ExceptionHygieneRule._caught_names(node.type)
               & watched
               for module in live_project.modules
               for node in ast.walk(module.tree))


@pytest.mark.parametrize("rules, name", [
    pytest.param(io_hygiene, "IO_SCOPE", id="io-format-hygiene"),
    pytest.param(obs_hygiene, "OBS_SCOPE", id="trace-format-hygiene"),
    pytest.param(mechanism_hygiene, "MECHANISM_SCOPE",
                 id="mechanism-hygiene"),
])
def test_layer_rule_sees_live_sites_only_in_its_layer(rules, name,
                                                      live_project):
    # struct calls, hand-built trace events and cost-helper calls exist,
    # and each sits in the layer the rule exempts
    flagged = [module.path for module in live_project.modules
               if SCOPE_SITES[name](module)]
    assert flagged and all(any(_in_entry(path, entry)
                               for entry in getattr(rules, name))
                           for path in flagged), flagged


# -- trace-format-hygiene ------------------------------------------------------

class TestTraceFormatHygiene:
    def test_hand_built_event_flagged(self):
        findings, _ = analyze(
            {
                "fleet/x.py": textwrap.dedent(
                    """
                    def export(span):
                        return {"name": span.name, "ph": "X",
                                "ts": span.start_s * 1e6}
                    """
                ),
            },
            rules=["trace-format-hygiene"],
        )
        assert len(findings) == 1
        assert "to_chrome_trace" in findings[0].message

    def test_hand_built_envelope_flagged(self):
        findings, _ = analyze(
            {"cli.py": 'DOC = {"traceEvents": []}\n'},
            rules=["trace-format-hygiene"],
        )
        assert len(findings) == 1

    def test_unrelated_dicts_are_clean(self):
        findings, _ = analyze(
            {
                "fleet/x.py": textwrap.dedent(
                    """
                    A = {"ph": 7.4}
                    B = {"ts": 1, "name": "x"}
                    C = {"hosts": 3, "waves": 2}
                    """
                ),
            },
            rules=["trace-format-hygiene"],
        )
        assert findings == []

    def test_obs_layer_is_exempt(self):
        findings, _ = analyze(
            {"obs/trace.py": 'E = {"ph": "X", "ts": 0}\n'},
            rules=["trace-format-hygiene"],
        )
        assert findings == []


# -- io-format-hygiene --------------------------------------------------------

class TestIOFormatHygiene:
    def test_struct_call_outside_io_flagged(self):
        sources = {
            "core/wire.py": textwrap.dedent(
                """
                import struct

                def frame(payload):
                    return struct.pack("<I", len(payload)) + payload
                """
            ),
        }
        findings, _ = analyze(sources, rules=["io-format-hygiene"])
        assert len(findings) == 1
        assert findings[0].path == "core/wire.py"
        assert findings[0].line == 5
        assert "struct.pack" in findings[0].message

    def test_from_import_alias_resolved(self):
        sources = {
            "hypervisors/xen.py": "from struct import unpack\n\n"
                                  "def parse(blob):\n"
                                  "    return unpack('<Q', blob)\n",
        }
        findings, _ = analyze(sources, rules=["io-format-hygiene"])
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_io_package_is_exempt(self):
        sources = {
            "io/frames.py": "import struct\n\n"
                            "def header(t, n):\n"
                            "    return struct.pack('<IBBI', 1, 1, t, n)\n",
        }
        findings, _ = analyze(sources, rules=["io-format-hygiene"])
        assert findings == []

    def test_unrelated_calls_are_clean(self):
        sources = {
            "core/pram.py": "def encode(parts):\n"
                            "    return b''.join(parts)\n",
        }
        findings, _ = analyze(sources, rules=["io-format-hygiene"])
        assert findings == []


# -- mechanism-hygiene --------------------------------------------------------

class TestMechanismHygiene:
    def test_cost_helper_outside_mechanism_layer_flagged(self):
        sources = {
            "fleet/controller.py": textwrap.dedent(
                """
                def upgrade_time(cost, machine, shapes):
                    return cost.translate_phase_s(machine, shapes)
                """
            ),
        }
        findings, _ = analyze(sources, rules=["mechanism-hygiene"])
        assert len(findings) == 1
        assert findings[0].path == "fleet/controller.py"
        assert "translate_phase_s" in findings[0].message
        assert "StagePlan" in findings[0].message

    def test_plan_precopy_import_alias_resolved(self):
        sources = {
            "cluster/executor.py": textwrap.dedent(
                """
                from repro.core.migration import plan_precopy as precopy

                def migration_time(memory, rate, dirty, cost):
                    return precopy(memory, rate, dirty, cost)
                """
            ),
        }
        findings, _ = analyze(sources, rules=["mechanism-hygiene"])
        assert len(findings) == 1
        assert "plan_precopy" in findings[0].message

    def test_mechanism_layer_is_exempt(self):
        body = textwrap.dedent(
            """
            def build(cost, machine, shapes):
                return cost.restore_phase_s(machine, shapes)
            """
        )
        sources = {path: body for path in (
            "core/pipeline.py", "core/inplace.py",
            "core/migration.py", "core/timings.py",
        )}
        findings, _ = analyze(sources, rules=["mechanism-hygiene"])
        assert findings == []

    def test_stage_plan_consumers_are_clean(self):
        sources = {
            "fleet/controller.py": textwrap.dedent(
                """
                def upgrade_time(pipeline, action):
                    plan = pipeline.plan_host(action.vm_count,
                                              action.total_memory_bytes)
                    return plan.total_s
                """
            ),
        }
        findings, _ = analyze(sources, rules=["mechanism-hygiene"])
        assert findings == []
