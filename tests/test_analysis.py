"""Tests for the static verification pass (``repro.analysis``).

Each rule gets a known-bad fixture (exact finding locations asserted) and a
known-good fixture (clean), built with :meth:`Project.from_sources` so the
rules are exercised without touching the real tree.  The final tests run
the full pass over the shipped ``src/repro`` package and require it to be
clean — the pass's own acceptance criterion.
"""

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
    Severity,
    all_rules,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.engine import AnalysisError
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
                def to_uisr_test(domain):
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
        assert finding.symbol == "to_uisr_test"

    def test_writer_positional_fields_count(self):
        sources = {
            "core/uisr/format.py": UISR_CLASSES,
            "core/convert/good.py": textwrap.dedent(
                """
                def to_uisr_test(domain):
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
                def to_uisr_test(domain):
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
                def from_uisr_test(hypervisor, domain, state):
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
                def from_uisr_test(hypervisor, domain, state):
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


# -- registry-completeness ----------------------------------------------------

KIND_ENUM = textwrap.dedent(
    """
    import enum

    class HypervisorKind(enum.Enum):
        XEN = "xen"
        KVM = "kvm"
    """
)


class TestRegistryCompleteness:
    def test_missing_member_flagged(self):
        sources = {
            "hypervisors/base.py": KIND_ENUM,
            "core/uisr/registry.py": textwrap.dedent(
                """
                def default_registry():
                    registry = ConverterRegistry()
                    registry.register(HypervisorKind.XEN, to_x, from_x)
                    return registry
                """
            ),
        }
        findings, _ = analyze(sources, rules=["registry-completeness"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "KVM"
        assert finding.path == "core/uisr/registry.py"
        assert finding.line == 4  # anchored at the first register() call

    def test_complete_registry_clean(self):
        sources = {
            "hypervisors/base.py": KIND_ENUM,
            "core/uisr/registry.py": textwrap.dedent(
                """
                def default_registry():
                    registry = ConverterRegistry()
                    registry.register(HypervisorKind.XEN, to_x, from_x)
                    registry.register(HypervisorKind.KVM, to_k, from_k)
                    return registry
                """
            ),
        }
        findings, _ = analyze(sources, rules=["registry-completeness"])
        assert findings == []

    def test_no_registrations_at_all_flagged(self):
        sources = {"hypervisors/base.py": KIND_ENUM}
        findings, _ = analyze(sources, rules=["registry-completeness"])
        assert len(findings) == 1
        assert "empty" in findings[0].message
        assert findings[0].path == "hypervisors/base.py"


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
            "registry-completeness",
            "sim-clock-hygiene",
            "span-hygiene",
            "state-machine-conformance",
            "sync-lock-order",
            "sync-protocol",
            "trace-format-hygiene",
            "uisr-field-coverage",
        }

    def test_text_reporter(self):
        findings, suppressed = analyze(
            {"core/x.py": "import time\ntime.sleep(1)\n"},
            rules=["sim-clock-hygiene"],
        )
        text = render_text(findings, suppressed)
        assert "core/x.py:2: error: sim-clock-hygiene:" in text
        assert text.endswith("1 finding(s)")

    def test_json_reporter(self):
        findings, suppressed = analyze(
            {"core/x.py": "import time\ntime.sleep(1)\n"},
            rules=["sim-clock-hygiene"],
        )
        payload = json.loads(render_json(findings, suppressed))
        assert payload["clean"] is False
        assert payload["suppressed"] == 0
        (record,) = payload["findings"]
        assert record["rule"] == "sim-clock-hygiene"
        assert record["path"] == "core/x.py"
        assert record["line"] == 2
        assert record["severity"] == Severity.ERROR.value

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
        # exactly the documented suppressions: two Xen LAPIC split-record
        # ones, plus the two wall-clock calls behind repro.par's audited
        # realtime boundary
        assert suppressed == 4

    def test_cli_lint_strict_passes(self, capsys):
        assert cli_main(["lint", "--strict"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_lint_json(self, capsys):
        assert cli_main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

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


#: module-level rule constants that name project paths (prefixes, exact
#: paths or fnmatch patterns)
SCOPE_CONSTANT = re.compile(r"(SCOPE|_PATHS?|_EXEMPT(_PREFIXES)?)$")


@pytest.fixture(scope="module")
def live_paths():
    return [module.path
            for module in Project.from_directory(REPRO_ROOT).modules]


def _names_live_code(entry, paths):
    return any(path.startswith(entry) or fnmatch.fnmatch(path, entry)
               for path in paths)


@pytest.mark.parametrize("rule", all_rules(), ids=lambda rule: rule.name)
def test_rule_scopes_match_live_modules(rule, live_paths):
    """Every scope entry of every rule names code that exists, so a rule
    left guarding deleted code fails in the change that deletes it."""
    module = sys.modules[rule.__module__]
    for name, value in sorted(vars(module).items()):
        if not SCOPE_CONSTANT.search(name):
            continue
        for entry in (value,) if isinstance(value, str) else value:
            assert _names_live_code(entry, live_paths), (
                f"{rule.name}: {name} entry {entry!r} matches no module "
                f"under src/repro")


# -- span-hygiene -------------------------------------------------------------

class TestSpanHygiene:
    def test_span_outside_with_flagged(self):
        findings, _ = analyze(
            {
                "core/x.py": textwrap.dedent(
                    """
                    def work(tracer):
                        cm = tracer.span("phase", "cat")
                        cm.__enter__()
                    """
                ),
            },
            rules=["span-hygiene"],
        )
        assert len(findings) == 1
        assert findings[0].path == "core/x.py"
        assert findings[0].line == 3
        assert "with" in findings[0].message

    def test_with_span_is_clean(self):
        findings, _ = analyze(
            {
                "core/x.py": textwrap.dedent(
                    """
                    def work(tracer):
                        with tracer.span("phase", "cat"):
                            pass
                        with tracer.span("a") as a, tracer.span("b"):
                            pass
                    """
                ),
            },
            rules=["span-hygiene"],
        )
        assert findings == []

    def test_obs_layer_is_exempt(self):
        findings, _ = analyze(
            {"obs/tracer.py": "def f(t):\n    t.span('x')\n"},
            rules=["span-hygiene"],
        )
        assert findings == []


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
