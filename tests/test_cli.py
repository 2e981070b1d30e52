"""Tests for the hypertp CLI."""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.hw.machine import M1_SPEC, Machine

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_hypervisor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inplace", "--target", "esxi"])

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inplace", "--machine", "M9"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["fleet", "--hosts", "4", "--pool", "xen,foo"],
                     id="fleet"),
        pytest.param(["sentinel", "--hosts", "4", "--limit", "20",
                      "--pool", "xen,foo"], id="sentinel"),
        pytest.param(["advise", "CVE-2016-6258", "--pool", "xen,foo"],
                     id="advise"),
    ])
    def test_unknown_pool_hypervisor_rejected(self, argv, capsys):
        # Checked like --current: an argparse error, not a traceback or
        # advice naming a hypervisor that does not exist.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "argument --pool: unknown hypervisor 'foo'" in \
            capsys.readouterr().err

    def test_pool_names_are_case_insensitive(self):
        args = build_parser().parse_args(["fleet", "--pool", "xen,KVM"])
        assert args.pool == ("xen", "kvm")

    @pytest.mark.parametrize("command", ["fleet", "sentinel"])
    def test_single_run_commands_take_no_workers(self, command, capsys):
        # One campaign or replay always runs in the calling process.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in \
            capsys.readouterr().err


class TestInplaceCommand:
    def test_default_run(self, capsys):
        assert main(["inplace"]) == 0
        out = capsys.readouterr().out
        assert "downtime" in out
        assert "guests intact: True" in out

    def test_same_source_target_fails(self, capsys):
        assert main(["inplace", "--source", "kvm", "--target", "kvm"]) == 2

    def test_kvm_to_xen_direction(self, capsys):
        assert main(["inplace", "--source", "kvm", "--target", "xen"]) == 0
        out = capsys.readouterr().out
        assert "kvm->xen" in out

    def test_nova_source(self, capsys):
        assert main(["inplace", "--source", "nova", "--target", "kvm"]) == 0

    def test_ablation_flags(self, capsys):
        assert main(["inplace", "--no-huge-pages", "--no-parallel",
                     "--no-prepare-ahead", "--vms", "2"]) == 0


class TestMigrateCommand:
    def test_migration_tp(self, capsys):
        assert main(["migrate", "--dest", "kvm"]) == 0
        out = capsys.readouterr().out
        assert "MigrationTP" in out
        assert "guest intact    : True" in out

    def test_xen_baseline(self, capsys):
        assert main(["migrate", "--dest", "xen"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_busy_guest(self, capsys):
        assert main(["migrate", "--dirty-mb-s", "48"]) == 0
        out = capsys.readouterr().out
        assert "pre-copy rounds" in out

    @pytest.mark.parametrize("dest", ["xen", "kvm", "nova"])
    def test_every_destination_keeps_the_guest(self, capsys, dest):
        assert main(["migrate", "--dest", dest]) == 0
        assert "guest intact    : True" in capsys.readouterr().out


class TestAdviseCommand:
    def test_safe_target_found(self, capsys):
        assert main(["advise", "CVE-2016-6258"]) == 0
        out = capsys.readouterr().out
        assert "xen -> kvm" in out

    def test_no_safe_target_exit_code(self, capsys):
        assert main(["advise", "CVE-2015-3456"]) == 1
        out = capsys.readouterr().out
        assert "NO SAFE TARGET" in out

    def test_bigger_pool_saves_it(self, capsys):
        assert main(["advise", "CVE-2015-3456",
                     "--pool", "xen,kvm,nova"]) == 0
        out = capsys.readouterr().out
        assert "xen -> nova" in out

    def test_medium_flaw_needs_nothing(self, capsys):
        assert main(["advise", "CVE-2015-8104"]) == 0
        out = capsys.readouterr().out
        assert "no transplant needed" in out


class TestReportingCommands:
    def test_vulns_table(self, capsys):
        assert main(["vulns"]) == 0
        out = capsys.readouterr().out
        assert "2015" in out and "Total" in out

    def test_cluster_sweep(self, capsys):
        assert main(["cluster", "--fractions", "0,0.8"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out

    def test_tcb(self, capsys):
        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "8.5 KLOC" in out


class TestFleetCommand:
    def test_default_run(self, capsys):
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "transplant xen -> kvm" in out
        assert "remediated : 4/4 hosts" in out
        assert "p50" in out and "p99" in out and "max" in out

    def test_sequential_groups(self, capsys):
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--sequential-groups", "--concurrency", "0"]) == 0
        out = capsys.readouterr().out
        assert "remediated : 4/4 hosts" in out

    def test_fail_rate_still_terminates(self, capsys):
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--fail-rate", "0.3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "rolled back" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "fleet.json"
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["format"] == "hypertp-fleet-metrics"
        assert document["campaign"]["hosts"] == 4

    def test_medium_cve_rejected(self, capsys):
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--cve", "CVE-2015-8104"]) == 2


class TestTraceFlag:
    def test_trace_file_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["inplace", "--trace", str(path)]) == 0
        document = json.loads(path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert {"PRAM", "Reboot", "VMs paused"} <= names


class TestFleetTrace:
    """``fleet --trace``/``--metrics``: the campaign's timeline and
    metrics snapshot."""

    def run_fleet(self, tmp_path, capsys, name, *extra):
        path = tmp_path / name
        assert main(["fleet", "--hosts", "4", "--vms-per-host", "4",
                     "--seed", "7", "--trace", str(path), *extra]) == 0
        capsys.readouterr()
        return path

    def test_emits_valid_perfetto_json(self, tmp_path, capsys):
        import json

        path = self.run_fleet(tmp_path, capsys, "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        kinds = {e["ph"] for e in events}
        assert kinds == {"M", "X"}
        processes = {e["args"]["name"] for e in events
                     if e["name"] == "process_name"}
        # One track per host plus the fleet summary track.
        assert processes == {"fleet", "node00", "node01", "node02", "node03"}

    def test_byte_identical_per_seed(self, tmp_path, capsys):
        first = self.run_fleet(tmp_path, capsys, "first.json")
        second = self.run_fleet(tmp_path, capsys, "second.json")
        assert first.read_bytes() == second.read_bytes()

    def test_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = self.run_fleet(tmp_path, capsys, "trace.json",
                                    "--metrics", str(metrics_path))
        assert json.loads(trace_path.read_text())["traceEvents"]
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["format"] == "hypertp-metrics"
        assert snapshot["metrics"]["fleet_hosts_done_total"]["value"] == 4.0


class TestSentinelCommand:
    ARGS = ["sentinel", "--hosts", "4", "--vms-per-host", "4",
            "--limit", "30", "--seed", "11"]

    def test_default_run(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Sentinel replay" in out
        assert "responses" in out
        assert "windows" in out

    def test_byte_identical_per_seed(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_json_report_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "sentinel.json"
        assert main([*self.ARGS, "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["format"] == "hypertp-sentinel-report"
        assert document["inventory"]["open_cves"] == []

    def test_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([*self.ARGS, "--trace", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        trace = json.loads(trace_path.read_text())
        assert any(e.get("name") == "feed replay"
                   for e in trace["traceEvents"])
        snapshot = json.loads(metrics_path.read_text())
        assert "sentinel_disclosures_total" in snapshot["metrics"]

    def test_journal_dir_runs_inline(self, tmp_path, capsys):
        journal_dir = tmp_path / "journals"
        assert main([*self.ARGS, "--journal-dir", str(journal_dir)]) == 0
        assert any(p.suffix == ".journal" for p in journal_dir.iterdir())

    def test_journal_dir_metrics_count_every_journal(self, tmp_path,
                                                     capsys):
        import json

        from repro.journal import read_journal

        journal_dir = tmp_path / "journals"
        metrics_path = tmp_path / "metrics.json"
        assert main([*self.ARGS, "--journal-dir", str(journal_dir),
                     "--metrics", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())["metrics"]
        journals = sorted(journal_dir.iterdir())
        assert len(journals) >= 2
        assert metrics["journal_records_total"]["value"] == sum(
            len(read_journal(str(path)).records) for path in journals)
        assert metrics["journal_bytes_total"]["value"] == sum(
            path.stat().st_size for path in journals)
        assert metrics["journal_replayed_records_total"]["value"] == 0
        assert "sentinel_disclosures_total" in metrics

    def test_bad_pool_rejected(self, capsys):
        assert main(["sentinel", "--pool", "kvm", "--current", "xen"]) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["fleet", "--cve", "CVE-0000-0000"], id="fleet-unknown-cve"),
    pytest.param(["fleet", "--pool", ""], id="fleet-empty-pool"),
    pytest.param(["fleet", "--inplace-fraction", "2"],
                 id="fleet-inplace-fraction"),
    pytest.param(["fleet", "--concurrency", "-4"],
                 id="fleet-negative-concurrency"),
    pytest.param(["fleet", "--hosts", "4", "--vms-per-host", "-3"],
                 id="fleet-negative-vms-per-host"),
    pytest.param(["fleet", "--journal", "c.journal", "--crash-after", "0"],
                 id="fleet-crash-after-zero"),
    pytest.param(["fleet", "--journal", "c.journal", "--crash-after", "-5"],
                 id="fleet-crash-after-negative"),
    pytest.param(["inplace", "--source", "xen", "--target", "xen"],
                 id="inplace-same-hypervisor"),
    pytest.param(["inplace", "--vms", "0"], id="inplace-no-vms"),
    pytest.param(["inplace", "--vms", "-2"], id="inplace-negative-vms"),
    pytest.param(["inplace", "--vcpus", "0"], id="inplace-no-vcpus"),
    pytest.param(["inplace", "--memory-gib", "0"], id="inplace-no-memory"),
    # Guests that do not fit the machine: creation runs out of frames, or
    # no frames are left for the UISR documents before the micro-reboot.
    pytest.param(["inplace", "--vms", "40"], id="inplace-vms-over-capacity"),
    pytest.param(["inplace", "--memory-gib", "500"],
                 id="inplace-memory-over-capacity"),
    pytest.param(["inplace", "--vms", "16"], id="inplace-no-room-for-uisr"),
    pytest.param(["migrate", "--vcpus", "0"], id="migrate-no-vcpus"),
    pytest.param(["migrate", "--memory-gib", "0"], id="migrate-no-memory"),
    pytest.param(["migrate", "--dirty-mb-s", "-5"],
                 id="migrate-negative-dirty-rate"),
    pytest.param(["migrate", "--memory-gib", "500"],
                 id="migrate-memory-over-capacity"),
    pytest.param(["advise", "CVE-0000-0000"], id="advise-unknown-cve"),
    pytest.param(["cluster", "--fractions", "0,abc"],
                 id="cluster-bad-fraction"),
    pytest.param(["cluster", "--hosts", "0"], id="cluster-no-hosts"),
    pytest.param(["cluster", "--hosts", "4", "--vms-per-host", "-3"],
                 id="cluster-negative-vms-per-host"),
    pytest.param(["cluster", "--export-plan", "p.bin",
                  "--export-fraction", "2"], id="cluster-export-fraction"),
    # No node can hold the fleet, so every response would be
    # capacity-blocked.
    pytest.param(["sentinel", "--hosts", "4", "--vms-per-host", "30",
                  "--limit", "5"], id="sentinel-vms-per-host-over-capacity"),
    pytest.param(["sentinel", "--hosts", "4", "--group-size", "0",
                  "--limit", "5"], id="sentinel-group-size-zero"),
    # Two hosts' VMs fill the one destination the planner may use.
    pytest.param(["sentinel", "--vms-per-host", "22", "--limit", "40"],
                 id="sentinel-no-destination"),
    # A path the user names: a journal under a plain file, or an output
    # file in a missing directory (written before the report prints).
    pytest.param(["fleet", "--hosts", "4", "--journal", "README.md/x.journal"],
                 id="fleet-journal-not-a-directory"),
    pytest.param(["sentinel", "--hosts", "4", "--limit", "5",
                  "--journal-dir", "README.md"],
                 id="sentinel-journal-dir-is-a-file"),
    *[pytest.param([command, "--hosts", "4", *limit, flag, "missing/out"],
                   id=f"{command}{flag}-missing-directory")
      for command, limit in (("fleet", []), ("sentinel", ["--limit", "5"]))
      for flag in ("--json", "--trace", "--metrics")],
    pytest.param(["inplace", "--trace", "missing/out"],
                 id="inplace--trace-missing-directory"),
    pytest.param(["cluster", "--export-plan", "missing/out"],
                 id="cluster--export-plan-missing-directory"),
])
def test_input_error_is_one_line_and_exit_2(argv, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "README.md").write_text("a file, not a directory\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{argv[0]}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    # Rejected before any work: no journal was started.
    assert not (tmp_path / "c.journal").exists()


# -- the data plane against its goldens ---------------------------------------

DATAPLANE_GOLDENS = Path(__file__).parent / "goldens" / "dataplane"
KINDS = ("xen", "kvm", "nova")


#: the InPlaceTP ablations whose phase sums the run takes from its plan
INPLACE_ABLATIONS = ("no-prepare-ahead", "no-parallel", "no-huge-pages")


def dataplane_runs():
    """The thirteen data-plane runs CI also compares with the goldens:
    InPlaceTP over the six ordered pairs, each writing its trace, a
    migration to every destination (the Xen->Xen baseline or
    MigrationTP), and the default InPlaceTP and three of its
    optimisation ablations, each writing its trace."""
    runs = []
    for source in KINDS:
        for target in KINDS:
            if source != target:
                name = f"inplace-{source}-{target}"
                runs.append(pytest.param(
                    name, ["inplace", "--source", source, "--target", target,
                           "--vms", "2", "--vcpus", "2",
                           "--trace", f"{name}.trace.json"], id=name))
    for dest in KINDS:
        runs.append(pytest.param(f"migrate-{dest}",
                                 ["migrate", "--dest", dest],
                                 id=f"migrate-{dest}"))
    runs.append(pytest.param(
        "inplace-default", ["inplace", "--trace", "inplace-default.trace.json"],
        id="inplace-default"))
    for ablation in INPLACE_ABLATIONS:
        name = f"inplace-{ablation}"
        runs.append(pytest.param(
            name, ["inplace", "--vms", "3", "--vcpus", "2", f"--{ablation}",
                   "--trace", f"{name}.trace.json"], id=name))
    return runs


@pytest.mark.parametrize("name,argv", dataplane_runs())
def test_dataplane_matches_goldens(name, argv, tmp_path, monkeypatch, capsys):
    """stdout and trace are byte-identical to ``goldens/dataplane``,
    whichever tests ran before in this process."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == (DATAPLANE_GOLDENS / f"{name}.txt").read_bytes()
    traces = sorted(path.name for path in tmp_path.iterdir())
    assert traces == ([f"{name}.trace.json"] if argv[0] == "inplace" else [])
    for trace in traces:
        assert ((tmp_path / trace).read_bytes()
                == (DATAPLANE_GOLDENS / trace).read_bytes())


# -- the Fig. 13 sweep against its goldens -------------------------------------

CLUSTER_GOLDENS = Path(__file__).parent / "goldens" / "cluster"


@pytest.mark.parametrize("name,argv", [
    pytest.param("cluster.txt", ["cluster"], id="default"),
    pytest.param("cluster-hosts20-vms16.txt",
                 ["cluster", "--hosts", "20", "--vms-per-host", "16",
                  "--fractions", "0,0.3,0.7,1"], id="hosts20-vms16"),
])
def test_cluster_matches_goldens(name, argv, capsys):
    """The sweep's stdout is byte-identical to ``goldens/cluster``, which
    CI also compares."""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == \
        (CLUSTER_GOLDENS / name).read_bytes()


def test_cluster_exported_plan_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["cluster", "--export-plan", "plan.bin"]) == 0
    assert ((tmp_path / "plan.bin").read_bytes()
            == (CLUSTER_GOLDENS / "plan.bin").read_bytes())


def test_inplace_trace_does_not_depend_on_earlier_machines(tmp_path):
    # The trace names the host after its machine spec, not after how many
    # machines the process built before.
    Machine(M1_SPEC)
    traces = []
    for run in range(2):
        trace = tmp_path / f"run{run}.trace.json"
        assert main(["inplace", "--trace", str(trace)]) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert b'"name": "M1"' in traces[0]


# -- documented command lines -------------------------------------------------

_SHELL_FENCES = {"", "bash", "console", "sh", "shell"}


def documented_commands():
    """Every ``hypertp``/``repro`` command in a shell code block of
    README.md and docs/*.md, as ``pytest.param(argv, id="file:line")``.

    ``\\`` continuations are joined, a ``$ `` prompt and ``#`` comments
    are stripped, and ``;``-chained commands are split.
    """
    params = []
    for path in [REPO_ROOT / "README.md",
                 *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        fence = None
        text, start = "", 0
        for number, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.strip()
            if stripped.startswith("```"):
                fence = None if fence is not None else stripped[3:].strip()
                continue
            if fence not in _SHELL_FENCES:
                continue
            if not text:
                start = number
                stripped = stripped.removeprefix("$ ")
            if stripped.endswith("\\"):
                text += stripped[:-1] + " "
                continue
            text += stripped
            if text.split(maxsplit=1)[:1] in (["hypertp"], ["repro"]):
                lexer = shlex.shlex(text, posix=True, punctuation_chars=";")
                lexer.whitespace_split = True
                command: list = []
                for token in [*lexer, ";"]:
                    if token != ";":
                        command.append(token)
                        continue
                    if command and command[0] in ("hypertp", "repro"):
                        params.append(pytest.param(
                            command[1:], id=f"{path.name}:{start}"))
                    command = []
            text = ""
    return params


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"documented command does not parse: {argv}\n"
                    f"{capsys.readouterr().err}")
