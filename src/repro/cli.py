"""Command-line interface.

``hypertp`` exposes the library's main entry points for quick exploration:

* ``hypertp inplace``  — run an InPlaceTP on a simulated host, print Fig. 6
  style phase timings.
* ``hypertp migrate``  — run a MigrationTP (or Xen->Xen baseline), print
  Table 4 style numbers.
* ``hypertp advise``   — ask the vulnerability advisor about a CVE.
* ``hypertp vulns``    — print Table 1 from the embedded dataset.
* ``hypertp cluster``  — run the Fig. 13 cluster-upgrade sweep.
* ``hypertp fleet``    — run an emergency-response campaign end to end and
  print the fleet-wide vulnerability-window percentiles; ``--trace`` and
  ``--metrics`` also write its Perfetto timeline and metrics snapshot
  (byte-identical per seed).
* ``hypertp sentinel`` — replay a vulnerability feed against a simulated
  fleet and respond continuously: gate, score, transplant, return.
* ``hypertp tcb``      — print the §4.4 TCB accounting.
* ``hypertp lint``     — run the static verification pass over the source
  tree (UISR translation safety, codec symmetry, sim-layer hygiene).
"""

import argparse
import sys
from typing import List, Optional, Tuple

from repro.hw.machine import CLUSTER_NODE_SPEC, M1_SPEC, M2_SPEC
from repro.hypervisors.base import HypervisorKind

_SPECS = {"M1": M1_SPEC, "M2": M2_SPEC, "cluster": CLUSTER_NODE_SPEC}


def _kind(value: str) -> HypervisorKind:
    try:
        return HypervisorKind(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown hypervisor {value!r}; pick from "
            f"{[k.value for k in HypervisorKind]}"
        ) from None


def _pool(value: str) -> Tuple[str, ...]:
    """A comma-separated hypervisor repertoire, each name checked like
    ``--current``; empty entries are dropped."""
    return tuple(_kind(name.strip()).value
                 for name in value.split(",") if name.strip())


def _spec(value: str):
    try:
        return _SPECS[value]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown machine {value!r}; pick from {sorted(_SPECS)}"
        ) from None


def _write_outputs(command: str, outputs) -> bool:
    """Write each ``(path, data)`` whose path is set, before the report
    prints: text and bytes as they are, a document as sorted JSON.  A
    path that cannot be written is an input error, one line and ``False``
    (exit 2), not a traceback after the report."""
    import json

    for path, data in outputs:
        if not path:
            continue
        if not isinstance(data, (str, bytes)):
            data = json.dumps(data, indent=2, sort_keys=True)
        mode = "wb" if isinstance(data, bytes) else "w"
        try:
            with open(path, mode) as handle:
                handle.write(data)
        except OSError as error:
            print(f"{command}: cannot write {path}: "
                  f"{error.strerror or error}", file=sys.stderr)
            return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertp",
        description="HyperTP (EuroSys 2021) reproduction — simulated "
                    "hypervisor transplant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inplace = sub.add_parser("inplace", help="run an InPlaceTP")
    inplace.add_argument("--machine", type=_spec, default=M1_SPEC)
    inplace.add_argument("--source", type=_kind,
                         default=HypervisorKind.XEN)
    inplace.add_argument("--target", type=_kind,
                         default=HypervisorKind.KVM)
    inplace.add_argument("--vms", type=int, default=1)
    inplace.add_argument("--vcpus", type=int, default=1)
    inplace.add_argument("--memory-gib", type=float, default=1.0)
    inplace.add_argument("--no-huge-pages", action="store_true")
    inplace.add_argument("--no-parallel", action="store_true")
    inplace.add_argument("--no-prepare-ahead", action="store_true")
    inplace.add_argument("--trace", metavar="FILE",
                         help="write a chrome://tracing JSON timeline")

    migrate = sub.add_parser("migrate", help="run a (heterogeneous) "
                                             "live migration")
    migrate.add_argument("--machine", type=_spec, default=M1_SPEC)
    migrate.add_argument("--dest", type=_kind, default=HypervisorKind.KVM,
                         help="destination hypervisor (xen = homogeneous "
                              "baseline)")
    migrate.add_argument("--vcpus", type=int, default=1)
    migrate.add_argument("--memory-gib", type=float, default=1.0)
    migrate.add_argument("--dirty-mb-s", type=float, default=1.0,
                         help="guest dirty rate during pre-copy (MB/s)")

    advise = sub.add_parser("advise", help="ask the transplant advisor")
    advise.add_argument("cve", help="triggering CVE id")
    advise.add_argument("--current", type=_kind,
                        default=HypervisorKind.XEN)
    advise.add_argument("--pool", type=_pool, default="xen,kvm",
                        help="comma-separated hypervisor repertoire")
    advise.add_argument("--open", dest="open_cves", default="",
                        help="comma-separated other open CVE ids")

    sub.add_parser("vulns", help="print Table 1 from the dataset")

    cluster = sub.add_parser("cluster", help="run the Fig. 13 sweep")
    cluster.add_argument("--fractions", default="0,0.2,0.4,0.6,0.8",
                         help="comma-separated InPlaceTP shares")
    cluster.add_argument("--hosts", type=int, default=10)
    cluster.add_argument("--vms-per-host", type=int, default=10)
    cluster.add_argument("--export-plan", dest="export_plan", metavar="FILE",
                         help="write the reconfiguration plan for "
                              "--export-fraction as a framed binary blob")
    cluster.add_argument("--export-fraction", type=float, default=0.8,
                         help="InPlaceTP fraction of the exported plan")

    fleet = sub.add_parser(
        "fleet",
        help="run a disclosure-to-remediation emergency campaign",
    )
    fleet.add_argument("--hosts", type=int, default=10)
    fleet.add_argument("--vms-per-host", type=int, default=10)
    fleet.add_argument("--inplace-fraction", type=float, default=0.8)
    fleet.add_argument("--group-size", type=int, default=2)
    fleet.add_argument("--seed", type=int, default=42)
    fleet.add_argument("--concurrency", type=int, default=8,
                       help="max hosts in flight at once (0 = unbounded)")
    fleet.add_argument("--mechanism", default="hybrid",
                       choices=("inplace", "migration", "hybrid", "auto"),
                       help="per-host transplant mechanism policy "
                            "(§4.5.2): hybrid evacuates exactly the "
                            "InPlaceTP-incompatible VMs (default)")
    fleet.add_argument("--sequential-groups", action="store_true",
                       help="strict Fig. 13 wave semantics (no overlap)")
    fleet.add_argument("--fail-rate", type=float, default=0.0,
                       help="per-phase failure-injection probability")
    fleet.add_argument("--max-retries", type=int, default=3)
    fleet.add_argument("--cve", default="CVE-2016-6258",
                       help="triggering CVE id")
    fleet.add_argument("--current", type=_kind, default=HypervisorKind.XEN)
    fleet.add_argument("--pool", type=_pool, default="xen,kvm",
                       help="comma-separated hypervisor repertoire")
    fleet.add_argument("--json", dest="json_path", metavar="FILE",
                       help="also write the full metrics document as JSON")
    fleet.add_argument("--trace", dest="trace_path", metavar="FILE",
                       help="also write the campaign's Perfetto/Chrome "
                            "trace JSON")
    fleet.add_argument("--metrics", dest="metrics_path", metavar="FILE",
                       help="also write the metrics-registry snapshot JSON")
    fleet.add_argument("--journal", metavar="FILE",
                       help="write-ahead journal every transition and wave "
                            "boundary to FILE for crash recovery")
    fleet.add_argument("--resume", metavar="FILE",
                       help="recover a crashed campaign from its journal "
                            "and run it to completion; the campaign shape "
                            "comes from the journal, not the other flags")
    fleet.add_argument("--crash-after", type=int, metavar="N",
                       help="fault injection: kill the controller right "
                            "after the Nth journal record is durable "
                            "(exit code 3; requires --journal/--resume)")

    sentinel = sub.add_parser(
        "sentinel",
        help="replay a vulnerability feed against a simulated fleet and "
             "respond with transplant campaigns (the paper's loop, "
             "running continuously)",
    )
    sentinel.add_argument("--hosts", type=int, default=20)
    sentinel.add_argument("--vms-per-host", type=int, default=10)
    sentinel.add_argument("--group-size", type=int, default=2)
    sentinel.add_argument("--seed", type=int, default=42,
                          help="root seed: feed jitter and every "
                               "campaign's sub-seed derive from it")
    sentinel.add_argument("--mechanism", default="hybrid",
                          choices=("inplace", "migration", "hybrid", "auto"))
    sentinel.add_argument("--current", type=_kind,
                          default=HypervisorKind.XEN)
    sentinel.add_argument("--pool", type=_pool, default="xen,kvm",
                          help="comma-separated hypervisor repertoire")
    sentinel.add_argument("--mean-gap-days", type=float, default=7.0,
                          help="mean gap between feed advisories")
    sentinel.add_argument("--limit", type=int, default=None,
                          help="replay only the first N advisories")
    sentinel.add_argument("--batch", type=float, default=0.1,
                          help="batch-disclosure probability")
    sentinel.add_argument("--duplicates", type=float, default=0.05,
                          help="duplicate re-announcement probability")
    sentinel.add_argument("--out-of-order", type=float, default=0.1,
                          help="adjacent-delivery inversion probability")
    sentinel.add_argument("--gate", default="critical",
                          choices=("low", "medium", "critical"),
                          help="minimum severity that triggers a response")
    sentinel.add_argument("--patch-days", type=float, default=2.0,
                          help="patch-application lag after release (days)")
    sentinel.add_argument("--no-return", action="store_true",
                          help="skip return transplants when patches land")
    sentinel.add_argument("--maintenance-every-h", type=float, default=0.0,
                          help="maintenance-window cadence in hours "
                               "(0 = launch any time)")
    sentinel.add_argument("--maintenance-length-h", type=float, default=0.0,
                          help="maintenance-window length in hours")
    sentinel.add_argument("--json", dest="json_path", metavar="FILE",
                          help="also write the full report document as JSON")
    sentinel.add_argument("--trace", dest="trace_path", metavar="FILE",
                          help="also write the response-plane Perfetto/"
                               "Chrome trace JSON")
    sentinel.add_argument("--metrics", dest="metrics_path", metavar="FILE",
                          help="also write the metrics-registry snapshot")
    sentinel.add_argument("--journal-dir", metavar="DIR",
                          help="write-ahead journal every launched campaign "
                               "into DIR")

    sub.add_parser("tcb", help="print the §4.4 TCB accounting")

    lint = sub.add_parser("lint", help="run the static verification pass")
    lint.add_argument("paths", nargs="*",
                      help="package directories to analyze (default: the "
                           "installed repro package)")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero when any finding is reported")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default: text)")
    lint.add_argument("--rule", action="append", metavar="NAME",
                      help="run only this rule (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")
    return parser


def cmd_inplace(args) -> int:
    from repro.core.optimizations import OptimizationConfig
    from repro.core.transplant import HyperTP
    from repro.errors import (
        FrameAllocationError,
        TransplantError,
        VMLifecycleError,
    )
    from repro.sim.clock import SimClock
    from repro.hypervisors import make_hypervisor
    from repro.hw.machine import Machine
    from repro.guest.vm import VMConfig

    if args.source is args.target:
        print("inplace: source and target must differ", file=sys.stderr)
        return 2
    if args.vms < 1:
        print(f"inplace: need >= 1 VM, got {args.vms}", file=sys.stderr)
        return 2

    # Named after its spec, so the trace does not depend on how many
    # machines the process built before.
    machine = Machine(args.machine, name=args.machine.name)
    hypervisor = make_hypervisor(args.source)
    hypervisor.boot(machine)
    opts = OptimizationConfig(
        prepare_ahead=not args.no_prepare_ahead,
        parallel=not args.no_parallel,
        huge_pages=not args.no_huge_pages,
    )
    # Guests that do not fit the machine fail to be created, or leave no
    # room for the UISR frames and abort the transplant before the reboot.
    try:
        for i in range(args.vms):
            hypervisor.create_vm(VMConfig(
                f"vm{i}", vcpus=args.vcpus,
                memory_bytes=int(args.memory_gib * (1 << 30)), seed=i,
            ))
        report = HyperTP(optimizations=opts).inplace(machine, args.target,
                                                     SimClock())
    except (FrameAllocationError, TransplantError, VMLifecycleError) as error:
        print(f"inplace: {error}", file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs import trace_inplace

        trace = trace_inplace(report).to_chrome_trace()
        if not _write_outputs("inplace", [(args.trace, trace)]):
            return 2
    print(f"InPlaceTP {report.source}->{report.target} on "
          f"{args.machine.name}: {report.vm_count} VMs x {args.vcpus} vCPU "
          f"x {args.memory_gib:g} GiB")
    for phase, seconds in report.phase_breakdown.items():
        print(f"  {phase:>12}: {seconds:8.3f} s")
    print(f"  {'downtime':>12}: {report.downtime_s:8.3f} s")
    print(f"  {'total':>12}: {report.total_s:8.3f} s")
    print(f"  PRAM metadata {report.pram_metadata_bytes / 1024:.0f} KiB, "
          f"UISR {report.uisr_bytes / 1024:.1f} KiB, guests intact: "
          f"{report.guest_digests_preserved}")
    if args.trace:
        print(f"  trace written to {args.trace} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def cmd_migrate(args) -> int:
    from repro.bench.runner import migrate_once
    from repro.errors import (
        FrameAllocationError,
        MigrationError,
        VMLifecycleError,
    )

    try:
        [report] = migrate_once(
            args.machine, args.dest, vcpus=args.vcpus,
            memory_gib=args.memory_gib,
            dirty_rate_bytes_s=args.dirty_mb_s * (1 << 20),
        )
    except (FrameAllocationError, MigrationError, VMLifecycleError) as error:
        print(f"migrate: {error}", file=sys.stderr)
        return 2
    flavor = (f"MigrationTP xen->{args.dest.value}" if report.heterogeneous
              else "Xen->Xen baseline")
    print(f"{flavor}: {args.memory_gib:g} GiB VM, "
          f"{args.dirty_mb_s:g} MB/s dirty rate")
    print(f"  pre-copy rounds : {report.round_count}")
    print(f"  pre-copy time   : {report.precopy_s:.2f} s")
    print(f"  downtime        : {report.downtime_s * 1000:.2f} ms")
    print(f"  total           : {report.total_s:.2f} s")
    print(f"  bytes moved     : {report.bytes_transferred / (1 << 30):.2f} GiB "
          f"({report.wire_messages} wire messages)")
    print(f"  wire dedup      : {report.wire_unique_pages} unique pages, "
          f"{report.wire_dedup_hits} dedup hits, "
          f"ratio {report.wire_dedup_ratio:.2f}")
    print(f"  guest intact    : {report.guest_digest_preserved}")
    return 0


def cmd_advise(args) -> int:
    from repro.errors import VulnDBError
    from repro.vulndb import TransplantAdvisor, load_default_database

    db = load_default_database()
    pool = list(args.pool)
    open_cves = [c.strip() for c in args.open_cves.split(",") if c.strip()]
    try:
        advisor = TransplantAdvisor(db, hypervisor_pool=pool)
        advice = advisor.advise(args.cve, args.current.value,
                                open_cves=open_cves)
    except VulnDBError as error:
        print(f"advise: {error}", file=sys.stderr)
        return 2
    record = db.get(args.cve)
    print(f"{args.cve} (CVSS {record.score}, {record.severity.value}, "
          f"affects {sorted(record.affected)}): {record.description}")
    if not advice.transplant_needed:
        print("no transplant needed")
        return 0
    if advice.recommended_target:
        print(f"=> transplant {args.current.value} -> "
              f"{advice.recommended_target}")
        return 0
    print(f"=> NO SAFE TARGET in pool {pool}; rejected: {advice.rejected}")
    return 1


def cmd_vulns(_args) -> int:
    from repro.bench.report import format_table
    from repro.vulndb.analysis import totals, yearly_counts
    from repro.vulndb.data import load_default_database

    db = load_default_database()
    rows = [[r.year, r.xen_critical, r.xen_medium, r.kvm_critical,
             r.kvm_medium, r.common_critical, r.common_medium]
            for r in yearly_counts(db)]
    t = totals(db)
    rows.append(["Total", t.xen_critical, t.xen_medium, t.kvm_critical,
                 t.kvm_medium, t.common_critical, t.common_medium])
    print(format_table(
        ["Year", "Xen crit", "Xen med", "KVM crit", "KVM med",
         "Common crit", "Common med"], rows,
        title="Vulnerabilities per year (Table 1)",
    ))
    return 0


def cmd_cluster(args) -> int:
    from repro.cluster import BtrPlacePlanner, encode_plan
    from repro.cluster.model import build_paper_cluster
    from repro.errors import ClusterError, FleetError
    from repro.fleet import UpgradeCampaign

    campaign = UpgradeCampaign(hosts=args.hosts,
                               vms_per_host=args.vms_per_host)
    plan = None
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
        results = campaign.sweep(fractions)
        if args.export_plan:
            cluster = build_paper_cluster(
                hosts=args.hosts, vms_per_host=args.vms_per_host,
                inplace_fraction=args.export_fraction, seed=campaign.seed,
            )
            plan = BtrPlacePlanner(
                cluster, group_size=campaign.group_size).plan(apply=False)
    except (ClusterError, FleetError, ValueError) as error:
        print(f"cluster: {error}", file=sys.stderr)
        return 2
    blob = encode_plan(plan) if plan is not None else None
    if not _write_outputs("cluster", [(args.export_plan, blob)]):
        return 2
    gains = UpgradeCampaign.time_gains(results)
    print(f"Cluster upgrade sweep ({args.hosts} hosts x "
          f"{args.vms_per_host} VMs):")
    for result, gain in zip(results, gains):
        print(f"  {result.inplace_fraction:>5.0%}: "
              f"{result.migration_count:4d} migrations, "
              f"{result.total_minutes:6.1f} min, gain {gain:4.0%}")
    if blob is not None:
        print(f"plan ({args.export_fraction:.0%} in-place) -> "
              f"{args.export_plan} ({len(blob)} bytes)")
    return 0


def cmd_fleet(args) -> int:
    from repro.errors import (
        ClusterError,
        FleetError,
        JournalCrash,
        JournalError,
        VulnDBError,
    )
    from repro.par import run_fleet_campaign
    from repro.vulndb.data import load_default_database

    journaling = bool(args.journal or args.resume)
    if args.journal and args.resume:
        print("fleet: --journal and --resume are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.crash_after is not None and not journaling:
        print("fleet: --crash-after requires --journal or --resume",
              file=sys.stderr)
        return 2
    if args.crash_after is not None and args.crash_after < 1:
        print(f"fleet: --crash-after must be >= 1, got {args.crash_after}",
              file=sys.stderr)
        return 2
    payload = {
        "config": {
            "hosts": args.hosts,
            "vms_per_host": args.vms_per_host,
            "inplace_fraction": args.inplace_fraction,
            "group_size": args.group_size,
            "seed": args.seed,
            # 0 means unbounded; FleetConfig rejects a negative value.
            "concurrency": args.concurrency or None,
            "sequential_groups": args.sequential_groups,
            "mechanism": args.mechanism,
            "trigger_cve": args.cve,
            "current_hypervisor": args.current.value,
            "pool": args.pool,
        },
        "fail_rate": args.fail_rate,
        "injector_seed": args.seed,
        "max_retries": args.max_retries,
        "trace": bool(args.trace_path),
        "metrics": bool(args.metrics_path),
        "journal": args.journal,
        "resume": args.resume,
        "crash_after": args.crash_after,
    }
    try:
        result = run_fleet_campaign(payload)
    except JournalCrash as crash:
        print(f"fleet: {crash}", file=sys.stderr)
        return 3
    except (ClusterError, FleetError, JournalError, VulnDBError) as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2

    # A resumed campaign's shape comes from its journal, not the flags.
    resumed = result.get("resumed")
    shape = resumed or payload
    if resumed:
        if resumed["torn_bytes"]:
            print(f"fleet: journal had a torn tail — discarded "
                  f"{resumed['torn_bytes']} trailing byte(s) "
                  f"({resumed['torn_error']})", file=sys.stderr)
        print(f"fleet: resuming from {args.resume} — verifying "
              f"{resumed['replayed']} journaled record(s)", file=sys.stderr)
    document = result["document"]
    if not _write_outputs("fleet", [
            (args.json_path, document),
            (args.trace_path, result.get("trace")),
            (args.metrics_path, result.get("registry"))]):
        return 2
    campaign, window = document["campaign"], document["window"]
    robustness = document["robustness"]
    record = load_default_database().get(campaign["trigger_cve"])
    print(f"{campaign['trigger_cve']} disclosed ({record.severity.value}, "
          f"affects {sorted(record.affected)}): {record.description}")
    print(f"Advisor: transplant {campaign['source_hypervisor']} -> "
          f"{campaign['target_hypervisor']}")
    config, fail_rate = shape["config"], shape["fail_rate"]
    print(f"Campaign: {campaign['hosts']} hosts / {campaign['vms']} VMs in "
          f"{campaign['waves']} waves, "
          f"concurrency {config['concurrency'] or 'unbounded'}"
          f"{', sequential groups' if config['sequential_groups'] else ''}"
          f"{f', fail rate {fail_rate:.0%}' if fail_rate else ''}")
    print(f"  remediated : {robustness['done_hosts']}/{campaign['hosts']} "
          f"hosts ({robustness['rolled_back_hosts']} rolled back)")
    print(f"  migrations : {robustness['migrations_executed']} executed, "
          f"{robustness['migrations_skipped']} skipped")
    mix = result.get("mechanism_mix") or {}
    if mix:
        summary = ", ".join(
            f"{kind} {entry['hosts']} host(s)/{entry['vms']} VM(s)"
            + (f" ({entry['evacuations']} evac)"
               if entry["evacuations"] else "")
            for kind, entry in mix.items()
        )
        # The document, not args: a --resume run takes the journal's
        # configured mechanism, whatever the flag says.
        policy = campaign.get("mechanism", "hybrid")
        print(f"  mechanisms : [{policy}] {summary}")
    print(f"  robustness : {robustness['retries_total']} retries, "
          f"{robustness['rollbacks_total']} rollbacks")
    if window["percentiles_s"]:
        print("  vulnerability window (disclosure -> host remediated):")
        for key in ("p50", "p95", "p99", "max"):
            seconds = window["percentiles_s"][key]
            print(f"    {key:>4}: {seconds:10.1f} s ({seconds / 60:6.1f} min)")
    else:
        print("  no host reached DONE — the fleet stays vulnerable")
    if args.json_path:
        print(f"  metrics JSON written to {args.json_path}")
    if args.trace_path:
        print(f"  trace JSON written to {args.trace_path}")
    if args.metrics_path:
        print(f"  metrics snapshot written to {args.metrics_path}")
    terminal = {"done", "rolled-back"}
    if not all(h["state"] in terminal for h in document["per_host"]):
        print("ERROR: campaign left hosts in a non-terminal state",
              file=sys.stderr)
        return 1
    return 0


def cmd_sentinel(args) -> int:
    from repro.errors import (
        ClusterError,
        JournalError,
        SentinelError,
        VulnDBError,
    )
    from repro.par import run_sentinel
    from repro.sentinel import (
        DAY_S,
        FeedSchedule,
        PolicyConfig,
        SentinelConfig,
    )

    try:
        config = SentinelConfig(
            hosts=args.hosts,
            vms_per_host=args.vms_per_host,
            group_size=args.group_size,
            mechanism=args.mechanism,
            seed=args.seed,
            current_hypervisor=args.current.value,
            pool=args.pool,
            feed=FeedSchedule(
                seed=args.seed,
                mean_gap_days=args.mean_gap_days,
                batch_probability=args.batch,
                duplicate_probability=args.duplicates,
                out_of_order_probability=args.out_of_order,
                limit=args.limit,
            ),
            policy=PolicyConfig(
                severity_gate=args.gate,
                patch_application_days=args.patch_days,
                return_transplant=not args.no_return,
                maintenance_window_every_s=args.maintenance_every_h * 3600.0,
                maintenance_window_length_s=args.maintenance_length_h
                * 3600.0,
            ),
        )
    except SentinelError as error:
        print(f"sentinel: {error}", file=sys.stderr)
        return 2
    try:
        result = run_sentinel({
            "config": config.to_payload(),
            "trace": bool(args.trace_path),
            "metrics": bool(args.metrics_path),
            "journal_dir": args.journal_dir,
        })
    except (ClusterError, JournalError, SentinelError, VulnDBError) as error:
        print(f"sentinel: {error}", file=sys.stderr)
        return 2

    document = result["document"]
    if not _write_outputs("sentinel", [
            (args.json_path, document),
            (args.trace_path, result.get("trace")),
            (args.metrics_path, result.get("registry"))]):
        return 2
    counters, windows = document["counters"], document["windows"]
    years = document["completed_at_s"] / DAY_S / 365.25
    print(f"Sentinel replay: {counters['disclosures']} deliveries "
          f"({counters['duplicates_ignored']} duplicates) over "
          f"{years:.1f} simulated years, fleet of {args.hosts} hosts "
          f"on {args.current.value}, pool {list(args.pool)}")
    print(f"  responses  : {counters['campaigns_launched']} campaigns, "
          f"{counters['returns_launched']} returns, "
          f"{counters['preemptions']} preempted, "
          f"{counters['residual_unresolved']} residual (no safe target)")
    transplant = windows["transplant_percentiles_days"]
    patch = windows["patch_cycle_percentiles_days"]
    if transplant:
        print(f"  windows    : disclosure -> fleet-no-longer-exposed, "
              f"{windows['transplant_count']} CVEs via transplant vs "
              f"{windows['patch_cycle_count']} patch-cycle baselines")
        for key in ("p50", "p95", "p99", "max"):
            line = f"    {key:>4}: {transplant[key]:8.2f} days (transplant)"
            if patch:
                line += f"  vs {patch[key]:8.2f} days (patch cycle)"
            print(line)
    else:
        print("  windows    : no CVE was remediated by transplant")
    print(f"  exposure   : {windows['exposure_host_days_total']:.1f} "
          f"host-days of open exposure accrued")
    if args.json_path:
        print(f"  report JSON written to {args.json_path}")
    if args.trace_path:
        print(f"  trace JSON written to {args.trace_path}")
    if args.metrics_path:
        print(f"  metrics JSON written to {args.metrics_path}")
    if args.journal_dir:
        print(f"  campaign journals written to {args.journal_dir}")
    return 0


def cmd_tcb(_args) -> int:
    from repro.core.tcb import HYPERTP_COMPONENTS, account

    report = account()
    for component in HYPERTP_COMPONENTS:
        where = "kernel" if component.in_kernel else "user"
        tcb = "TCB" if component.in_tcb else "---"
        print(f"  {component.kloc:5.1f} KLOC [{where:>6}] [{tcb}] "
              f"{component.name}")
    print(f"  total {report.total_kloc:.1f} KLOC, TCB {report.tcb_kloc:.1f} "
          f"KLOC ({report.userspace_share:.0%} userspace), relative "
          f"increase {report.relative_tcb_increase:.2%}")
    return 0


def cmd_lint(args) -> int:
    import os

    from repro.analysis import (
        Project,
        all_rules,
        render_json,
        render_text,
        run_analysis,
    )
    from repro.analysis.engine import AnalysisError

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:24} {rule.description}")
        return 0

    if args.paths:
        roots = args.paths
        for root in roots:
            if not os.path.isdir(root):
                print(f"lint: {root!r} is not a directory", file=sys.stderr)
                return 2
    else:
        import repro

        roots = [os.path.dirname(os.path.abspath(repro.__file__))]

    # One project over every root, so each module's in-source
    # suppressions are found whichever root it came from.  Modules are
    # keyed by their root-relative path, so two roots may not share one.
    modules, root_of = [], {}
    for root in roots:
        for module in Project.from_directory(root).modules:
            if module.path in root_of:
                print(f"lint: {module.path} is under both "
                      f"{root_of[module.path]} and {root}; lint those roots "
                      f"in separate runs", file=sys.stderr)
                return 2
            root_of[module.path] = root
            modules.append(module)
    project = Project(modules)
    if not project.modules:
        print(f"lint: no python files under {', '.join(roots)}",
              file=sys.stderr)
        return 2

    try:
        findings, suppressed = run_analysis(project, rule_names=args.rule)
    except AnalysisError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2

    render = render_json if args.format == "json" else render_text
    print(render(findings, suppressed))
    if findings and args.strict:
        return 1
    return 0


_COMMANDS = {
    "inplace": cmd_inplace,
    "migrate": cmd_migrate,
    "advise": cmd_advise,
    "vulns": cmd_vulns,
    "cluster": cmd_cluster,
    "fleet": cmd_fleet,
    "sentinel": cmd_sentinel,
    "tcb": cmd_tcb,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
