"""Fig. 12 — MySQL latency and QPS through InPlaceTP and MigrationTP.

Shapes to hold: InPlaceTP interrupts service for ~9 s; during MigrationTP's
~76 s pre-copy, latency rises ~252 % and throughput drops ~68 %, recovering
fully after the switch.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import make_host, migrate_once
from repro.core.transplant import HyperTP
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.workloads import (
    MySQLWorkload,
    timeline_for_inplace,
    timeline_for_migration,
)
from repro.workloads.mysql import MIGRATION_QPS_FACTOR

TRIGGER_T = 46.0
MYSQL_DIRTY_RATE = 10 << 20


def summarize():
    # InPlaceTP panel.
    machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, vcpus=2,
                        memory_gib=8.0)
    inplace_report = HyperTP().inplace(machine, HypervisorKind.KVM,
                                       SimClock())
    inplace_timeline = timeline_for_inplace(
        inplace_report, TRIGGER_T, HypervisorKind.XEN, HypervisorKind.KVM,
    )
    workload = MySQLWorkload()
    inplace_qps = workload.run(180.0, inplace_timeline)
    z0, z1 = inplace_qps.zero_span()

    # MigrationTP panel.
    [migration_report] = migrate_once(M1_SPEC, HypervisorKind.KVM, vcpus=2,
                                      memory_gib=8.0,
                                      dirty_rate_bytes_s=MYSQL_DIRTY_RATE)
    migration_timeline = timeline_for_migration(
        migration_report, TRIGGER_T, HypervisorKind.XEN, HypervisorKind.KVM,
        precopy_throughput_factor=MIGRATION_QPS_FACTOR,
    )
    qps = workload.run(220.0, migration_timeline)
    latency = workload.run_latency(220.0, migration_timeline)

    base_qps = qps.mean_between(0, TRIGGER_T - 5)
    base_latency = latency.mean_between(0, TRIGGER_T - 5)
    mid0 = TRIGGER_T + 5
    mid1 = TRIGGER_T + migration_report.precopy_s - 5
    copy_qps = qps.mean_between(mid0, mid1)
    copy_latency = latency.mean_between(mid0, mid1)

    rows = [
        ["InPlaceTP interruption (s)", z1 - z0 + 1.0, "~9"],
        ["Migration pre-copy span (s)", migration_report.precopy_s, "~76"],
        ["QPS drop during copy (%)", 100 * (1 - copy_qps / base_qps), "68"],
        ["Latency rise during copy (%)",
         100 * (copy_latency / base_latency - 1), "252"],
        ["QPS recovered after (K)", qps.mean_between(mid1 + 10, 220) / 1000,
         "back to baseline"],
    ]
    return rows


def test_fig12_mysql(benchmark):
    rows = benchmark(summarize)
    print_experiment("Fig. 12", "MySQL through InPlaceTP and MigrationTP",
                     format_table(["metric", "measured", "paper"], rows))


if __name__ == "__main__":
    print_experiment("Fig. 12", "MySQL through InPlaceTP and MigrationTP",
                     format_table(["metric", "measured", "paper"],
                                  summarize()))
