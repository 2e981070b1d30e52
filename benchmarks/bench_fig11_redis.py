"""Fig. 11 — Redis QPS through InPlaceTP (left) and MigrationTP (right).

Shapes to hold: InPlaceTP shows a ~9 s service interruption (downtime +
NIC re-init, in parallel) around the trigger, then ~37 % higher QPS on
KVM; MigrationTP shows the classic pre-copy throughput dip for ~78 s and a
negligible pause.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import make_host, migrate_once
from repro.core.transplant import HyperTP
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.workloads import (
    RedisWorkload,
    timeline_for_inplace,
    timeline_for_migration,
)

TRIGGER_T = 50.0
REDIS_DIRTY_RATE = 12 << 20  # an in-memory store keeps pages warm


def run_inplace():
    machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, vcpus=2,
                        memory_gib=8.0)
    report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
    timeline = timeline_for_inplace(report, TRIGGER_T, HypervisorKind.XEN,
                                    HypervisorKind.KVM)
    series = RedisWorkload().run(200.0, timeline)
    z0, z1 = series.zero_span()
    return series, z0, z1


def run_migration():
    [report] = migrate_once(M1_SPEC, HypervisorKind.KVM, vcpus=2,
                            memory_gib=8.0,
                            dirty_rate_bytes_s=REDIS_DIRTY_RATE)
    timeline = timeline_for_migration(report, TRIGGER_T, HypervisorKind.XEN,
                                      HypervisorKind.KVM,
                                      precopy_throughput_factor=0.6)
    series = RedisWorkload().run(260.0, timeline)
    return series, report


def summarize():
    inplace_series, z0, z1 = run_inplace()
    migration_series, migration_report = run_migration()
    before = inplace_series.mean_between(0, TRIGGER_T - 5)
    after = inplace_series.mean_between(z1 + 5, 200)
    dip = migration_series.mean_between(
        TRIGGER_T + 5, TRIGGER_T + migration_report.precopy_s - 5,
    )
    rows = [
        ["InPlaceTP interruption (s)", z1 - z0 + 1.0, "~9"],
        ["InPlaceTP QPS before (K)", before / 1000, "~30"],
        ["InPlaceTP QPS after (K)", after / 1000, "~41 (+37%)"],
        ["MigrationTP pre-copy span (s)", migration_report.precopy_s, "~78"],
        ["MigrationTP QPS during copy (K)", dip / 1000, "dip"],
        ["MigrationTP downtime (ms)", migration_report.downtime_s * 1000,
         "negligible"],
    ]
    return rows


def test_fig11_redis(benchmark):
    rows = benchmark(summarize)
    print_experiment("Fig. 11", "Redis through InPlaceTP and MigrationTP",
                     format_table(["metric", "measured", "paper"], rows))


if __name__ == "__main__":
    print_experiment("Fig. 11", "Redis through InPlaceTP and MigrationTP",
                     format_table(["metric", "measured", "paper"],
                                  summarize()))
