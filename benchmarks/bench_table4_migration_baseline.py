"""Table 4 — MigrationTP (Xen->KVM) vs Xen->Xen live migration.

Paper anchors: downtime 133.59 ms (Xen->Xen) vs 4.96 ms (MigrationTP);
total migration time 9.564 s vs 9.63 s for a 1 GB / 1 vCPU VM over 1 Gbps.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import migrate_once
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind


def run():
    [xen_report] = migrate_once(M1_SPEC, HypervisorKind.XEN)
    [tp_report] = migrate_once(M1_SPEC, HypervisorKind.KVM)

    return [
        ["Downtime (ms)", xen_report.downtime_s * 1000, 133.59,
         tp_report.downtime_s * 1000, 4.96],
        ["Migration time (s)", xen_report.total_s, 9.564,
         tp_report.total_s, 9.63],
    ]


def test_table4_migration_baseline(benchmark):
    rows = benchmark(run)
    print_experiment(
        "Table 4", "MigrationTP vs Xen->Xen live migration (1 vCPU, 1 GB)",
        format_table(
            ["metric", "Xen->Xen", "paper", "MigrationTP", "paper"], rows,
        ),
    )


if __name__ == "__main__":
    print_experiment(
        "Table 4", "MigrationTP vs Xen->Xen live migration (1 vCPU, 1 GB)",
        format_table(
            ["metric", "Xen->Xen", "paper", "MigrationTP", "paper"], run(),
        ),
    )
