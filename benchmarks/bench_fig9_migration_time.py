"""Fig. 9 — total migration time: MigrationTP (Xen->KVM) vs Xen->Xen.

Shapes to hold: vCPU count has no effect; memory size scales time linearly
(link-bound); with many VMs MigrationTP shares the link evenly (tight
spread) while Xen's serialized receive smears per-VM times widely.
"""

import statistics

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import migration_sweep
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind

VCPUS = [1, 2, 4, 6, 8, 10]
MEMORY = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
VM_COUNTS = [2, 4, 6, 8, 10, 12]


def run():
    xen = migration_sweep(M1_SPEC, HypervisorKind.XEN, VCPUS, MEMORY,
                          VM_COUNTS)
    hypertp = migration_sweep(M1_SPEC, HypervisorKind.KVM, VCPUS, MEMORY,
                              VM_COUNTS)
    rows = []
    for axis, points in (("vcpus", VCPUS), ("memory_gib", MEMORY),
                         ("vm_count", VM_COUNTS)):
        for point, xen_reports, tp_reports in zip(points, xen[axis],
                                                  hypertp[axis]):
            xen_s = [r.total_s for r in xen_reports]
            tp_s = [r.total_s for r in tp_reports]
            rows.append([
                axis, point,
                statistics.median(xen_s), max(xen_s) - min(xen_s),
                statistics.median(tp_s), max(tp_s) - min(tp_s),
            ])
    return rows


HEADERS = ["sweep", "x", "Xen med (s)", "Xen spread (s)",
           "HyperTP med (s)", "HyperTP spread (s)"]


def test_fig9_migration_time(benchmark):
    rows = benchmark(run)
    print_experiment("Fig. 9", "total migration time: Xen vs MigrationTP",
                     format_table(HEADERS, rows))


if __name__ == "__main__":
    print_experiment("Fig. 9", "total migration time: Xen vs MigrationTP",
                     format_table(HEADERS, run()))
