"""Fig. 7 — InPlaceTP Xen->KVM scalability on M1 and M2.

Three sweeps per machine: vCPU count {1..10} (flat), guest memory
{2..12 GB} (PRAM/Reboot grow), VM count {2..12} (M1's 4 cores parallelize
PRAM worse than M2's 28).  Downtime stays within the paper's ranges
(M1: 1.7-3.6 s, M2: 2.94-4.28 s).
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import inplace_sweep
from repro.hw.machine import M1_SPEC, M2_SPEC
from repro.hypervisors.base import HypervisorKind

VCPUS = [1, 2, 4, 6, 8, 10]
MEMORY = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
VM_COUNTS = [2, 4, 6, 8, 10, 12]


def run(spec):
    sweep = inplace_sweep(spec, HypervisorKind.KVM, VCPUS, MEMORY, VM_COUNTS)
    rows = []
    for axis, points in (("vcpus", VCPUS), ("memory_gib", MEMORY),
                         ("vm_count", VM_COUNTS)):
        for point, report in zip(points, sweep[axis]):
            rows.append([
                axis, point, report.pram_s, report.translation_s,
                report.reboot_s, report.restoration_s, report.downtime_s,
            ])
    return rows


HEADERS = ["sweep", "x", "PRAM (s)", "Transl. (s)", "Reboot (s)",
           "Restor. (s)", "downtime (s)"]


def test_fig7_m1(benchmark):
    rows = benchmark(run, M1_SPEC)
    print_experiment("Fig. 7 (M1)", "InPlaceTP Xen->KVM scalability",
                     format_table(HEADERS, rows))


def test_fig7_m2(benchmark):
    rows = benchmark(run, M2_SPEC)
    print_experiment("Fig. 7 (M2)", "InPlaceTP Xen->KVM scalability",
                     format_table(HEADERS, rows))


if __name__ == "__main__":
    for spec in (M1_SPEC, M2_SPEC):
        print_experiment(f"Fig. 7 ({spec.name})",
                         "InPlaceTP Xen->KVM scalability",
                         format_table(HEADERS, run(spec)))
