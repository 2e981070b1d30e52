"""Extension — the repertoire's micro-reboot cost per target.

Extends Fig. 6/10 across the whole 3-member pool: for each transplant
direction, the reboot time and resulting downtime on M1 (single 1 vCPU /
1 GB VM).  The ordering NOVA < KVM << Xen quantifies the structural rule
of thumb: prefer transplanting *toward* the hypervisor with the shortest
boot path, and reserve the expensive direction for the transplant back.
"""

import itertools

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import make_host
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.transplant import HyperTP


def run():
    rows = []
    for source, target in itertools.permutations(HypervisorKind, 2):
        machine = make_host(M1_SPEC, source, vm_count=1)
        report = HyperTP().inplace(machine, target, SimClock())
        rows.append([
            f"{source.value} -> {target.value}",
            report.reboot_s,
            report.downtime_s,
            report.total_s,
        ])
    rows.sort(key=lambda r: r[2])
    return rows


HEADERS = ["direction", "reboot (s)", "downtime (s)", "total (s)"]


def test_repertoire_boot(benchmark):
    rows = benchmark(run)
    print_experiment("Extension",
                     "micro-reboot cost per transplant direction (M1)",
                     format_table(HEADERS, rows))


if __name__ == "__main__":
    print_experiment("Extension",
                     "micro-reboot cost per transplant direction (M1)",
                     format_table(HEADERS, run()))
