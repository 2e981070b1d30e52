"""Table 5 — SPECrate 2017 through InPlaceTP and MigrationTP.

Runs all 23 applications with a transplant at mid-execution.  Shape to
hold: per-application degradation stays in the low single digits (paper
maxima: 4.19 % for InPlaceTP, 4.81 % for MigrationTP), and the cost is a
constant that vanishes for long jobs.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import make_host
from repro.core.transplant import HyperTP
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.workloads.speccpu import SPEC_BASELINES, spec_degradation

PAPER_MAX = {"inplace": 0.0419, "migration": 0.0481}


def measure_downtime():
    machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, vcpus=2,
                        memory_gib=8.0)
    return HyperTP().inplace(machine, HypervisorKind.KVM,
                             SimClock()).downtime_s


def run():
    inplace_downtime = measure_downtime()
    inplace = spec_degradation("inplace", downtime_s=inplace_downtime)
    migration = spec_degradation("migration", downtime_s=0.005,
                                 degraded_span_s=75.0, degraded_factor=0.93)
    rows = []
    for name in sorted(SPEC_BASELINES):
        kvm_s, xen_s = SPEC_BASELINES[name]
        rows.append([
            name, kvm_s, xen_s,
            inplace[name].time_s, 100 * inplace[name].degradation,
            migration[name].time_s, 100 * migration[name].degradation,
        ])
    max_inplace = max(r.degradation for r in inplace.values())
    max_migration = max(r.degradation for r in migration.values())
    rows.append(["MAX", "", "", "", 100 * max_inplace, "",
                 100 * max_migration])
    return rows


HEADERS = ["benchmark", "KVM (s)", "Xen (s)", "InPlaceTP (s)", "deg (%)",
           "MigrationTP (s)", "deg (%)"]


def test_table5_spec(benchmark):
    rows = benchmark(run)
    print_experiment(
        "Table 5",
        "SPECrate 2017 impact (paper maxima: 4.19% / 4.81%)",
        format_table(HEADERS, rows),
    )


if __name__ == "__main__":
    print_experiment(
        "Table 5",
        "SPECrate 2017 impact (paper maxima: 4.19% / 4.81%)",
        format_table(HEADERS, run()),
    )
