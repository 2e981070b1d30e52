"""Extension — streaming quality-of-experience through each mechanism.

Not a paper artifact, but it quantifies the §5.4 premise that streaming
VMs can ride transplants: a client with a normal playback buffer (12 s)
never rebuffers through InPlaceTP (~9 s interruption incl. NIC) or
MigrationTP (ms pause), while a thin 2 s buffer exposes the InPlaceTP
window.  The KVM->Xen direction's longer reboot overruns even the normal
buffer — the quantified reason operators prefer transplanting *toward*
the fast-booting hypervisor.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import make_host, migrate_once
from repro.core.transplant import HyperTP
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.workloads import timeline_for_inplace, timeline_for_migration
from repro.workloads.streaming import StreamingWorkload

TRIGGER_T = 30.0
DURATION = 150.0


def scenario_inplace(direction):
    if direction == "xen->kvm":
        source, target = HypervisorKind.XEN, HypervisorKind.KVM
    else:
        source, target = HypervisorKind.KVM, HypervisorKind.XEN
    machine = make_host(M1_SPEC, source, vm_count=1, vcpus=2, memory_gib=4.0)
    report = HyperTP().inplace(machine, target, SimClock())
    return timeline_for_inplace(report, TRIGGER_T, source, target)


def scenario_migration():
    [report] = migrate_once(M1_SPEC, HypervisorKind.KVM, vcpus=2,
                            memory_gib=4.0, dirty_rate_bytes_s=64 << 20)
    return timeline_for_migration(report, TRIGGER_T, HypervisorKind.XEN,
                                  HypervisorKind.KVM,
                                  precopy_throughput_factor=0.8)


def run():
    scenarios = [
        ("InPlaceTP xen->kvm", scenario_inplace("xen->kvm")),
        ("InPlaceTP kvm->xen", scenario_inplace("kvm->xen")),
        ("MigrationTP xen->kvm", scenario_migration()),
    ]
    rows = []
    for label, timeline in scenarios:
        for buffer_s in (2.0, 12.0):
            stats = StreamingWorkload(buffer_s=buffer_s).playback(
                DURATION, timeline,
            )
            rows.append([
                label, f"{buffer_s:.0f}s buffer",
                stats.rebuffer_events,
                stats.rebuffer_seconds,
                f"{stats.rebuffer_ratio:.1%}",
            ])
    return rows


HEADERS = ["mechanism", "client buffer", "rebuffer events", "stalled (s)",
           "stall ratio"]


def test_streaming_qoe(benchmark):
    rows = benchmark(run)
    print_experiment("Extension", "streaming QoE through each mechanism",
                     format_table(HEADERS, rows))


if __name__ == "__main__":
    print_experiment("Extension", "streaming QoE through each mechanism",
                     format_table(HEADERS, run()))
