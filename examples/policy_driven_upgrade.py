#!/usr/bin/env python3
"""Policy-driven host upgrade with guest notification.

The paper leaves the InPlaceTP-vs-MigrationTP choice to the operator (§1);
this example makes that policy concrete with the fleet's own §4.5.2
decision, ``MechanismPolicy("auto")``.  A host runs a mixed VM
population: most tolerate a short freeze, one latency-critical VM has a
0.5 s budget, and one holds a pass-through NIC (cannot migrate at all).
The policy predicts the host's InPlaceTP downtime, picks the VMs to
evacuate, guests are notified through the scheduled-events plane, and
the transplant executes accordingly.
"""

import dataclasses

from repro import HyperTP, HypervisorKind, M1_SPEC, SimClock, VMConfig
from repro.bench import make_kvm_host, make_xen_host
from repro.core.mechanisms import MechanismPolicy, VMProfile
from repro.core.pipeline import TransplantPipelines
from repro.guest.drivers import PassthroughDriver
from repro.hw.network import Fabric
from repro.orchestrator import (
    AZURE_MAINTENANCE_BOUND_S,
    EventType,
    ScheduledEventsService,
)

GIB = 1024 ** 3
#: MigrationTP's default guest dirty rate (bytes/s)
DIRTY_RATE = 1 << 20


def main():
    # The host and its mixed population.
    machine = make_xen_host(M1_SPEC, vm_count=3, name="prod-host")
    xen = machine.hypervisor
    xen.create_vm(VMConfig("latency-critical", vcpus=1, memory_bytes=GIB))
    dpdk = xen.create_vm(VMConfig("dpdk-router", vcpus=2,
                                  memory_bytes=2 * GIB))
    dpdk.vm.attach_device(PassthroughDriver("sriov-vf0"))

    # The operator's downtime SLOs: the 30 s Azure maintenance bound by
    # default, 0.5 s for the latency-critical VM.  A pass-through device
    # forbids migration (§4.2.3), so that VM rides whatever its SLO.
    slo_s = {"latency-critical": 0.5}
    vms = [domain.vm for domain in sorted(xen.domains.values(),
                                          key=lambda d: d.domid)]
    profiles = [
        VMProfile(
            name=vm.name,
            memory_bytes=vm.config.memory_bytes,
            dirty_rate_bytes_s=DIRTY_RATE,
            downtime_slo_s=slo_s.get(vm.name, AZURE_MAINTENANCE_BOUND_S),
            migratable=not any(isinstance(d, PassthroughDriver)
                               for d in vm.devices),
        )
        for vm in vms
    ]
    pipelines = TransplantPipelines(machine, node_spec=M1_SPEC)
    decision = MechanismPolicy("auto").decide_host(
        machine.name, profiles,
        inplace=pipelines.inplace(HypervisorKind.KVM),
        migration=pipelines.migration(HypervisorKind.KVM),
        spare_slots=len(profiles),  # the spare host can take them all
    )
    # Evacuees are the VMs the transplant must not carry through the
    # micro-reboot.
    for vm in vms:
        vm.config = dataclasses.replace(
            vm.config, inplace_compatible=vm.name not in decision.evacuate)

    print(f"Predicted InPlaceTP downtime for {decision.host}: "
          f"{decision.predicted_downtime_s:.2f} s ({decision.reason})")
    for profile in profiles:
        mechanism = ("migration" if profile.name in decision.evacuate
                     else "inplace")
        note = "" if profile.migratable else ", pass-through: cannot migrate"
        print(f"  {profile.name:>18} -> {mechanism:<10}"
              f" (SLO {profile.downtime_slo_s:.2f} s{note})")

    # Notify guests through the scheduled-events plane.
    events = ScheduledEventsService(notice_s=900.0)
    clock = SimClock()
    posted = []
    for profile in profiles:
        if profile.name in decision.evacuate:
            event_type, duration = EventType.REDEPLOY, 120.0
        else:
            event_type = EventType.FREEZE
            duration = decision.predicted_downtime_s
        posted.append(events.post(profile.name, event_type, now=clock.now,
                                  expected_duration_s=duration))
    print(f"\nPosted {len(posted)} maintenance events "
          f"(notice: {events.notice_s / 60:.0f} min).")
    # Guest agents acknowledge, waiving the notice period.
    for event in posted:
        events.acknowledge(event.event_id)
        events.start(event.event_id, now=clock.now, require_ack=True)
    print("All guests acknowledged; starting immediately.")

    # Execute: migrations away first, then the micro-reboot.
    fabric = Fabric()
    spare = make_kvm_host(M1_SPEC, name="spare")
    fabric.connect(machine, spare)
    report = HyperTP().transplant_host(
        machine, HypervisorKind.KVM, fabric=fabric, spare=spare,
        clock=clock,
    )
    for event in posted:
        events.complete(event.event_id)

    print(f"\nDone in {report.total_s:.1f} simulated seconds:")
    print(f"  migrated away : {[r.vm_name for r in report.migrated]}")
    print(f"  rode the kexec: {report.inplace_count} VMs "
          f"({report.inplace.downtime_s:.2f} s downtime)")
    print(f"  worst downtime: {report.worst_downtime_s:.2f} s "
          f"(latency-critical saw "
          f"{max((r.downtime_s for r in report.migrated), default=0) * 1000:.0f} ms)")
    print(f"  host now runs : {machine.hypervisor.kind.value}")


if __name__ == "__main__":
    main()
