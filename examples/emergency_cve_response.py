#!/usr/bin/env python3
"""Emergency CVE response across a small datacenter (the Fig. 1b story).

A critical Xen vulnerability drops.  The advisor checks the operator's
hypervisor repertoire for a safe target, the Nova-style orchestrator rolls
the transplant across every affected host (evacuating downtime-intolerant
VMs first), and once the patch ships the fleet transplants back.
"""

from repro import (
    DatacenterAPI,
    HypervisorKind,
    M1_SPEC,
    NovaCompute,
    SimClock,
    TransplantAdvisor,
    VMConfig,
    load_default_database,
)
from repro.bench import make_host
from repro.hw.network import Fabric
from repro.vulndb.timeline import window_statistics

GIB = 1024 ** 3
TRIGGER = "CVE-2016-6258"  # real Xen PV flaw; patch took 7 days


def main():
    db = load_default_database()

    stats = window_statistics(db, "kvm")
    print("Why transplant?  Measured vulnerability windows (KVM sample):")
    print(f"  n={stats.count}, mean {stats.mean_days:.0f} days, "
          f"max {stats.max_days} days, {stats.over_60_fraction:.0%} over "
          f"60 days — attackers have plenty of time.\n")

    # The fleet: three Xen hosts; one carries a VM that cannot tolerate
    # InPlaceTP downtime, so a KVM spare stands by for evacuation.
    fabric = Fabric()
    nova = NovaCompute(fabric=fabric)
    for i in range(3):
        nova.register_host(make_host(M1_SPEC, HypervisorKind.XEN, vm_count=3,
                                     name=f"compute-{i}"))
    fragile_driver = nova.driver_for("compute-0")
    fragile_driver.connection.hypervisor.create_vm(VMConfig(
        "latency-critical", vcpus=1, memory_bytes=GIB,
        inplace_compatible=False,
    ))
    spare = make_host(M1_SPEC, HypervisorKind.KVM, name="spare-0")
    nova.register_host(spare)
    for i in range(3):
        fabric.connect(nova.driver_for(f"compute-{i}").machine, spare)

    advisor = TransplantAdvisor(db)
    api = DatacenterAPI(nova, advisor)

    print(f"{TRIGGER} disclosed: {db.get(TRIGGER).description}")
    clock = SimClock()
    report = api.respond_to_cve(TRIGGER, clock=clock,
                                evacuation_host="spare-0")

    target = report.advice.recommended_target
    print(f"Advisor verdict: transplant to {target!r} "
          f"(rejected: {report.advice.rejected or 'none'})")
    print(f"Hosts upgraded: {report.hosts_upgraded} "
          f"in {report.total_s:.1f} simulated seconds")
    for host, result in report.per_host.items():
        evacuated = [r.vm_name for r in result.migrated]
        print(f"  {host}: inplace VMs={result.inplace.vm_count}, "
              f"evacuated={evacuated or '-'}, "
              f"worst disruption {result.worst_downtime_s * 1000:.0f} ms"
              if result.worst_downtime_s < 1 else
              f"  {host}: inplace VMs={result.inplace.vm_count}, "
              f"evacuated={evacuated or '-'}, "
              f"worst disruption {result.worst_downtime_s:.2f} s")
    print(f"Worst VM disruption fleet-wide: "
          f"{report.worst_vm_disruption_s:.2f} s "
          f"(Azure's maintenance bound: 30 s)")

    # Seven days later the Xen patch ships — transplant the compute hosts
    # back (the spare keeps running KVM; it still hosts the evacuated VM).
    reverted = api.revert_after_patch(
        HypervisorKind.XEN, hosts=[f"compute-{i}" for i in range(3)],
        clock=SimClock(),
    )
    print(f"\nPatch shipped: {len(reverted)} hosts transplanted back to Xen.")
    for host in sorted(nova.database):
        print(f"  {host}: now {nova.database[host].hypervisor_type} "
              f"({nova.database[host].upgrades} upgrades)")

    # What would the exposure have been without HyperTP?
    print("\nExposure comparison for this flaw:")
    print("  traditional: 7 days to patch + operator rollout window")
    print(f"  with HyperTP: {report.total_s:.0f} simulated seconds of "
          f"reconfiguration, {report.worst_vm_disruption_s:.1f} s worst "
          f"VM disruption")


if __name__ == "__main__":
    main()
