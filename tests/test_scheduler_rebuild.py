"""Property tests: VM Management State is always rebuildable (Fig. 2).

The memory-separation design hinges on scheduler queues being *derived*
data: for any domain population, tearing the queues down and rebuilding
them from the VM_i states must reproduce an equivalent scheduling state —
under every hypervisor's declared vCPU placement.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisors import HYPERVISOR_CLASSES
from repro.hypervisors.base import RunQueues


class FakeDomain:
    """Just enough shape for scheduler rebuild()."""

    def __init__(self, domid, vcpus):
        self.domid = domid

        class _Config:
            def __init__(self, count):
                self.vcpus = count

        class _VM:
            def __init__(self, count):
                self.config = _Config(count)

        self.vm = _VM(vcpus)


populations = st.lists(
    st.integers(min_value=1, max_value=8),  # vCPUs per domain
    min_size=0, max_size=12,
)

scheduler_factories = st.sampled_from([
    partial(RunQueues, cls.scheduler_name, 8, cls.vcpu_placement)
    for cls in HYPERVISOR_CLASSES.values()
])


@given(populations, scheduler_factories)
@settings(max_examples=60)
def test_rebuild_preserves_queued_vcpus(vcpu_counts, factory):
    scheduler = factory()
    domains = [FakeDomain(i + 1, count)
               for i, count in enumerate(vcpu_counts)]
    for domain in domains:
        scheduler.add_domain(domain.domid, domain.vm.config.vcpus)
    before = scheduler.queued_vcpus()
    scheduler.rebuild(domains)
    assert scheduler.queued_vcpus() == before == sum(vcpu_counts)


@given(populations, scheduler_factories,
       st.integers(min_value=0, max_value=11))
@settings(max_examples=60)
def test_remove_then_rebuild_consistent(vcpu_counts, factory, victim_index):
    scheduler = factory()
    domains = [FakeDomain(i + 1, count)
               for i, count in enumerate(vcpu_counts)]
    for domain in domains:
        scheduler.add_domain(domain.domid, domain.vm.config.vcpus)
    if domains:
        victim = domains[victim_index % len(domains)]
        scheduler.remove_domain(victim.domid)
        domains.remove(victim)
    scheduler.rebuild(domains)
    assert scheduler.queued_vcpus() == sum(d.vm.config.vcpus
                                           for d in domains)
    report = scheduler.report()
    assert sorted(report["domains"]) == sorted(d.domid for d in domains)


@given(populations, scheduler_factories)
@settings(max_examples=40)
def test_rebuild_is_idempotent(vcpu_counts, factory):
    scheduler = factory()
    domains = [FakeDomain(i + 1, count)
               for i, count in enumerate(vcpu_counts)]
    for domain in domains:
        scheduler.add_domain(domain.domid, domain.vm.config.vcpus)
    scheduler.rebuild(domains)
    first = scheduler.report()
    scheduler.rebuild(domains)
    assert scheduler.report() == first
