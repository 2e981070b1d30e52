"""Tests for the libvirt façade, Nova manager, filters and one-click API."""

import pytest

from repro.errors import OrchestratorError
from repro.guest.vm import VMConfig
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.vulndb.advisor import TransplantAdvisor
from repro.vulndb.data import load_default_database
from repro.orchestrator.api import DatacenterAPI
from repro.orchestrator.libvirt import LibvirtConnection
from repro.orchestrator.nova import NovaCompute
from repro.orchestrator.scheduler_filters import (
    InPlaceCompatibilityFilter,
    TransplantConsolidationWeigher,
)

GIB = 1024 ** 3


class TestLibvirt:
    def test_uri_reflects_hypervisor(self, xen_host, kvm_host_factory):
        assert LibvirtConnection(xen_host).uri == "xen:///system"
        assert LibvirtConnection(kvm_host_factory()).uri == "qemu:///system"

    def test_machine_without_hypervisor_rejected(self, m1):
        with pytest.raises(OrchestratorError):
            LibvirtConnection(m1)

    def test_domain_lifecycle_via_handle(self, xen_host):
        conn = LibvirtConnection(xen_host)
        handle = conn.lookup("guest0")
        assert handle.is_active()
        handle.suspend(1.0)
        assert not handle.is_active()
        handle.resume(2.0)
        assert handle.is_active()
        info = handle.info()
        assert info["vcpus"] == 1
        assert info["hypervisor"] == "xen:///system"

    def test_define_and_destroy(self, xen_host):
        conn = LibvirtConnection(xen_host)
        conn.define_and_start(VMConfig("new-vm", vcpus=1, memory_bytes=GIB))
        assert "new-vm" in conn.list_domains()
        conn.destroy("new-vm")
        assert "new-vm" not in conn.list_domains()

    def test_vm_defined_on_kvm_transplants_to_xen(self, kvm_host_factory):
        from repro.core.transplant import HyperTP

        machine = kvm_host_factory()
        LibvirtConnection(machine).define_and_start(
            VMConfig("new-vm", vcpus=2, memory_bytes=GIB))
        report = HyperTP().inplace(machine, HypervisorKind.XEN, SimClock())
        assert report.vm_count == 1
        assert report.guest_digests_preserved

    def test_lookup_missing_raises(self, xen_host):
        with pytest.raises(OrchestratorError):
            LibvirtConnection(xen_host).lookup("ghost")

    def test_uri_changes_after_transplant(self, xen_host):
        from repro.core.transplant import HyperTP

        conn = LibvirtConnection(xen_host)
        assert conn.uri == "xen:///system"
        HyperTP().inplace(xen_host, HypervisorKind.KVM, SimClock())
        # Same connection object: the admin's view survives the transplant.
        assert conn.uri == "qemu:///system"
        assert conn.lookup("guest0").is_active()


class TestNova:
    def test_register_and_database(self, xen_host_factory):
        nova = NovaCompute()
        machine = xen_host_factory(name="h1")
        nova.register_host(machine)
        assert nova.database["h1"].hypervisor_type == "xen"
        assert nova.hosts_running(HypervisorKind.XEN) == ["h1"]

    def test_double_registration_rejected(self, xen_host_factory):
        nova = NovaCompute()
        machine = xen_host_factory(name="h1")
        nova.register_host(machine)
        with pytest.raises(OrchestratorError):
            nova.register_host(machine)

    def test_host_live_upgrade_updates_database(self, xen_host_factory):
        nova = NovaCompute()
        nova.register_host(xen_host_factory(name="h1", vm_count=2))
        result = nova.host_live_upgrade("h1", HypervisorKind.KVM, SimClock())
        assert nova.database["h1"].hypervisor_type == "kvm"
        assert nova.database["h1"].upgrades == 1
        assert result.inplace is not None
        assert result.inplace.vm_count == 2

    def test_upgrade_to_same_kind_rejected(self, xen_host_factory):
        nova = NovaCompute()
        nova.register_host(xen_host_factory(name="h1"))
        with pytest.raises(OrchestratorError):
            nova.host_live_upgrade("h1", HypervisorKind.XEN, SimClock())

    def test_incompatible_vms_evacuated_first(self, xen_host_factory,
                                              kvm_host_factory, fabric):
        nova = NovaCompute(fabric=fabric)
        source = xen_host_factory(name="h1", vm_count=1)
        source.hypervisor.create_vm(VMConfig(
            "fragile", vcpus=1, memory_bytes=GIB, inplace_compatible=False,
        ))
        spare = kvm_host_factory(name="spare")
        fabric.connect(source, spare)
        nova.register_host(source)
        nova.register_host(spare)
        result = nova.host_live_upgrade(
            "h1", HypervisorKind.KVM, SimClock(), evacuation_host="spare",
        )
        assert len(result.migrated) == 1
        assert result.migrated[0].vm_name == "fragile"
        assert result.inplace.vm_count == 1

    def test_evacuation_needs_matching_spare(self, xen_host_factory, fabric):
        nova = NovaCompute(fabric=fabric)
        source = xen_host_factory(name="h1", vm_count=0)
        source.hypervisor.create_vm(VMConfig(
            "fragile", vcpus=1, memory_bytes=GIB, inplace_compatible=False,
        ))
        wrong = xen_host_factory(name="wrong", vm_count=0)
        fabric.connect(source, wrong)
        nova.register_host(source)
        nova.register_host(wrong)
        with pytest.raises(OrchestratorError):
            nova.host_live_upgrade("h1", HypervisorKind.KVM, SimClock(),
                                   evacuation_host="wrong")

    @pytest.mark.parametrize("evacuation_host,with_fabric,error", [
        (None, True, "no evacuation host"),
        ("spare", False, "no fabric"),
    ], ids=["no-evacuation-host", "no-fabric"])
    def test_evacuation_needs_a_host_and_a_fabric(
            self, xen_host_factory, kvm_host_factory, fabric,
            evacuation_host, with_fabric, error):
        nova = NovaCompute(fabric=fabric if with_fabric else None)
        source = xen_host_factory(name="h1", vm_count=1)
        source.hypervisor.create_vm(VMConfig(
            "fragile", vcpus=1, memory_bytes=GIB, inplace_compatible=False,
        ))
        nova.register_host(source)
        nova.register_host(kvm_host_factory(name="spare"))
        with pytest.raises(OrchestratorError, match=error):
            nova.host_live_upgrade("h1", HypervisorKind.KVM, SimClock(),
                                   evacuation_host=evacuation_host)
        # Rejected before any work: the host and its VMs are untouched.
        assert source.hypervisor.kind is HypervisorKind.XEN
        assert len(source.hypervisor.domains) == 2
        assert nova.database["h1"].upgrades == 0


class TestSchedulerFilters:
    def _nova_with_hosts(self, xen_host_factory):
        nova = NovaCompute()
        compat = xen_host_factory(name="compat-host", vm_count=2,
                                  inplace_compatible=True)
        fragile = xen_host_factory(name="fragile-host", vm_count=2,
                                   inplace_compatible=False)
        empty = xen_host_factory(name="empty-host", vm_count=0)
        for machine in (compat, fragile, empty):
            nova.register_host(machine)
        return nova

    def test_filter_separates_classes(self, xen_host_factory):
        nova = self._nova_with_hosts(xen_host_factory)
        flt = InPlaceCompatibilityFilter(nova)
        candidates = ["compat-host", "fragile-host", "empty-host"]
        compat_vm = VMConfig("x", inplace_compatible=True)
        fragile_vm = VMConfig("y", inplace_compatible=False)
        assert flt.hosts_passing(compat_vm, candidates) == [
            "compat-host", "empty-host",
        ]
        assert flt.hosts_passing(fragile_vm, candidates) == [
            "fragile-host", "empty-host",
        ]

    def test_weigher_prefers_consolidation(self, xen_host_factory):
        nova = self._nova_with_hosts(xen_host_factory)
        weigher = TransplantConsolidationWeigher(nova)
        compat_vm = VMConfig("x", inplace_compatible=True)
        assert weigher.best_host(
            compat_vm, ["compat-host", "empty-host"]
        ) == "compat-host"


class TestDatacenterAPI:
    def _api(self, xen_host_factory, hosts=2, vms=2):
        nova = NovaCompute()
        for i in range(hosts):
            nova.register_host(
                xen_host_factory(name=f"compute-{i}", vm_count=vms)
            )
        advisor = TransplantAdvisor(load_default_database())
        return DatacenterAPI(nova, advisor), nova

    def test_cve_response_upgrades_affected_hosts(self, xen_host_factory):
        api, nova = self._api(xen_host_factory)
        report = api.respond_to_cve("CVE-2016-6258")
        assert report.hosts_upgraded == 2
        assert report.advice.recommended_target == "kvm"
        for record in nova.database.values():
            assert record.hypervisor_type == "kvm"

    def test_unaffected_fleet_untouched(self, kvm_host_factory):
        nova = NovaCompute()
        nova.register_host(kvm_host_factory(name="k-host", vm_count=1))
        api = DatacenterAPI(nova, TransplantAdvisor(load_default_database()))
        report = api.respond_to_cve("CVE-2016-6258")  # Xen-only flaw
        assert report.hosts_upgraded == 0
        assert nova.database["k-host"].hypervisor_type == "kvm"

    def test_disruption_stays_under_azure_bound(self, xen_host_factory):
        # §3: 30 s (Azure's maintenance bound) is the acceptability bar.
        api, _ = self._api(xen_host_factory)
        report = api.respond_to_cve("CVE-2016-6258")
        assert report.worst_vm_disruption_s < 30.0

    def test_revert_after_patch(self, xen_host_factory):
        api, nova = self._api(xen_host_factory, hosts=1)
        api.respond_to_cve("CVE-2016-6258")
        assert nova.database["compute-0"].hypervisor_type == "kvm"
        results = api.revert_after_patch(HypervisorKind.XEN)
        assert set(results) == {"compute-0"}
        assert nova.database["compute-0"].hypervisor_type == "xen"
        assert nova.database["compute-0"].upgrades == 2

    def test_guests_survive_full_round_trip(self, xen_host_factory):
        api, nova = self._api(xen_host_factory, hosts=1, vms=3)
        driver = nova.driver_for("compute-0")
        digests_before = {
            d.vm.name: d.vm.image.content_digest()
            for d in driver.connection.hypervisor.domains.values()
        }
        api.respond_to_cve("CVE-2016-6258")
        api.revert_after_patch(HypervisorKind.XEN)
        digests_after = {
            d.vm.name: d.vm.image.content_digest()
            for d in driver.connection.hypervisor.domains.values()
        }
        assert digests_after == digests_before
