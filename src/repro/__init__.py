"""HyperTP reproduction — mitigating vulnerability windows with hypervisor
transplant (EuroSys 2021).

The public API re-exports the pieces a downstream user needs:

* build simulated hosts (:mod:`repro.hw`, :mod:`repro.hypervisors`) and VMs
  (:mod:`repro.guest`);
* transplant them with :class:`HyperTP` (InPlaceTP / MigrationTP);
* reason about vulnerabilities with :mod:`repro.vulndb`;
* orchestrate fleets with :mod:`repro.orchestrator` and clusters with
  :mod:`repro.cluster`;
* run fleet-scale emergency-response campaigns — and measure the fleet's
  vulnerability window — with :mod:`repro.fleet`;
* replay a whole disclosure feed and respond continuously with
  :mod:`repro.sentinel` (the paper's operational loop as a subsystem);
* replay the paper's workloads with :mod:`repro.workloads`.

Quickstart::

    from repro import (HyperTP, HypervisorKind, Machine, M1_SPEC,
                       VMConfig, XenHypervisor, SimClock)

    machine = Machine(M1_SPEC)
    xen = XenHypervisor()
    xen.boot(machine)
    xen.create_vm(VMConfig("vm0", vcpus=1))
    report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
    print(report.downtime_s)  # ~1.7 s on M1, as in the paper
"""

import importlib

__version__ = "1.0.0"

# Lazy re-exports (PEP 562).  Eager imports here would pull the whole
# simulation tree into every interpreter that touches any ``repro``
# submodule — ~200 ms that the ``repro.par`` worker boot path and the
# CLI pay on every process spawn.  Attributes resolve on first access.
_EXPORTS = {
    "ReproError": "repro.errors",
    "TransplantError": "repro.errors",
    "MigrationError": "repro.errors",
    "NoSafeHypervisorError": "repro.errors",
    "SimClock": "repro.sim",
    "Engine": "repro.sim",
    "Machine": "repro.hw",
    "MachineSpec": "repro.hw",
    "M1_SPEC": "repro.hw",
    "M2_SPEC": "repro.hw",
    "CLUSTER_NODE_SPEC": "repro.hw",
    "Fabric": "repro.hw",
    "VMConfig": "repro.guest",
    "VirtualMachine": "repro.guest",
    "VMState": "repro.guest",
    "Hypervisor": "repro.hypervisors",
    "HypervisorKind": "repro.hypervisors",
    "XenHypervisor": "repro.hypervisors",
    "KVMHypervisor": "repro.hypervisors",
    "make_hypervisor": "repro.hypervisors",
    "HyperTP": "repro.core.transplant",
    "TransplantReport": "repro.core.transplant",
    "InPlaceTP": "repro.core.inplace",
    "InPlaceReport": "repro.core.inplace",
    "MigrationTP": "repro.core.migration",
    "LiveMigration": "repro.core.migration",
    "MigrationReport": "repro.core.migration",
    "OptimizationConfig": "repro.core.optimizations",
    "CostModel": "repro.core.timings",
    "DEFAULT_COST_MODEL": "repro.core.timings",
    "load_default_database": "repro.vulndb",
    "TransplantAdvisor": "repro.vulndb",
    "TransplantAdvice": "repro.vulndb",
    "Severity": "repro.vulndb",
    "NovaCompute": "repro.orchestrator",
    "DatacenterAPI": "repro.orchestrator",
    "UpgradeCampaign": "repro.fleet",
    "FleetConfig": "repro.fleet",
    "FleetController": "repro.fleet",
    "FleetMetrics": "repro.fleet",
    "FailureInjector": "repro.fleet",
    "RetryPolicy": "repro.fleet",
    "Sentinel": "repro.sentinel",
    "SentinelConfig": "repro.sentinel",
    "SentinelReport": "repro.sentinel",
    "FeedSchedule": "repro.sentinel",
    "PolicyConfig": "repro.sentinel",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "ReproError",
    "TransplantError",
    "MigrationError",
    "NoSafeHypervisorError",
    "SimClock",
    "Engine",
    "Machine",
    "MachineSpec",
    "M1_SPEC",
    "M2_SPEC",
    "CLUSTER_NODE_SPEC",
    "Fabric",
    "VMConfig",
    "VirtualMachine",
    "VMState",
    "Hypervisor",
    "HypervisorKind",
    "XenHypervisor",
    "KVMHypervisor",
    "make_hypervisor",
    "HyperTP",
    "TransplantReport",
    "InPlaceTP",
    "InPlaceReport",
    "MigrationTP",
    "LiveMigration",
    "MigrationReport",
    "OptimizationConfig",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "load_default_database",
    "TransplantAdvisor",
    "TransplantAdvice",
    "Severity",
    "NovaCompute",
    "DatacenterAPI",
    "UpgradeCampaign",
    "FleetConfig",
    "FleetController",
    "FleetMetrics",
    "FailureInjector",
    "RetryPolicy",
    "Sentinel",
    "SentinelConfig",
    "SentinelReport",
    "FeedSchedule",
    "PolicyConfig",
    "__version__",
]
