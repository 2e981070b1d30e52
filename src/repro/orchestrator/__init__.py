"""OpenStack-style orchestration layer (§4.5).

The paper argues HyperTP does not burden sysadmins because clouds drive
hypervisors through generic libraries (libvirt) and an orchestrator (Nova),
never vendor tools directly.  This package implements that integration:

* :mod:`libvirt` — a libvirt-like façade over every hypervisor (the G2 path).
* :mod:`compute_driver` — Nova's ComputeDriver interface extended with the
  one HyperTP operation, ``hypertp_host_upgrade`` (evacuate, save guest
  state, kexec, restore).
* :mod:`nova` — the compute manager with the new ``host_live_upgrade`` API
  and its database of host/hypervisor assignments.
* :mod:`scheduler_filters` — HyperTP-aware placement filters.
* :mod:`api` — the "one-click" datacenter-wide transplant entry point.
"""

from repro.orchestrator.libvirt import LibvirtConnection
from repro.orchestrator.compute_driver import ComputeDriver, LibvirtComputeDriver
from repro.orchestrator.nova import NovaCompute, HostRecord
from repro.orchestrator.scheduler_filters import (
    InPlaceCompatibilityFilter,
    TransplantConsolidationWeigher,
)
from repro.orchestrator.api import DatacenterAPI, FleetUpgradeReport
from repro.orchestrator.scheduled_events import (
    AZURE_MAINTENANCE_BOUND_S,
    EventType,
    MaintenanceEvent,
    ScheduledEventsService,
)

__all__ = [
    "LibvirtConnection",
    "ComputeDriver",
    "LibvirtComputeDriver",
    "NovaCompute",
    "HostRecord",
    "InPlaceCompatibilityFilter",
    "TransplantConsolidationWeigher",
    "DatacenterAPI",
    "FleetUpgradeReport",
    "AZURE_MAINTENANCE_BOUND_S",
    "EventType",
    "MaintenanceEvent",
    "ScheduledEventsService",
]
