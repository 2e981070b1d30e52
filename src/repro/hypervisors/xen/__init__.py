"""Xen-like type-I hypervisor substrate.

Components mirror the real Xen stack the paper re-engineered:

* :mod:`formats` — HVM-context typed save records (the ``xc_domain_hvm_get/
  setcontext`` blob format).
* :mod:`events` — event channels and grant tables (PV plumbing).
* :mod:`toolstack` — libxenctrl/libxl-style control surface.
* :mod:`hypervisor` — the hypervisor itself (hypervisor kernel + dom0),
  declaring its p2m NPT policy and credit-scheduler placement, which the
  base class builds.

Xen's live-migration behaviour (sequential receive side) is modeled in
:mod:`repro.core.migration`, which both baselines share.
"""

from repro.hypervisors.xen.hypervisor import XenHypervisor
from repro.hypervisors.xen.toolstack import XenToolstack

__all__ = ["XenHypervisor", "XenToolstack"]
