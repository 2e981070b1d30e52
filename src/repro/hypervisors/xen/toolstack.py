"""libxenctrl/libxl-style toolstack surface.

The paper's prototype lives mostly in user space, reusing Xen's existing
save/load entry points (``xc_domain_hvm_getcontext`` / ``setcontext``) rather
than patching the hypervisor (§4.1, §4.2.1).  This module exposes those entry
points over our simulated Xen, so the HyperTP core interacts with Xen the
same way the real prototype does.
"""

from typing import List

from repro.errors import HypervisorError
from repro.hypervisors.base import Domain
from repro.hypervisors.xen import formats


class XenToolstack:
    """Control interface bound to one :class:`XenHypervisor` instance."""

    def __init__(self, hypervisor):
        self._hv = hypervisor

    # -- domain enumeration ---------------------------------------------------

    def list_domains(self) -> List[Domain]:
        """All guest domains (dom0 excluded; it is not a guest)."""
        return sorted(self._hv.domains.values(), key=lambda d: d.domid)

    def domain_by_name(self, name: str) -> Domain:
        for domain in self._hv.domains.values():
            if domain.vm.name == name:
                return domain
        raise HypervisorError(f"no Xen domain named {name!r}")

    # -- HVM context (platform state) -------------------------------------------

    def xc_domain_hvm_getcontext(self, domid: int) -> bytes:
        """Serialize the domain's platform state (Xen native format)."""
        domain = self._hv._domain(domid)
        return self._hv.save_platform_state(domain)

    def xc_domain_hvm_setcontext(self, domid: int, blob: bytes) -> None:
        """Load platform state from a Xen-native blob into the domain."""
        domain = self._hv._domain(domid)
        self._hv.load_platform_state(domain, blob)

    # -- lifecycle helpers used by HyperTP ----------------------------------------

    def pause(self, domid: int, now: float) -> None:
        self._hv.pause_domain(domid, now)

    def decode_context(self, blob: bytes):
        """Parse a Xen HVM context blob (for proxies and tests)."""
        return formats.decode_hvm_context(blob)
