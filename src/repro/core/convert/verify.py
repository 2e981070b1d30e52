"""Restore-side validation run by ``from_uisr``.

Before any state lands in the target hypervisor, the UISR document is
checked against the domain it is about to restore into: vCPU count and
guest-memory size must match the domain, and every device record must
carry a known transplant strategy and name a driver actually attached to
the target VM.  A mismatch means the document and the domain disagree
about what VM this is — restoring anyway would corrupt the guest, so the
restore fails loudly with :class:`UISRError` instead (§3.1: translation
is lossless *and* lands in the right place).
"""

from typing import List

from repro.errors import UISRError
from repro.hypervisors.base import Domain
from repro.devices.model import (
    STRATEGY_PASSTHROUGH,
    STRATEGY_TRANSLATE,
    STRATEGY_UNPLUG_RESCAN,
)
from repro.core.uisr.format import UISRDeviceState

KNOWN_DEVICE_STRATEGIES = frozenset({
    STRATEGY_PASSTHROUGH,
    STRATEGY_TRANSLATE,
    STRATEGY_UNPLUG_RESCAN,
})


def verify_restore_target(domain: Domain, *, vm_name: str, vcpu_count: int,
                          memory_bytes: int,
                          devices: List[UISRDeviceState]) -> None:
    """Check a UISR document's sizing and device records against ``domain``.

    The caller passes the document's fields explicitly, which keeps
    ``from_uisr``'s consumption of them visible to the
    ``uisr-field-coverage`` analysis rule at the call site.
    """
    if vcpu_count != domain.vm.config.vcpus:
        raise UISRError(
            f"UISR {vm_name}: vCPU count {vcpu_count} does not match "
            f"domain ({domain.vm.config.vcpus})"
        )
    if memory_bytes != domain.vm.image.size_bytes:
        raise UISRError(
            f"UISR {vm_name}: memory size {memory_bytes} does not match "
            f"domain image ({domain.vm.image.size_bytes} bytes)"
        )
    attached = {driver.name for driver in domain.vm.devices}
    for record in devices:
        if record.strategy not in KNOWN_DEVICE_STRATEGIES:
            raise UISRError(
                f"UISR {vm_name}: device {record.name!r} carries unknown "
                f"transplant strategy {record.strategy!r}"
            )
        if record.name not in attached:
            raise UISRError(
                f"UISR {vm_name}: device record {record.name!r} has no "
                f"attached driver on the restore target"
            )
