"""Device transplant strategies.

Maps each guest driver class to the strategy the paper applies (§4.2.3) and
provides the pre-pause preparation and post-restore steps around a
transplant.  The strategy strings here are also what lands in each device's
:class:`~repro.core.uisr.format.UISRDeviceState` record.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import TransplantError
from repro.guest.drivers import (
    EmulatedDriver,
    GuestDriver,
    NetworkDriver,
    PassthroughDriver,
)
from repro.io.frames import Packer

STRATEGY_PASSTHROUGH = "passthrough-pause"
STRATEGY_TRANSLATE = "translate"
STRATEGY_UNPLUG_RESCAN = "unplug-rescan"

# Each hypervisor's native paravirtual network transport; the rescan after
# a transplant installs the target's flavor (xen-netfront -> virtio-net).
NATIVE_NET_FLAVOR = {
    "xen": "xen-netfront",
    "kvm": "virtio-net",
    "nova": "nova-net",
}


def transplant_strategy_for(driver: GuestDriver) -> Tuple[str, bytes]:
    """Return (strategy, UISR payload) for one driver.

    * Pass-through: state lives in Guest State; the payload is empty.
    * Network (emulated): unplug/rescan; payload records only identity.
    * Other emulated devices: the VMM-side emulation state is copied into
      the payload for translation on the target.
    """
    if isinstance(driver, PassthroughDriver):
        return STRATEGY_PASSTHROUGH, b""
    if isinstance(driver, NetworkDriver):
        return STRATEGY_UNPLUG_RESCAN, driver.name.encode()
    if isinstance(driver, EmulatedDriver):
        payload = Packer().u32(driver.vmm_state_bytes).raw(
            b"\x00" * min(driver.vmm_state_bytes, 4096)
        ).bytes()
        return STRATEGY_TRANSLATE, payload
    return STRATEGY_TRANSLATE, b""


@dataclass
class DeviceTransplantPlan:
    """Per-VM device actions and their guest-side time costs."""

    prepare_actions: List[str] = field(default_factory=list)
    restore_actions: List[str] = field(default_factory=list)
    prepare_seconds: float = 0.0
    restore_seconds: float = 0.0


def plan_device_transplant(drivers: List[GuestDriver]) -> DeviceTransplantPlan:
    """Notify guests and quiesce/unplug devices before the transplant.

    This runs while the VM is still live (part of the preparation work the
    paper performs before pausing guests), so its cost does not add to
    downtime — only the restore half does.
    """
    plan = DeviceTransplantPlan()
    for driver in drivers:
        driver.notify_maintenance()
        if isinstance(driver, PassthroughDriver):
            plan.prepare_seconds += driver.pause()
            plan.prepare_actions.append(f"pause {driver.name}")
            plan.restore_seconds += driver.resume_cost_s
            plan.restore_actions.append(f"resume {driver.name}")
        elif isinstance(driver, NetworkDriver):
            plan.prepare_seconds += driver.unplug()
            plan.prepare_actions.append(f"unplug {driver.name}")
            plan.restore_seconds += driver.rescan_cost_s
            plan.restore_actions.append(f"rescan {driver.name}")
        else:
            plan.prepare_seconds += driver.pause()
            plan.prepare_actions.append(f"pause {driver.name}")
            plan.restore_seconds += driver.resume_cost_s
            plan.restore_actions.append(f"resume {driver.name}")
    return plan


def restore_devices(drivers: List[GuestDriver],
                    target_kind: Optional[str] = None) -> float:
    """Resume/rescan all devices after the transplant; returns guest seconds.

    ``target_kind`` (a hypervisor kind value) switches rescanned network
    interfaces to the target's native paravirtual transport.
    """
    flavor = NATIVE_NET_FLAVOR.get(target_kind) if target_kind else None
    total = 0.0
    for driver in drivers:
        if isinstance(driver, NetworkDriver):
            total += driver.rescan(flavor=flavor)
            if not driver.tcp_connections_alive:
                raise TransplantError(
                    f"device {driver.name}: TCP connections dropped across "
                    f"unplug/rescan — transplant broke the invariant"
                )
        else:
            total += driver.resume()
    return total
