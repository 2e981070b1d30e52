"""Volume attachments and the virtual block device.

A :class:`BlockDriver` is the emulated disk device inside the guest; its
VMM-side state is just the connection descriptor (store name + volume id +
queue state), so across a transplant it follows the §4.2.3 emulated-device
path: the descriptor is translated, the new hypervisor's VMM reconnects,
and I/O resumes against the same remote volume.  Data never moves.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.guest.drivers import EmulatedDriver
from repro.guest.vm import VirtualMachine
from repro.io.frames import Packer, Unpacker
from repro.storage.remote import RemoteBlockStore, StorageError, Volume


class BlockDriver(EmulatedDriver):
    """Virtio-blk-like driver whose backend is a remote volume."""

    def __init__(self, name: str, store: RemoteBlockStore, volume_id: str):
        super().__init__(name, vmm_state_bytes=2048)
        self.store = store
        self.volume_id = volume_id
        self.connected = True
        self.io_count = 0

    def descriptor(self) -> bytes:
        """The VMM-side state that travels through UISR."""
        packer = Packer()
        store = self.store.name.encode()
        volume = self.volume_id.encode()
        packer.u16(len(store)).raw(store)
        packer.u16(len(volume)).raw(volume)
        packer.u32(self.io_count)
        return packer.bytes()

    @staticmethod
    def parse_descriptor(blob: bytes):
        unpacker = Unpacker(blob)
        store = unpacker.raw(unpacker.u16()).decode()
        volume = unpacker.raw(unpacker.u16()).decode()
        io_count = unpacker.u32()
        unpacker.expect_end()
        return store, volume, io_count

    # -- I/O ---------------------------------------------------------------

    def _volume(self) -> Volume:
        if not self.connected:
            raise StorageError(f"driver {self.name}: backend not connected")
        return self.store.volume(self.volume_id)

    def read(self, lba: int) -> int:
        self.io_count += 1
        return self._volume().read_block(lba)

    def write(self, lba: int, digest: int) -> None:
        self.io_count += 1
        self._volume().write_block(lba, digest)

    # -- transplant cooperation ------------------------------------------------

    def disconnect(self) -> None:
        self.connected = False

    def reconnect(self) -> None:
        self.connected = True


@dataclass
class VolumeAttachment:
    """Bookkeeping for one VM <-> volume binding."""

    vm_name: str
    volume_id: str
    device_name: str


class StorageManager:
    """Datacenter-level attach/detach surface (what Nova's cinder-ish side
    would call)."""

    def __init__(self, store: RemoteBlockStore):
        self.store = store
        self._attachments: Dict[str, List[VolumeAttachment]] = {}

    def attach(self, vm: VirtualMachine, volume_id: str,
               device_name: Optional[str] = None) -> BlockDriver:
        """Lease the volume to the VM and plug a block device into it."""
        device_name = device_name or f"vd{chr(ord('a') + len(vm.devices))}"
        self.store.acquire_lease(volume_id, vm.name)
        driver = BlockDriver(device_name, self.store, volume_id)
        vm.attach_device(driver)
        self._attachments.setdefault(vm.name, []).append(VolumeAttachment(
            vm_name=vm.name, volume_id=volume_id, device_name=device_name,
        ))
        return driver

    def detach(self, vm: VirtualMachine, volume_id: str) -> None:
        attachments = self._attachments.get(vm.name, [])
        match = next((a for a in attachments if a.volume_id == volume_id),
                     None)
        if match is None:
            raise StorageError(
                f"{vm.name} has no attachment for volume {volume_id!r}"
            )
        attachments.remove(match)
        vm.devices = [d for d in vm.devices
                      if getattr(d, "volume_id", None) != volume_id]
        self.store.release_lease(volume_id, vm.name)

    def attachments_of(self, vm_name: str) -> List[VolumeAttachment]:
        return list(self._attachments.get(vm_name, []))

    def verify_attachments(self, vm: VirtualMachine) -> bool:
        """Post-transplant check: every attachment's lease and driver are
        consistent (same volume, still leased to this VM)."""
        for attachment in self.attachments_of(vm.name):
            volume = self.store.volume(attachment.volume_id)
            if volume.attached_to != vm.name:
                return False
            drivers = [d for d in vm.devices
                       if getattr(d, "volume_id", None) == attachment.volume_id]
            if len(drivers) != 1:
                return False
        return True
