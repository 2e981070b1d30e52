"""The remote block store.

Volumes are block arrays addressed by LBA, with per-block digests (the same
content-as-digest convention as guest RAM).  The store lives on the network
side of the fabric: I/O latency/throughput is a function of the link, not
of the host — which is why a transplant leaves disk contents untouched.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ReproError

BLOCK_SIZE = 4096


class StorageError(ReproError):
    """Raised for block-store failures (unknown volume, bad LBA, leases)."""


@dataclass
class Volume:
    """One virtual disk: size, sparse block map, exclusive-attach lease."""

    volume_id: str
    size_bytes: int
    blocks: Dict[int, int] = field(default_factory=dict)
    attached_to: Optional[str] = None  # VM name holding the lease

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % BLOCK_SIZE:
            raise StorageError(
                f"volume {self.volume_id}: size must be a positive multiple "
                f"of {BLOCK_SIZE}"
            )

    @property
    def block_count(self) -> int:
        return self.size_bytes // BLOCK_SIZE

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.block_count:
            raise StorageError(
                f"volume {self.volume_id}: LBA {lba} out of range "
                f"(0..{self.block_count - 1})"
            )

    def read_block(self, lba: int) -> int:
        self._check_lba(lba)
        return self.blocks.get(lba, 0)

    def write_block(self, lba: int, digest: int) -> None:
        self._check_lba(lba)
        self.blocks[lba] = digest

    def content_digest(self) -> int:
        acc = 0
        for lba in sorted(self.blocks):
            acc = (acc * 1000003 + (lba << 1) + self.blocks[lba]) \
                & 0xFFFFFFFFFFFFFFFF
        return acc


class RemoteBlockStore:
    """A network block store (Ceph/iSCSI-target-like), one per datacenter."""

    def __init__(self, name: str = "blockstore-0"):
        self.name = name
        self._volumes: Dict[str, Volume] = {}

    def create_volume(self, volume_id: str, size_bytes: int) -> Volume:
        if volume_id in self._volumes:
            raise StorageError(f"volume {volume_id!r} already exists")
        volume = Volume(volume_id=volume_id, size_bytes=size_bytes)
        self._volumes[volume_id] = volume
        return volume

    def volume(self, volume_id: str) -> Volume:
        try:
            return self._volumes[volume_id]
        except KeyError:
            raise StorageError(f"unknown volume {volume_id!r}") from None

    def delete_volume(self, volume_id: str) -> None:
        volume = self.volume(volume_id)
        if volume.attached_to is not None:
            raise StorageError(
                f"volume {volume_id!r} is attached to {volume.attached_to}"
            )
        del self._volumes[volume_id]

    # -- leases ---------------------------------------------------------------

    def acquire_lease(self, volume_id: str, vm_name: str) -> None:
        volume = self.volume(volume_id)
        if volume.attached_to is not None and volume.attached_to != vm_name:
            raise StorageError(
                f"volume {volume_id!r} is leased by {volume.attached_to}"
            )
        volume.attached_to = vm_name

    def release_lease(self, volume_id: str, vm_name: str) -> None:
        volume = self.volume(volume_id)
        if volume.attached_to != vm_name:
            raise StorageError(
                f"volume {volume_id!r} is not leased by {vm_name}"
            )
        volume.attached_to = None
