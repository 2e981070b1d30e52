"""Guest physical address space backed by host frames.

A :class:`GuestImage` maps guest frame numbers (GFNs) to host machine frames
(MFNs).  The mapping is deliberately *scattered* — first-fit allocation over a
fragmented host — because PRAM exists precisely to describe such scattered
layouts (Fig. 4).  Page contents are digests; ``content_digest()`` gives the
whole-image fingerprint used to verify the Guest-State-untouched invariant.
"""

import random
from typing import Dict, Iterator, List, Tuple

from repro.errors import HardwareError, VMLifecycleError
from repro.hw.memory import PAGE_2M, PhysicalMemory


class GuestImage:
    """The memory of one VM: an ordered GFN -> Frame mapping."""

    def __init__(self, memory: PhysicalMemory, size_bytes: int,
                 page_size: int = PAGE_2M, seed: int = 0):
        if size_bytes <= 0 or size_bytes % page_size:
            raise HardwareError(
                f"guest size {size_bytes} is not a positive multiple of "
                f"page size {page_size}"
            )
        self.memory = memory
        self.size_bytes = size_bytes
        self.page_size = page_size
        self.page_count = size_bytes // page_size
        self._gfn_to_frame: Dict[int, int] = {}
        rng = random.Random(seed ^ 0xA5A5A5A5)
        frames = memory.allocate_many(self.page_count, size=page_size)
        for gfn, frame in enumerate(frames):
            frame.digest = rng.getrandbits(63) | 1  # never zero: looks "used"
            self._gfn_to_frame[gfn] = frame.mfn
        self._released = False
        # Dirty logging (Xen log-dirty mode / KVM_GET_DIRTY_LOG): while
        # enabled, guest stores record the written GFNs for pre-copy.
        self._dirty_logging = False
        self._dirty_gfns: set = set()

    # -- mapping -----------------------------------------------------------

    def mfn_of(self, gfn: int) -> int:
        try:
            return self._gfn_to_frame[gfn]
        except KeyError:
            raise HardwareError(f"gfn {gfn} not mapped") from None

    def mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield (gfn, mfn) pairs in GFN order."""
        for gfn in range(self.page_count):
            yield gfn, self._gfn_to_frame[gfn]

    def mfns(self) -> List[int]:
        return [self._gfn_to_frame[g] for g in range(self.page_count)]

    # -- content -----------------------------------------------------------

    def write_page(self, gfn: int, digest: int) -> None:
        """Guest-side store: mutate one page's contents."""
        self.memory.write(self.mfn_of(gfn), digest)
        if self._dirty_logging:
            self._dirty_gfns.add(gfn)

    # -- dirty logging (live-migration support) ------------------------------

    @property
    def dirty_logging(self) -> bool:
        return self._dirty_logging

    def start_dirty_logging(self) -> None:
        """Begin tracking written GFNs (the pre-copy loop's first step)."""
        self._dirty_logging = True
        self._dirty_gfns.clear()

    def stop_dirty_logging(self) -> None:
        self._dirty_logging = False
        self._dirty_gfns.clear()

    def read_and_clear_dirty_log(self) -> List[int]:
        """Atomically fetch-and-reset the dirty set (one pre-copy round)."""
        if not self._dirty_logging:
            raise HardwareError("dirty logging is not enabled")
        dirty = sorted(self._dirty_gfns)
        self._dirty_gfns.clear()
        return dirty

    def read_page(self, gfn: int) -> int:
        return self.memory.read(self.mfn_of(gfn))

    def content_digest(self) -> int:
        """Order-sensitive digest over all pages (the Guest State invariant)."""
        return self.memory.digest_of(self.mfns())

    def dirty_some(self, fraction: float, rng: random.Random) -> List[int]:
        """Mutate a random ``fraction`` of pages; returns dirtied GFNs.

        Used by the migration model to emulate writable working sets during
        pre-copy rounds.
        """
        if not 0 <= fraction <= 1:
            raise HardwareError(f"dirty fraction must be in [0,1]: {fraction}")
        count = int(self.page_count * fraction)
        gfns = rng.sample(range(self.page_count), count) if count else []
        for gfn in gfns:
            self.write_page(gfn, rng.getrandbits(63) | 1)
        return gfns

    # -- lifecycle -----------------------------------------------------------

    def pin_all(self) -> None:
        """Pin every backing frame (PRAM registration before kexec)."""
        for mfn in self._gfn_to_frame.values():
            self.memory.pin(mfn)

    def release(self) -> None:
        """Free all backing frames (VM destruction)."""
        if self._released:
            raise VMLifecycleError("guest image already released")
        for mfn in self._gfn_to_frame.values():
            self.memory.unpin(mfn)
            self.memory.free(mfn)
        self._gfn_to_frame.clear()
        self._released = True

    def adopt_mapping(self, gfn_to_mfn: Dict[int, int]) -> None:
        """Replace the GFN->MFN table (used after PRAM-based restoration)."""
        if set(gfn_to_mfn) != set(range(self.page_count)):
            raise HardwareError("adopted mapping does not cover the guest")
        self._gfn_to_frame = dict(gfn_to_mfn)

    def __repr__(self) -> str:
        return (
            f"GuestImage({self.size_bytes >> 20} MiB, "
            f"{self.page_count}x{self.page_size >> 10}K pages)"
        )
