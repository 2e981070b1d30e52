"""Unified Intermediate State Representation.

UISR is the hypervisor-neutral format through which VM_i State travels
during a transplant (§3.1).  Like XDR for network data, it exists so that a
hypervisor developer only has to read and write their own state format:
the one converter pair, :func:`repro.core.convert.to_uisr` /
:func:`~repro.core.convert.from_uisr`, translates it for every other
hypervisor.
"""

from repro.core.uisr.format import (
    UISRDeviceState,
    UISRMemoryMap,
    UISRMemoryChunk,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
)
from repro.core.uisr.codec import decode_uisr, encode_uisr, uisr_size

__all__ = [
    "UISRDeviceState",
    "UISRMemoryMap",
    "UISRMemoryChunk",
    "UISRPlatform",
    "UISRVCpu",
    "UISRVMState",
    "encode_uisr",
    "decode_uisr",
    "uisr_size",
]
