"""KVM ioctl-style state structs.

Where Xen hands out one typed-record blob per domain, KVM exposes VM state
through many small per-vCPU and per-VM ioctls, each returning a fixed-shape
struct.  We model a KVM state bundle as a mapping from ioctl name to bytes:

* per-vCPU: ``KVM_GET_REGS``, ``KVM_GET_SREGS``, ``KVM_GET_MSRS``,
  ``KVM_GET_LAPIC``, ``KVM_GET_XSAVE``, ``KVM_GET_XCRS``, ``KVM_GET_FPU``
* per-VM: ``KVM_GET_IRQCHIP`` (24-pin IOAPIC), ``KVM_GET_PIT2``

Two structural differences from Xen that the UISR converters must bridge
(Table 2): KVM folds MTRRs and the APIC-base into the MSR list rather than
dedicated records, and its IOAPIC has 24 pins versus Xen's 48.

As with the Xen module, byte layouts are this library's own; the *shape* of
the interface is what reproduces the heterogeneity.
"""

from typing import Dict, List, Tuple

from repro.errors import StateFormatError
from repro.guest.devices import (
    IOAPICPin,
    IOAPICState,
    KVM_IOAPIC_PINS,
    LAPICState,
    MTRRState,
    PITState,
    PlatformState,
    XSAVEState,
)
from repro.guest.vcpu import SegmentDescriptor, VCPUState
from repro.io.frames import Packer, Unpacker

# MSR indices KVM uses to carry state that Xen keeps in dedicated records.
MSR_APIC_BASE = 0x0000001B
MSR_MTRR_DEF_TYPE = 0x000002FF
MSR_MTRR_FIX_BASE = 0x00000250
MSR_MTRR_PHYS_BASE0 = 0x00000200

_GP_ORDER = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    "rip", "rflags",
)
_SEG_ORDER = ("cs", "ds", "es", "fs", "gs", "ss", "tr", "ldtr")
_CR_ORDER = ("cr0", "cr2", "cr3", "cr4", "cr8", "efer")

KVMStateBundle = Dict[str, bytes]


# -- per-ioctl encoders ------------------------------------------------------

def encode_regs(vcpu: VCPUState) -> bytes:
    """KVM_GET_REGS: fixed-order GP register file."""
    packer = Packer()
    for name in _GP_ORDER:
        try:
            packer.u64(vcpu.gp[name])
        except KeyError:
            raise StateFormatError(f"vCPU {vcpu.index} missing GP reg {name}")
    return packer.bytes()


def decode_regs(blob: bytes) -> Dict[str, int]:
    unpacker = Unpacker(blob)
    gp = {name: unpacker.u64() for name in _GP_ORDER}
    unpacker.expect_end()
    return gp


def encode_sregs(vcpu: VCPUState) -> bytes:
    """KVM_GET_SREGS: segments + control registers, fixed order."""
    packer = Packer()
    for name in _SEG_ORDER:
        seg = vcpu.segments.get(name)
        if seg is None:
            raise StateFormatError(f"vCPU {vcpu.index} missing segment {name}")
        packer.u16(seg.selector).u64(seg.base).u32(seg.limit).u16(seg.attributes)
    for name in _CR_ORDER:
        packer.u64(vcpu.control.get(name, 0))
    return packer.bytes()


def decode_sregs(blob: bytes) -> Tuple[Dict[str, SegmentDescriptor], Dict[str, int]]:
    unpacker = Unpacker(blob)
    segments = {}
    for name in _SEG_ORDER:
        segments[name] = SegmentDescriptor(
            selector=unpacker.u16(),
            base=unpacker.u64(),
            limit=unpacker.u32(),
            attributes=unpacker.u16(),
        )
    control = {name: unpacker.u64() for name in _CR_ORDER}
    unpacker.expect_end()
    return segments, control


def encode_msrs(vcpu: VCPUState, lapic: LAPICState, mtrr: MTRRState) -> bytes:
    """KVM_GET_MSRS: architectural MSRs + APIC base + MTRRs folded in."""
    entries: List[Tuple[int, int]] = sorted(vcpu.msrs.items())
    entries.append((MSR_APIC_BASE, lapic.apic_base_msr))
    entries.append((MSR_MTRR_DEF_TYPE, mtrr.default_type))
    for i, value in enumerate(mtrr.fixed):
        entries.append((MSR_MTRR_FIX_BASE + i, value))
    for i, (base, mask) in enumerate(mtrr.variable):
        entries.append((MSR_MTRR_PHYS_BASE0 + 2 * i, base))
        entries.append((MSR_MTRR_PHYS_BASE0 + 2 * i + 1, mask))
    packer = Packer()
    packer.u32(len(entries))
    for index, value in entries:
        packer.u32(index).u64(value)
    return packer.bytes()


def decode_msrs(blob: bytes) -> Dict[int, int]:
    unpacker = Unpacker(blob)
    count = unpacker.u32()
    msrs = {}
    for _ in range(count):
        index = unpacker.u32()
        msrs[index] = unpacker.u64()
    unpacker.expect_end()
    return msrs


def split_msrs(msrs: Dict[int, int]) -> Tuple[Dict[int, int], int, MTRRState]:
    """Split a KVM MSR list into (architectural MSRs, apic_base, MTRR)."""
    arch = dict(msrs)
    apic_base = arch.pop(MSR_APIC_BASE, 0xFEE00900)
    default_type = arch.pop(MSR_MTRR_DEF_TYPE, 6)
    fixed = []
    i = 0
    while MSR_MTRR_FIX_BASE + i in arch:
        fixed.append(arch.pop(MSR_MTRR_FIX_BASE + i))
        i += 1
    variable = []
    i = 0
    while (MSR_MTRR_PHYS_BASE0 + 2 * i in arch
           and MSR_MTRR_PHYS_BASE0 + 2 * i + 1 in arch):
        base = arch.pop(MSR_MTRR_PHYS_BASE0 + 2 * i)
        mask = arch.pop(MSR_MTRR_PHYS_BASE0 + 2 * i + 1)
        variable.append((base, mask))
        i += 1
    mtrr = MTRRState(default_type=default_type, fixed=tuple(fixed),
                     variable=tuple(variable))
    return arch, apic_base, mtrr


def encode_lapic(lapic: LAPICState) -> bytes:
    """KVM_GET_LAPIC: the APIC register page (base MSR travels via MSRs)."""
    packer = Packer()
    packer.u32(lapic.apic_id)
    packer.u32(lapic.task_priority)
    packer.u32(lapic.spurious_vector)
    packer.u32(lapic.lvt_timer).u32(lapic.lvt_lint0).u32(lapic.lvt_lint1)
    packer.u32(lapic.timer_initial_count).u32(lapic.timer_divide)
    packer.u64_seq(lapic.isr)
    packer.u64_seq(lapic.irr)
    return packer.bytes()


def decode_lapic(blob: bytes, apic_base_msr: int) -> LAPICState:
    unpacker = Unpacker(blob)
    lapic = LAPICState(
        apic_id=unpacker.u32(),
        apic_base_msr=apic_base_msr,
        task_priority=unpacker.u32(),
        spurious_vector=unpacker.u32(),
        lvt_timer=unpacker.u32(),
        lvt_lint0=unpacker.u32(),
        lvt_lint1=unpacker.u32(),
        timer_initial_count=unpacker.u32(),
        timer_divide=unpacker.u32(),
        isr=unpacker.u64_seq(),
        irr=unpacker.u64_seq(),
    )
    unpacker.expect_end()
    return lapic


def encode_fpu(vcpu: VCPUState) -> bytes:
    """KVM_GET_FPU: legacy x87/SSE area."""
    return Packer().u64_seq(vcpu.fpu).bytes()


def decode_fpu(blob: bytes) -> Tuple[int, ...]:
    unpacker = Unpacker(blob)
    fpu = unpacker.u64_seq()
    unpacker.expect_end()
    return fpu


def encode_xsave(xsave: XSAVEState) -> bytes:
    """KVM_GET_XSAVE."""
    packer = Packer()
    packer.u64(xsave.xstate_bv).u64(xsave.xcomp_bv)
    packer.u64_seq(xsave.blocks)
    return packer.bytes()


def decode_xsave(blob: bytes) -> XSAVEState:
    unpacker = Unpacker(blob)
    xsave = XSAVEState(
        xstate_bv=unpacker.u64(),
        xcomp_bv=unpacker.u64(),
        blocks=unpacker.u64_seq(),
    )
    unpacker.expect_end()
    return xsave


def encode_xcrs(vcpu: VCPUState) -> bytes:
    """KVM_GET_XCRS: extended control registers (just XCR0 here)."""
    return Packer().u32(1).u32(0).u64(vcpu.xcr0).bytes()


def decode_xcrs(blob: bytes) -> int:
    unpacker = Unpacker(blob)
    count = unpacker.u32()
    if count != 1:
        raise StateFormatError(f"expected exactly 1 XCR, got {count}")
    index = unpacker.u32()
    if index != 0:
        raise StateFormatError(f"expected XCR0, got XCR{index}")
    value = unpacker.u64()
    unpacker.expect_end()
    return value


def encode_irqchip(ioapic: IOAPICState) -> bytes:
    """KVM_GET_IRQCHIP: the 24-pin IOAPIC redirection table."""
    if len(ioapic.pins) != KVM_IOAPIC_PINS:
        raise StateFormatError(
            f"KVM IOAPIC must have {KVM_IOAPIC_PINS} pins, "
            f"got {len(ioapic.pins)}"
        )
    packer = Packer()
    packer.u32(ioapic.ioapic_id)
    for pin in ioapic.pins:
        packer.u8(pin.vector)
        packer.u8(1 if pin.masked else 0)
        packer.u8(1 if pin.trigger_level else 0)
        packer.u8(pin.dest_apic)
    return packer.bytes()


def decode_irqchip(blob: bytes) -> IOAPICState:
    unpacker = Unpacker(blob)
    ioapic_id = unpacker.u32()
    pins = [
        IOAPICPin(
            vector=unpacker.u8(),
            masked=bool(unpacker.u8()),
            trigger_level=bool(unpacker.u8()),
            dest_apic=unpacker.u8(),
        )
        for _ in range(KVM_IOAPIC_PINS)
    ]
    unpacker.expect_end()
    return IOAPICState(pins=pins, ioapic_id=ioapic_id)


def encode_pit2(pit: PITState) -> bytes:
    """KVM_GET_PIT2."""
    packer = Packer()
    for count, mode in zip(pit.channel_counts, pit.channel_modes):
        packer.u32(count).u8(mode)
    packer.u8(1 if pit.speaker_enabled else 0)
    return packer.bytes()


def decode_pit2(blob: bytes) -> PITState:
    unpacker = Unpacker(blob)
    counts = []
    modes = []
    for _ in range(3):
        counts.append(unpacker.u32())
        modes.append(unpacker.u8())
    speaker = bool(unpacker.u8())
    unpacker.expect_end()
    return PITState(channel_counts=tuple(counts), channel_modes=tuple(modes),
                    speaker_enabled=speaker)


# -- whole-bundle API -----------------------------------------------------------

def encode_bundle(vcpus: List[VCPUState], platform: PlatformState) -> KVMStateBundle:
    """Serialize full platform state as a KVM ioctl bundle."""
    if len(platform.lapics) != len(vcpus) or len(platform.xsave) != len(vcpus):
        raise StateFormatError("platform per-vCPU state count mismatch")
    if len(platform.ioapic.pins) != KVM_IOAPIC_PINS:
        raise StateFormatError(
            "KVM bundle requires a 24-pin IOAPIC (apply the compat fixup first)"
        )
    bundle: KVMStateBundle = {}
    for vcpu, lapic, xsave in zip(vcpus, platform.lapics, platform.xsave):
        i = vcpu.index
        bundle[f"KVM_GET_REGS:{i}"] = encode_regs(vcpu)
        bundle[f"KVM_GET_SREGS:{i}"] = encode_sregs(vcpu)
        bundle[f"KVM_GET_MSRS:{i}"] = encode_msrs(vcpu, lapic, platform.mtrr)
        bundle[f"KVM_GET_LAPIC:{i}"] = encode_lapic(lapic)
        bundle[f"KVM_GET_FPU:{i}"] = encode_fpu(vcpu)
        bundle[f"KVM_GET_XSAVE:{i}"] = encode_xsave(xsave)
        bundle[f"KVM_GET_XCRS:{i}"] = encode_xcrs(vcpu)
    bundle["KVM_GET_IRQCHIP"] = encode_irqchip(platform.ioapic)
    bundle["KVM_GET_PIT2"] = encode_pit2(platform.pit)
    return bundle


def decode_bundle(bundle: KVMStateBundle) -> Tuple[List[VCPUState], PlatformState]:
    """Parse a KVM ioctl bundle back into vCPU + platform state."""
    indices = sorted(
        int(key.split(":")[1]) for key in bundle if key.startswith("KVM_GET_REGS:")
    )
    if indices != list(range(len(indices))) or not indices:
        raise StateFormatError(f"non-contiguous or empty vCPU set: {indices}")

    vcpus: List[VCPUState] = []
    lapics: List[LAPICState] = []
    xsaves: List[XSAVEState] = []
    mtrr = MTRRState()
    for i in indices:
        gp = decode_regs(bundle[f"KVM_GET_REGS:{i}"])
        segments, control = decode_sregs(bundle[f"KVM_GET_SREGS:{i}"])
        raw_msrs = decode_msrs(bundle[f"KVM_GET_MSRS:{i}"])
        arch_msrs, apic_base, mtrr = split_msrs(raw_msrs)
        lapic = decode_lapic(bundle[f"KVM_GET_LAPIC:{i}"], apic_base)
        fpu = decode_fpu(bundle[f"KVM_GET_FPU:{i}"])
        xsave = decode_xsave(bundle[f"KVM_GET_XSAVE:{i}"])
        xcr0 = decode_xcrs(bundle[f"KVM_GET_XCRS:{i}"])
        vcpus.append(VCPUState(
            index=i, gp=gp, segments=segments, control=control,
            msrs=arch_msrs, fpu=fpu, xcr0=xcr0, apic_id=lapic.apic_id,
        ))
        lapics.append(lapic)
        xsaves.append(xsave)

    platform = PlatformState(
        lapics=lapics,
        ioapic=decode_irqchip(bundle["KVM_GET_IRQCHIP"]),
        pit=decode_pit2(bundle["KVM_GET_PIT2"]),
        mtrr=mtrr,
        xsave=xsaves,
    )
    return vcpus, platform


def bundle_size(bundle: KVMStateBundle) -> int:
    """Total serialized size of a bundle in bytes (Fig. 14 accounting)."""
    return sum(len(blob) for blob in bundle.values())


def pack_bundle(bundle: KVMStateBundle) -> bytes:
    """Flatten a bundle to one blob (what a domain stores / a wire carries)."""
    packer = Packer()
    packer.u32(len(bundle))
    for key in sorted(bundle):
        encoded_key = key.encode()
        packer.u16(len(encoded_key)).raw(encoded_key)
        packer.u32(len(bundle[key])).raw(bundle[key])
    return packer.bytes()


def unpack_bundle(blob: bytes) -> KVMStateBundle:
    unpacker = Unpacker(blob)
    count = unpacker.u32()
    bundle: KVMStateBundle = {}
    for _ in range(count):
        key = unpacker.raw(unpacker.u16()).decode()
        bundle[key] = unpacker.raw(unpacker.u32())
    unpacker.expect_end()
    return bundle
