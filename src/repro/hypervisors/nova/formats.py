"""NOVA snapshot format.

NOVA externalizes a guest's state as a *snapshot*: a header followed by
tagged sections, one per capability-space object — ``utcb.<n>`` for each
vCPU's user thread control block (registers, segments, control registers,
MSRs, FPU, XCR0 in one fixed-order struct), ``lapic.<n>`` per vCPU, and
single ``ioapic`` / ``pit`` / ``mtrr`` / ``xsave.<n>`` sections.  Sections
are keyed by ASCII tags, unlike Xen's numeric typecodes and KVM's ioctl
names — a genuinely third wire shape for the converters to bridge.
"""

from typing import Dict, List, Tuple

from repro.errors import StateFormatError
from repro.guest.devices import (
    IOAPICPin,
    IOAPICState,
    LAPICState,
    MTRRState,
    PITState,
    PlatformState,
    XSAVEState,
)
from repro.guest.vcpu import SegmentDescriptor, VCPUState
from repro.io.frames import Packer, Unpacker

NOVA_MAGIC = 0x4E4F5641  # "NOVA"
NOVA_VERSION = 1
NOVA_IOAPIC_PINS = 32

_GP_ORDER = (
    "rip", "rflags", "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)  # NOVA leads with rip/rflags (exit-frame order), unlike KVM
_SEG_ORDER = ("es", "cs", "ss", "ds", "fs", "gs", "ldtr", "tr")
_CR_ORDER = ("cr0", "cr2", "cr3", "cr4", "cr8", "efer")


def _pack_sections(sections: List[Tuple[str, bytes]]) -> bytes:
    packer = Packer()
    packer.u32(NOVA_MAGIC).u32(NOVA_VERSION).u32(len(sections))
    for tag, payload in sections:
        encoded = tag.encode("ascii")
        packer.u8(len(encoded)).raw(encoded)
        packer.u32(len(payload)).raw(payload)
    return packer.bytes()


def _unpack_sections(blob: bytes) -> Dict[str, bytes]:
    unpacker = Unpacker(blob)
    magic = unpacker.u32()
    if magic != NOVA_MAGIC:
        raise StateFormatError(f"bad NOVA snapshot magic {magic:#x}")
    version = unpacker.u32()
    if version != NOVA_VERSION:
        raise StateFormatError(f"unsupported NOVA snapshot version {version}")
    sections: Dict[str, bytes] = {}
    for _ in range(unpacker.u32()):
        tag = unpacker.raw(unpacker.u8()).decode("ascii")
        if tag in sections:
            raise StateFormatError(f"duplicate snapshot section {tag!r}")
        sections[tag] = unpacker.raw(unpacker.u32())
    unpacker.expect_end()
    return sections


def _encode_utcb(vcpu: VCPUState) -> bytes:
    packer = Packer()
    for name in _GP_ORDER:
        packer.u64(vcpu.gp[name])
    for name in _SEG_ORDER:
        seg = vcpu.segments[name]
        packer.u16(seg.selector).u16(seg.attributes)
        packer.u32(seg.limit).u64(seg.base)
    for name in _CR_ORDER:
        packer.u64(vcpu.control.get(name, 0))
    packer.u64(vcpu.xcr0)
    packer.u32(len(vcpu.msrs))
    for msr in sorted(vcpu.msrs):
        packer.u32(msr).u64(vcpu.msrs[msr])
    packer.u64_seq(vcpu.fpu)
    return packer.bytes()


def _decode_utcb(index: int, payload: bytes) -> VCPUState:
    unpacker = Unpacker(payload)
    gp = {name: unpacker.u64() for name in _GP_ORDER}
    segments = {}
    for name in _SEG_ORDER:
        selector = unpacker.u16()
        attributes = unpacker.u16()
        limit = unpacker.u32()
        base = unpacker.u64()
        segments[name] = SegmentDescriptor(
            selector=selector, base=base, limit=limit, attributes=attributes,
        )
    control = {name: unpacker.u64() for name in _CR_ORDER}
    xcr0 = unpacker.u64()
    msrs = {}
    for _ in range(unpacker.u32()):
        msr = unpacker.u32()
        msrs[msr] = unpacker.u64()
    fpu = unpacker.u64_seq()
    unpacker.expect_end()
    return VCPUState(index=index, gp=gp, segments=segments, control=control,
                     msrs=msrs, fpu=fpu, xcr0=xcr0)


def _encode_lapic(lapic: LAPICState) -> bytes:
    packer = Packer()
    packer.u32(lapic.apic_id).u64(lapic.apic_base_msr)
    packer.u32(lapic.task_priority).u32(lapic.spurious_vector)
    packer.u32(lapic.lvt_timer).u32(lapic.lvt_lint0).u32(lapic.lvt_lint1)
    packer.u32(lapic.timer_initial_count).u32(lapic.timer_divide)
    packer.u64_seq(lapic.isr)
    packer.u64_seq(lapic.irr)
    return packer.bytes()


def _decode_lapic(payload: bytes) -> LAPICState:
    unpacker = Unpacker(payload)
    lapic = LAPICState(
        apic_id=unpacker.u32(),
        apic_base_msr=unpacker.u64(),
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


def encode_snapshot(vcpus: List[VCPUState], platform: PlatformState) -> bytes:
    """Serialize full platform state as a NOVA snapshot."""
    if len(platform.lapics) != len(vcpus) or len(platform.xsave) != len(vcpus):
        raise StateFormatError("platform per-vCPU state count mismatch")
    if len(platform.ioapic.pins) != NOVA_IOAPIC_PINS:
        raise StateFormatError(
            f"NOVA snapshot requires a {NOVA_IOAPIC_PINS}-pin IOAPIC "
            f"(apply the compat fixup first)"
        )
    sections: List[Tuple[str, bytes]] = []
    for vcpu in vcpus:
        sections.append((f"utcb.{vcpu.index}", _encode_utcb(vcpu)))
    for i, lapic in enumerate(platform.lapics):
        sections.append((f"lapic.{i}", _encode_lapic(lapic)))

    ioapic = Packer()
    ioapic.u32(platform.ioapic.ioapic_id)
    for pin in platform.ioapic.pins:
        ioapic.u8(pin.vector)
        flags = (1 if pin.masked else 0) | ((1 if pin.trigger_level else 0) << 1)
        ioapic.u8(flags)
        ioapic.u8(pin.dest_apic)
    sections.append(("ioapic", ioapic.bytes()))

    pit = Packer()
    for count in platform.pit.channel_counts:
        pit.u32(count)
    for mode in platform.pit.channel_modes:
        pit.u8(mode)
    pit.u8(1 if platform.pit.speaker_enabled else 0)
    sections.append(("pit", pit.bytes()))

    mtrr = Packer()
    mtrr.u32(platform.mtrr.default_type)
    mtrr.u64_seq(platform.mtrr.fixed)
    mtrr.u32(len(platform.mtrr.variable))
    for base, mask in platform.mtrr.variable:
        mtrr.u64(base).u64(mask)
    sections.append(("mtrr", mtrr.bytes()))

    for i, xsave in enumerate(platform.xsave):
        xs = Packer()
        xs.u64(xsave.xstate_bv).u64(xsave.xcomp_bv)
        xs.u64_seq(xsave.blocks)
        sections.append((f"xsave.{i}", xs.bytes()))

    return _pack_sections(sections)


def decode_snapshot(blob: bytes) -> Tuple[List[VCPUState], PlatformState]:
    """Parse a NOVA snapshot back into vCPU + platform state."""
    sections = _unpack_sections(blob)
    vcpu_indices = sorted(
        int(tag.split(".")[1]) for tag in sections if tag.startswith("utcb.")
    )
    if vcpu_indices != list(range(len(vcpu_indices))) or not vcpu_indices:
        raise StateFormatError(f"bad vCPU section set: {vcpu_indices}")

    vcpus = [_decode_utcb(i, sections[f"utcb.{i}"]) for i in vcpu_indices]
    lapics = [_decode_lapic(sections[f"lapic.{i}"]) for i in vcpu_indices]
    for vcpu, lapic in zip(vcpus, lapics):
        vcpu.apic_id = lapic.apic_id

    body = Unpacker(sections["ioapic"])
    ioapic_id = body.u32()
    pins = []
    for _ in range(NOVA_IOAPIC_PINS):
        vector = body.u8()
        flags = body.u8()
        dest = body.u8()
        pins.append(IOAPICPin(
            vector=vector, masked=bool(flags & 1),
            trigger_level=bool(flags & 2), dest_apic=dest,
        ))
    body.expect_end()

    body = Unpacker(sections["pit"])
    counts = tuple(body.u32() for _ in range(3))
    modes = tuple(body.u8() for _ in range(3))
    speaker = bool(body.u8())
    body.expect_end()

    body = Unpacker(sections["mtrr"])
    default_type = body.u32()
    fixed = body.u64_seq()
    variable = tuple((body.u64(), body.u64()) for _ in range(body.u32()))
    body.expect_end()

    xsave = []
    for i in vcpu_indices:
        body = Unpacker(sections[f"xsave.{i}"])
        xsave.append(XSAVEState(
            xstate_bv=body.u64(), xcomp_bv=body.u64(),
            blocks=body.u64_seq(),
        ))
        body.expect_end()

    platform = PlatformState(
        lapics=lapics,
        ioapic=IOAPICState(pins=pins, ioapic_id=ioapic_id),
        pit=PITState(channel_counts=counts, channel_modes=modes,
                     speaker_enabled=speaker),
        mtrr=MTRRState(default_type=default_type, fixed=fixed,
                       variable=variable),
        xsave=xsave,
    )
    return vcpus, platform
