"""Binary codec for UISR documents.

UISR is a wire/RAM format: InPlaceTP stores encoded documents in reserved RAM
across the micro-reboot, MigrationTP streams them through the proxy pair.
The codec is self-describing enough to fail loudly on corruption, and its
output size is what Fig. 14 reports as "UISR formats" overhead.

Every encoded document travels as one ``repro.io`` frame (CRC32-checked,
END-terminated), so a bit flip anywhere in the blob raises before the body
is even parsed.  Body layout: magic, version, VM identity, then sections
for vCPUs, platform, memory map and devices.  Integers are little-endian
fixed width (XDR-like spirit, LE for consistency with the rest of the
library).
"""

from typing import List

from repro.errors import StateFormatError, UISRError
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
from repro.io.frames import FrameReader, FrameWriter, Packer, Unpacker
from repro.core.uisr.format import (
    UISRDeviceState,
    UISRMemoryChunk,
    UISRMemoryMap,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
)

UISR_MAGIC = 0x55495352  # "UISR"

#: frame type tag carrying one encoded UISR document body.
UISR_DOC_FRAME = 1


def _pack_str(packer: Packer, text: str) -> None:
    data = text.encode()
    packer.u16(len(data)).raw(data)


def _unpack_str(unpacker: Unpacker) -> str:
    return unpacker.raw(unpacker.u16()).decode()


def _pack_vcpu(packer: Packer, vcpu: VCPUState) -> None:
    packer.u32(vcpu.index).u32(vcpu.apic_id).u64(vcpu.xcr0)
    packer.u32(len(vcpu.gp))
    for name in sorted(vcpu.gp):
        _pack_str(packer, name)
        packer.u64(vcpu.gp[name])
    packer.u32(len(vcpu.segments))
    for name in sorted(vcpu.segments):
        seg = vcpu.segments[name]
        _pack_str(packer, name)
        packer.u16(seg.selector).u64(seg.base).u32(seg.limit).u16(seg.attributes)
    packer.u32(len(vcpu.control))
    for name in sorted(vcpu.control):
        _pack_str(packer, name)
        packer.u64(vcpu.control[name])
    packer.u32(len(vcpu.msrs))
    for msr in sorted(vcpu.msrs):
        packer.u32(msr).u64(vcpu.msrs[msr])
    packer.u64_seq(vcpu.fpu)


def _unpack_vcpu(unpacker: Unpacker) -> VCPUState:
    index = unpacker.u32()
    apic_id = unpacker.u32()
    xcr0 = unpacker.u64()
    gp = {}
    for _ in range(unpacker.u32()):
        name = _unpack_str(unpacker)
        gp[name] = unpacker.u64()
    segments = {}
    for _ in range(unpacker.u32()):
        name = _unpack_str(unpacker)
        segments[name] = SegmentDescriptor(
            selector=unpacker.u16(),
            base=unpacker.u64(),
            limit=unpacker.u32(),
            attributes=unpacker.u16(),
        )
    control = {}
    for _ in range(unpacker.u32()):
        name = _unpack_str(unpacker)
        control[name] = unpacker.u64()
    msrs = {}
    for _ in range(unpacker.u32()):
        msr = unpacker.u32()
        msrs[msr] = unpacker.u64()
    fpu = unpacker.u64_seq()
    return VCPUState(index=index, gp=gp, segments=segments, control=control,
                     msrs=msrs, fpu=fpu, xcr0=xcr0, apic_id=apic_id)


def _pack_lapic(packer: Packer, lapic: LAPICState) -> None:
    packer.u32(lapic.apic_id).u64(lapic.apic_base_msr)
    packer.u32(lapic.task_priority).u32(lapic.spurious_vector)
    packer.u32(lapic.lvt_timer).u32(lapic.lvt_lint0).u32(lapic.lvt_lint1)
    packer.u32(lapic.timer_initial_count).u32(lapic.timer_divide)
    packer.u64_seq(lapic.isr)
    packer.u64_seq(lapic.irr)


def _unpack_lapic(unpacker: Unpacker) -> LAPICState:
    return LAPICState(
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


def _pack_platform(packer: Packer, platform: PlatformState) -> None:
    packer.u32(len(platform.lapics))
    for lapic in platform.lapics:
        _pack_lapic(packer, lapic)
    packer.u32(platform.ioapic.ioapic_id)
    packer.u32(len(platform.ioapic.pins))
    for pin in platform.ioapic.pins:
        packer.u8(pin.vector)
        packer.u8(1 if pin.masked else 0)
        packer.u8(1 if pin.trigger_level else 0)
        packer.u8(pin.dest_apic)
    for count in platform.pit.channel_counts:
        packer.u32(count)
    for mode in platform.pit.channel_modes:
        packer.u8(mode)
    packer.u8(1 if platform.pit.speaker_enabled else 0)
    packer.u32(platform.mtrr.default_type)
    packer.u64_seq(platform.mtrr.fixed)
    packer.u32(len(platform.mtrr.variable))
    for base, mask in platform.mtrr.variable:
        packer.u64(base).u64(mask)
    packer.u32(len(platform.xsave))
    for xsave in platform.xsave:
        packer.u64(xsave.xstate_bv).u64(xsave.xcomp_bv)
        packer.u64_seq(xsave.blocks)


def _unpack_platform(unpacker: Unpacker) -> PlatformState:
    lapics = [_unpack_lapic(unpacker) for _ in range(unpacker.u32())]
    ioapic_id = unpacker.u32()
    pins = [
        IOAPICPin(
            vector=unpacker.u8(),
            masked=bool(unpacker.u8()),
            trigger_level=bool(unpacker.u8()),
            dest_apic=unpacker.u8(),
        )
        for _ in range(unpacker.u32())
    ]
    counts = tuple(unpacker.u32() for _ in range(3))
    modes = tuple(unpacker.u8() for _ in range(3))
    speaker = bool(unpacker.u8())
    default_type = unpacker.u32()
    fixed = unpacker.u64_seq()
    variable = tuple((unpacker.u64(), unpacker.u64())
                     for _ in range(unpacker.u32()))
    xsave = [
        XSAVEState(
            xstate_bv=unpacker.u64(),
            xcomp_bv=unpacker.u64(),
            blocks=unpacker.u64_seq(),
        )
        for _ in range(unpacker.u32())
    ]
    return PlatformState(
        lapics=lapics,
        ioapic=IOAPICState(pins=pins, ioapic_id=ioapic_id),
        pit=PITState(channel_counts=counts, channel_modes=modes,
                     speaker_enabled=speaker),
        mtrr=MTRRState(default_type=default_type, fixed=fixed,
                       variable=variable),
        xsave=xsave,
    )


def _pack_memory_map(packer: Packer, memory_map: UISRMemoryMap) -> None:
    packer.u32(memory_map.page_size)
    packer.u64(memory_map.total_bytes)
    if memory_map.by_reference:
        packer.u8(1)
        _pack_str(packer, memory_map.pram_file)
    else:
        packer.u8(0)
        packer.u32(len(memory_map.chunks))
        for chunk in memory_map.chunks:
            packer.u64(chunk.gfn).u64(chunk.mfn).u8(chunk.order)


def _unpack_memory_map(unpacker: Unpacker) -> UISRMemoryMap:
    page_size = unpacker.u32()
    total_bytes = unpacker.u64()
    if unpacker.u8():
        return UISRMemoryMap(page_size=page_size, total_bytes=total_bytes,
                             pram_file=_unpack_str(unpacker))
    chunks = [
        UISRMemoryChunk(gfn=unpacker.u64(), mfn=unpacker.u64(),
                        order=unpacker.u8())
        for _ in range(unpacker.u32())
    ]
    return UISRMemoryMap(page_size=page_size, total_bytes=total_bytes,
                         chunks=chunks)


def encode_uisr(state: UISRVMState) -> bytes:
    """Serialize a UISR document to one framed, CRC-checked stream."""
    packer = Packer()
    packer.u32(UISR_MAGIC).u32(state.version)
    _pack_str(packer, state.vm_name)
    packer.u32(state.vcpu_count)
    packer.u64(state.memory_bytes)
    _pack_str(packer, state.source_hypervisor)
    packer.u32(len(state.vcpus))
    for record in state.vcpus:
        _pack_vcpu(packer, record.vcpu)
    _pack_platform(packer, state.platform.platform)
    _pack_memory_map(packer, state.memory_map)
    packer.u32(len(state.devices))
    for device in state.devices:
        _pack_str(packer, device.name)
        _pack_str(packer, device.device_class)
        _pack_str(packer, device.strategy)
        packer.u32(len(device.payload)).raw(device.payload)
    writer = FrameWriter()
    writer.frame(UISR_DOC_FRAME, packer.bytes())
    return writer.finish()


def _unwrap_envelope(blob: bytes) -> bytes:
    """Strip and verify the frame envelope; returns the document body."""
    try:
        reader = FrameReader(blob)
        first = reader.read()
        if first is None:
            raise UISRError("empty UISR stream")
        frame_type, body = first
        if frame_type != UISR_DOC_FRAME:
            raise UISRError(f"unexpected UISR frame type {frame_type}")
        if reader.read() is not None:
            raise UISRError("multiple frames in UISR stream")
        reader.expect_end()
    except UISRError:
        raise
    except StateFormatError as exc:
        raise UISRError(f"corrupt UISR envelope: {exc}") from exc
    return body


def decode_uisr(blob: bytes) -> UISRVMState:
    """Parse a UISR document from its framed encoding."""
    body = _unwrap_envelope(blob)
    unpacker = Unpacker(body)
    magic = unpacker.u32()
    if magic != UISR_MAGIC:
        raise UISRError(f"bad UISR magic {magic:#x}")
    version = unpacker.u32()
    vm_name = _unpack_str(unpacker)
    vcpu_count = unpacker.u32()
    memory_bytes = unpacker.u64()
    source = _unpack_str(unpacker)
    vcpus = [UISRVCpu(_unpack_vcpu(unpacker)) for _ in range(unpacker.u32())]
    platform = UISRPlatform(_unpack_platform(unpacker))
    memory_map = _unpack_memory_map(unpacker)
    devices: List[UISRDeviceState] = []
    for _ in range(unpacker.u32()):
        name = _unpack_str(unpacker)
        device_class = _unpack_str(unpacker)
        strategy = _unpack_str(unpacker)
        payload = unpacker.raw(unpacker.u32())
        devices.append(UISRDeviceState(name=name, device_class=device_class,
                                       strategy=strategy, payload=payload))
    unpacker.expect_end()
    return UISRVMState(
        version=version,
        vm_name=vm_name,
        vcpu_count=vcpu_count,
        memory_bytes=memory_bytes,
        source_hypervisor=source,
        vcpus=vcpus,
        platform=platform,
        memory_map=memory_map,
        devices=devices,
    )


def uisr_size(state: UISRVMState) -> int:
    """Encoded size in bytes (the Fig. 14 'UISR formats' series)."""
    return len(encode_uisr(state))
