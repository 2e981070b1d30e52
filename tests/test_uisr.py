"""Tests for the UISR format and codec."""

import pytest

from repro.errors import UISRError
from repro.guest.devices import make_default_platform
from repro.guest.vcpu import make_boot_vcpu
from repro.core.uisr import (
    UISRMemoryChunk,
    UISRMemoryMap,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
    decode_uisr,
    encode_uisr,
    uisr_size,
)
from repro.core.uisr.format import UISR_VERSION


def make_uisr(vcpus=2, by_reference=True, name="vm0", seed=0):
    if by_reference:
        memory_map = UISRMemoryMap(page_size=2 << 20, total_bytes=1 << 30,
                                   pram_file=name)
    else:
        memory_map = UISRMemoryMap(
            page_size=2 << 20, total_bytes=1 << 30,
            chunks=[UISRMemoryChunk(gfn=i, mfn=100 + i, order=9)
                    for i in range(4)],
        )
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=name,
        vcpu_count=vcpus,
        memory_bytes=1 << 30,
        source_hypervisor="xen",
        vcpus=[UISRVCpu(make_boot_vcpu(i, seed=seed)) for i in range(vcpus)],
        platform=UISRPlatform(make_default_platform(vcpus, seed=seed)),
        memory_map=memory_map,
    )


class TestFormat:
    def test_vcpu_count_must_match_records(self):
        state = make_uisr(vcpus=2)
        with pytest.raises(UISRError):
            UISRVMState(
                version=UISR_VERSION, vm_name="x", vcpu_count=3,
                memory_bytes=1 << 30, source_hypervisor="xen",
                vcpus=state.vcpus, platform=state.platform,
                memory_map=state.memory_map,
            )

    def test_unsupported_version_rejected(self):
        state = make_uisr()
        with pytest.raises(UISRError):
            UISRVMState(
                version=99, vm_name="x", vcpu_count=2,
                memory_bytes=1 << 30, source_hypervisor="xen",
                vcpus=state.vcpus, platform=state.platform,
                memory_map=state.memory_map,
            )

    def test_memory_map_needs_exactly_one_representation(self):
        with pytest.raises(UISRError):
            UISRMemoryMap(page_size=4096, total_bytes=1 << 20)
        with pytest.raises(UISRError):
            UISRMemoryMap(
                page_size=4096, total_bytes=1 << 20, pram_file="f",
                chunks=[UISRMemoryChunk(gfn=0, mfn=1, order=0)],
            )

    def test_negative_chunk_rejected(self):
        with pytest.raises(UISRError):
            UISRMemoryChunk(gfn=-1, mfn=0, order=0)


class TestCodec:
    def test_roundtrip_by_reference(self):
        state = make_uisr(by_reference=True)
        decoded = decode_uisr(encode_uisr(state))
        assert decoded.architectural_view() == state.architectural_view()
        assert decoded.memory_map.pram_file == state.memory_map.pram_file
        assert decoded.source_hypervisor == "xen"

    def test_roundtrip_by_value(self):
        state = make_uisr(by_reference=False)
        decoded = decode_uisr(encode_uisr(state))
        assert decoded.memory_map.chunks == state.memory_map.chunks

    def test_roundtrip_with_devices(self):
        from repro.core.uisr import UISRDeviceState

        state = make_uisr()
        state.devices.append(UISRDeviceState(
            name="net0", device_class="NetworkDriver",
            strategy="unplug-rescan", payload=b"net0",
        ))
        decoded = decode_uisr(encode_uisr(state))
        assert decoded.devices[0].name == "net0"
        assert decoded.devices[0].payload == b"net0"

    def test_corrupt_magic_rejected(self):
        blob = bytearray(encode_uisr(make_uisr()))
        blob[0] ^= 0xFF
        with pytest.raises(UISRError):
            decode_uisr(bytes(blob))

    def test_truncated_blob_rejected(self):
        blob = encode_uisr(make_uisr())
        from repro.errors import StateFormatError

        with pytest.raises((UISRError, StateFormatError)):
            decode_uisr(blob[: len(blob) // 2])

    def test_trailing_garbage_rejected(self):
        from repro.errors import StateFormatError

        blob = encode_uisr(make_uisr())
        with pytest.raises((UISRError, StateFormatError)):
            decode_uisr(blob + b"xx")

    def test_size_grows_with_vcpus(self):
        sizes = [uisr_size(make_uisr(vcpus=n)) for n in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)
        # Fig. 14: per-vCPU slope of a few KB.
        slope = (sizes[-1] - sizes[0]) / 7
        assert 1_000 < slope < 8_000

    def test_single_vcpu_size_order_of_magnitude(self):
        # Paper: ~5 KB for 1 vCPU.  Same order of magnitude expected.
        assert 2_000 < uisr_size(make_uisr(vcpus=1)) < 12_000

