"""Property-based tests (hypothesis) for the core data structures."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.devices import (
    IOAPICPin,
    IOAPICState,
    KVM_IOAPIC_PINS,
    XEN_IOAPIC_PINS,
    make_default_platform,
)
from repro.guest.vcpu import make_boot_vcpu
from repro.hw.memory import PAGE_2M, PAGE_4K, PhysicalMemory
from repro.hypervisors.kvm import formats as kvm_formats
from repro.hypervisors.xen import formats as xen_formats
from repro.core.convert.compat import ioapic_grow_to, ioapic_shrink_to
from repro.core.pram import PageEntry, PRAMFilesystem
from repro.core.uisr.codec import decode_uisr, encode_uisr
from repro.vulndb.cve import cvss_v2_base_score, severity_for_score

GIB = 1024 ** 3


# -- PRAM page entries -----------------------------------------------------

page_entries = st.builds(
    PageEntry,
    gfn=st.integers(min_value=0, max_value=(1 << 28) - 1),
    mfn=st.integers(min_value=0, max_value=(1 << 30) - 1),
    order=st.integers(min_value=0, max_value=(1 << 6) - 1),
)


@given(page_entries)
def test_page_entry_pack_roundtrip(entry):
    assert PageEntry.unpacked(entry.packed()) == entry


@given(page_entries)
def test_page_entry_packed_fits_in_8_bytes(entry):
    assert 0 <= entry.packed() < (1 << 64)


# -- PRAM filesystem over arbitrary layouts ---------------------------------

@st.composite
def vm_layouts(draw):
    """A small set of VMs with disjoint random frame layouts."""
    vm_count = draw(st.integers(min_value=1, max_value=4))
    layouts = {}
    next_mfn = 0
    for i in range(vm_count):
        pages = draw(st.integers(min_value=1, max_value=64))
        mapping = {}
        for gfn in range(pages):
            next_mfn += draw(st.integers(min_value=512, max_value=1024))
            mapping[gfn] = next_mfn
        layouts[f"vm{i}"] = mapping
    return layouts


@given(vm_layouts())
@settings(max_examples=40)
def test_pram_encode_decode_roundtrip(layouts):
    memory = PhysicalMemory(GIB)
    fs = PRAMFilesystem(memory)
    for name, mapping in layouts.items():
        fs.add_vm_file(name, mapping.items(), page_size=PAGE_2M)
    decoded = PRAMFilesystem.decode(fs.encode(), memory)
    for name, mapping in layouts.items():
        assert decoded.layout_of(name) == mapping


@given(vm_layouts())
@settings(max_examples=40)
def test_pram_entries_cover_every_frame_exactly_once(layouts):
    memory = PhysicalMemory(GIB)
    fs = PRAMFilesystem(memory)
    for name, mapping in layouts.items():
        fs.add_vm_file(name, mapping.items(), page_size=PAGE_2M)
    seen = []
    for pram_file in fs.files.values():
        for entry in pram_file.entries:
            assert entry.byte_size == PAGE_2M  # power-of-two chunk
            seen.append(entry.mfn)
    expected = [m for mapping in layouts.values() for m in mapping.values()]
    assert sorted(seen) == sorted(expected)


# -- physical-memory allocator invariants -------------------------------------

@given(st.lists(st.sampled_from(["alloc4k", "alloc2m", "free"]),
                min_size=1, max_size=60),
       st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_allocator_never_double_allocates(ops, rng):
    memory = PhysicalMemory(64 * (1 << 20))
    live = []
    for op in ops:
        if op == "free" and live:
            frame = live.pop(rng.randrange(len(live)))
            memory.free(frame.mfn)
        elif op in ("alloc4k", "alloc2m"):
            size = PAGE_4K if op == "alloc4k" else PAGE_2M
            try:
                live.append(memory.allocate(size))
            except Exception:
                continue
    # No two live frames overlap.
    spans = sorted((f.mfn, f.mfn + f.size // PAGE_4K) for f in live)
    for (_, end), (start, _) in zip(spans, spans[1:], strict=False):
        assert end <= start
    # Accounting is exact.
    assert memory.allocated_bytes == sum(f.size for f in live)


# -- state-format roundtrips over random vCPU populations -----------------------

@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=25)
def test_xen_context_roundtrip_any_vcpu_count(vcpus, seed):
    states = [make_boot_vcpu(i, seed=seed) for i in range(vcpus)]
    platform = make_default_platform(vcpus, seed=seed)
    decoded_vcpus, decoded_platform = xen_formats.decode_hvm_context(
        xen_formats.encode_hvm_context(states, platform)
    )
    assert ([v.architectural_view() for v in decoded_vcpus]
            == [v.architectural_view() for v in states])
    assert decoded_platform.architectural_view() == platform.architectural_view()


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=25)
def test_kvm_bundle_roundtrip_any_vcpu_count(vcpus, seed):
    states = [make_boot_vcpu(i, seed=seed) for i in range(vcpus)]
    platform = make_default_platform(vcpus, ioapic_pins=KVM_IOAPIC_PINS,
                                     seed=seed)
    bundle = kvm_formats.encode_bundle(states, platform)
    decoded_vcpus, decoded_platform = kvm_formats.decode_bundle(bundle)
    assert ([v.architectural_view() for v in decoded_vcpus]
            == [v.architectural_view() for v in states])
    assert decoded_platform.architectural_view() == platform.architectural_view()


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=25)
def test_uisr_codec_roundtrip_any_vcpu_count(vcpus, seed):
    from tests.test_uisr import make_uisr

    state = make_uisr(vcpus=vcpus, seed=seed)
    decoded = decode_uisr(encode_uisr(state))
    assert decoded.architectural_view() == state.architectural_view()


# -- IOAPIC fixups --------------------------------------------------------------

@st.composite
def ioapics(draw):
    pin_count = draw(st.sampled_from([KVM_IOAPIC_PINS, XEN_IOAPIC_PINS]))
    pins = []
    for index in range(pin_count):
        live = index < 16 and draw(st.booleans())
        pins.append(IOAPICPin(
            vector=draw(st.integers(min_value=0x20, max_value=0xFE)) if live else 0,
            masked=not live,
            trigger_level=draw(st.booleans()),
            dest_apic=draw(st.integers(min_value=0, max_value=3)),
        ))
    return IOAPICState(pins=pins)


@given(ioapics())
@settings(max_examples=40)
def test_ioapic_shrink_grow_preserves_low_pins(ioapic):
    if ioapic.pin_count == XEN_IOAPIC_PINS:
        transformed = ioapic_grow_to(
            ioapic_shrink_to(ioapic, KVM_IOAPIC_PINS), XEN_IOAPIC_PINS
        )
    else:
        transformed = ioapic_shrink_to(
            ioapic_grow_to(ioapic, XEN_IOAPIC_PINS), KVM_IOAPIC_PINS
        )
    low = min(KVM_IOAPIC_PINS, ioapic.pin_count)
    assert (transformed.redirection_view()[:low]
            == ioapic.redirection_view()[:low])


# -- CVSS ------------------------------------------------------------------------

_av = st.sampled_from(["L", "A", "N"])
_ac = st.sampled_from(["H", "M", "L"])
_au = st.sampled_from(["M", "S", "N"])
_impact = st.sampled_from(["N", "P", "C"])


@given(_av, _ac, _au, _impact, _impact, _impact)
def test_cvss_v2_score_in_range(av, ac, au, c, i, a):
    score = cvss_v2_base_score(f"AV:{av}/AC:{ac}/Au:{au}/C:{c}/I:{i}/A:{a}")
    assert 0.0 <= score <= 10.0
    severity_for_score(score)  # always maps to a band


@given(_av, _ac, _au)
def test_cvss_v2_zero_impact_scores_zero(av, ac, au):
    assert cvss_v2_base_score(f"AV:{av}/AC:{ac}/Au:{au}/C:N/I:N/A:N") == 0.0
