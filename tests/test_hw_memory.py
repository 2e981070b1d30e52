"""Tests for the physical-memory frame allocator."""

import pytest

from repro.errors import FrameAllocationError, HardwareError
from repro.hw.memory import PAGE_2M, PAGE_4K, PhysicalMemory

MIB = 1024 * 1024


def test_initial_accounting():
    memory = PhysicalMemory(16 * MIB)
    assert memory.total_bytes == 16 * MIB
    assert memory.free_bytes == 16 * MIB
    assert memory.allocated_bytes == 0


def test_bad_sizes_rejected():
    with pytest.raises(HardwareError):
        PhysicalMemory(0)
    with pytest.raises(HardwareError):
        PhysicalMemory(4097)


def test_allocate_4k():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    assert frame.size == PAGE_4K
    assert memory.allocated_bytes == PAGE_4K
    assert memory.is_allocated(frame.mfn)


def test_allocate_2m_is_aligned():
    memory = PhysicalMemory(16 * MIB)
    memory.allocate()  # misalign the free cursor
    frame = memory.allocate(size=PAGE_2M)
    assert frame.mfn % (PAGE_2M // PAGE_4K) == 0


def test_allocate_unsupported_size_rejected():
    memory = PhysicalMemory(16 * MIB)
    with pytest.raises(FrameAllocationError):
        memory.allocate(size=8192)


def test_exhaustion_raises():
    memory = PhysicalMemory(2 * PAGE_4K)
    memory.allocate()
    memory.allocate()
    with pytest.raises(FrameAllocationError):
        memory.allocate()


def test_allocate_many_rolls_back_on_failure():
    memory = PhysicalMemory(4 * PAGE_4K)
    with pytest.raises(FrameAllocationError):
        memory.allocate_many(5)
    assert memory.allocated_bytes == 0


def test_free_returns_space():
    memory = PhysicalMemory(2 * PAGE_4K)
    frame = memory.allocate()
    memory.allocate()
    memory.free(frame.mfn)
    replacement = memory.allocate()
    assert replacement.mfn == frame.mfn  # coalesced + first fit


def test_free_unknown_rejected():
    memory = PhysicalMemory(16 * MIB)
    with pytest.raises(FrameAllocationError):
        memory.free(999)


def test_double_free_rejected():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.free(frame.mfn)
    with pytest.raises(FrameAllocationError):
        memory.free(frame.mfn)


def test_pinned_frame_cannot_be_freed():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.pin(frame.mfn)
    with pytest.raises(FrameAllocationError):
        memory.free(frame.mfn)
    memory.unpin(frame.mfn)
    memory.free(frame.mfn)


def test_reset_except_pinned_preserves_pins():
    memory = PhysicalMemory(16 * MIB)
    doomed = memory.allocate()
    survivor = memory.allocate(digest=77)
    memory.pin(survivor.mfn)
    memory.reset_except_pinned()
    assert not memory.is_allocated(doomed.mfn)
    assert memory.is_allocated(survivor.mfn)
    assert memory.read(survivor.mfn) == 77


def test_reset_except_pinned_frees_everything_else():
    memory = PhysicalMemory(16 * MIB)
    for _ in range(10):
        memory.allocate()
    keep = memory.allocate()
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    assert memory.allocated_bytes == PAGE_4K


def test_allocator_does_not_reuse_pinned_after_reset():
    memory = PhysicalMemory(8 * PAGE_4K)
    keep = memory.allocate()
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    mfns = {memory.allocate().mfn for _ in range(7)}
    assert keep.mfn not in mfns


def test_write_read_digest():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.write(frame.mfn, 0xDEADBEEF)
    assert memory.read(frame.mfn) == 0xDEADBEEF


def test_digest_of_is_order_sensitive():
    memory = PhysicalMemory(16 * MIB)
    a = memory.allocate(digest=1)
    b = memory.allocate(digest=2)
    assert memory.digest_of([a.mfn, b.mfn]) != memory.digest_of([b.mfn, a.mfn])


def test_mixed_sizes_coexist():
    memory = PhysicalMemory(16 * MIB)
    small = memory.allocate()
    big = memory.allocate(size=PAGE_2M)
    assert memory.allocated_bytes == PAGE_4K + PAGE_2M
    memory.free(big.mfn)
    memory.free(small.mfn)
    assert memory.free_bytes == memory.total_bytes


def test_free_list_stays_sorted_and_coalesced():
    # Fragmentation regression: the allocator promises a sorted, fully
    # coalesced free list after any interleaving of allocs and frees —
    # the bisect insert with neighbor-only merge must uphold it.
    memory = PhysicalMemory(64 * MIB)
    frames = [memory.allocate() for _ in range(128)]
    for frame in frames[::3] + frames[1::3] + frames[2::3]:
        memory.free(frame.mfn)
        regions = memory._free
        assert all(regions[i].start + regions[i].count < regions[i + 1].start
                   for i in range(len(regions) - 1)), "unsorted or adjacent"
    assert len(memory._free) == 1
    assert memory._free[0].count == memory.total_base_frames


def test_interleaved_free_merges_both_neighbors():
    memory = PhysicalMemory(8 * PAGE_4K)
    a, b, c = (memory.allocate() for _ in range(3))
    memory.free(a.mfn)
    memory.free(c.mfn)
    assert len(memory._free) == 2  # [a] and [c..end]
    memory.free(b.mfn)  # bridges both neighbors into one region
    assert len(memory._free) == 1
    assert memory.free_bytes == memory.total_bytes


def test_allocated_bytes_counter_tracks_churn():
    memory = PhysicalMemory(64 * MIB)
    live = []
    for _ in range(4):
        live.extend(memory.allocate() for _ in range(16))
        live.append(memory.allocate(size=PAGE_2M))
        for frame in live[::2]:
            memory.free(frame.mfn)
        live = live[1::2]
        expected = sum(f.size for f in memory.allocated_frames())
        assert memory.allocated_bytes == expected


def test_allocated_bytes_after_reset_except_pinned():
    memory = PhysicalMemory(16 * MIB)
    for _ in range(8):
        memory.allocate()
    keep = memory.allocate(size=PAGE_2M)
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    assert memory.allocated_bytes == PAGE_2M
    assert memory.free_bytes == memory.total_bytes - PAGE_2M
