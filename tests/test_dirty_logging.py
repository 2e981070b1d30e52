"""Tests for guest dirty-page logging and its use in pre-copy."""

import random

import pytest

from repro.errors import HardwareError
from repro.guest.image import GuestImage
from repro.hw.memory import PAGE_2M, PhysicalMemory

GIB = 1024 ** 3


class TestDirtyLog:
    def _image(self):
        memory = PhysicalMemory(GIB)
        return GuestImage(memory, 64 * PAGE_2M)

    def test_disabled_by_default(self):
        image = self._image()
        assert not image.dirty_logging
        image.write_page(3, 1)
        with pytest.raises(HardwareError):
            image.read_and_clear_dirty_log()

    def test_records_writes_while_enabled(self):
        image = self._image()
        image.start_dirty_logging()
        image.write_page(5, 1)
        image.write_page(2, 2)
        image.write_page(5, 3)  # rewrite: still one entry
        assert image.read_and_clear_dirty_log() == [2, 5]

    def test_read_clears(self):
        image = self._image()
        image.start_dirty_logging()
        image.write_page(1, 9)
        assert image.read_and_clear_dirty_log() == [1]
        assert image.read_and_clear_dirty_log() == []

    def test_start_resets_stale_entries(self):
        image = self._image()
        image.start_dirty_logging()
        image.write_page(1, 9)
        image.stop_dirty_logging()
        image.start_dirty_logging()
        assert image.read_and_clear_dirty_log() == []

    def test_writes_before_enable_not_recorded(self):
        image = self._image()
        image.write_page(7, 1)
        image.start_dirty_logging()
        assert image.read_and_clear_dirty_log() == []


class TestDirtyLogDrivesPreCopy:
    def test_resent_pages_equal_logged_writes(self, xen_host_factory,
                                              kvm_host_factory, fabric):
        from repro.core.migration import MigrationTP

        source = xen_host_factory(name="dl-src", memory_gib=1.0)
        destination = kvm_host_factory(name="dl-dst")
        fabric.connect(source, destination)
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(
            domain, dirty_rate_bytes_s=48 << 20,
            guest_writes_rng=random.Random(11),
        )
        assert report.guest_digest_preserved
        # Logging is off again after the migration completes.
        assert not domain.vm.image.dirty_logging

    def test_idle_guest_resends_nothing(self, xen_host_factory,
                                        kvm_host_factory, fabric):
        """With no guest writes, the dirty log stays empty and later rounds
        carry zero pages — only the plan's *time* reflects the nominal
        dirty rate."""
        from repro.core import wire
        from repro.core.migration import MigrationTP

        source = xen_host_factory(name="dl2-src", memory_gib=1.0)
        destination = kvm_host_factory(name="dl2-dst")
        fabric.connect(source, destination)
        domain = next(iter(source.hypervisor.domains.values()))
        migrator = MigrationTP(fabric, source, destination)
        stream = wire.MigrationStream()
        from repro.core.timings import plan_precopy

        rounds = plan_precopy(1 << 30, migrator._flow_rate(1), 1 << 20)
        residual = migrator._stream_precopy(domain.vm, rounds, stream, None)
        assert residual == []
        messages = list(stream.receive_all())
        page_batches = [m for m in messages if isinstance(m, wire.PageBatch)]
        total_pages = sum(len(b.pages) for b in page_batches)
        assert total_pages == domain.vm.image.page_count  # round 1 only
        domain.vm.image.stop_dirty_logging()
