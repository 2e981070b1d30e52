"""MigrationTP and the homogeneous live-migration baseline (§3.3, §4.3).

Both run one pre-copy workflow, ``_MigrationBase.migrate``: iterative
memory-copy rounds while the VM runs, then a stop-and-copy of the residual
dirty set.  The two differences MigrationTP introduces are:

* **proxies** on each side translate the VM_i State through UISR on the wire
  (guest pages are never translated — they are hypervisor-independent);
* the destination runs a *different* hypervisor; with kvmtool on the KVM
  side, destination activation is ~27x cheaper than Xen's toolstack path,
  which is why MigrationTP's downtime undercuts Xen->Xen (Table 4).

The Xen baseline also models Xen's *sequential receive side* (the paper's
explanation for the downtime variance when migrating many VMs at once,
Fig. 8/9): concurrent incoming migrations queue for the final activation.
Each subclass supplies only these differences: how VM_i State is captured,
decoded and restored, and (``LiveMigration``) the receive-queue wait.
Every duration a run charges comes from the migrator's own
:meth:`_MigrationBase.stage_plan` (:mod:`repro.core.pipeline`); the run
plans the pre-copy rounds again only for the pages the wire ships.
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import MigrationError
from repro.guest.drivers import PassthroughDriver
from repro.guest.image import GuestImage
from repro.guest.vm import VirtualMachine
from repro.hw.machine import Machine
from repro.hw.network import Fabric
from repro.hypervisors.base import Domain, Hypervisor
from repro.sim.clock import SimClock
from repro.core import wire
from repro.core.convert import from_uisr, to_uisr
from repro.core.pipeline import MigrationPipeline, Stage, StagePlan
from repro.core.timings import PreCopyRound, plan_precopy
from repro.core.uisr.codec import decode_uisr, encode_uisr
from repro.core.uisr.format import UISRVMState


@dataclass
class MigrationReport:
    """Outcome of migrating one VM."""

    vm_name: str
    source: str
    destination: str
    heterogeneous: bool
    rounds: List[PreCopyRound] = field(default_factory=list)
    precopy_s: float = 0.0
    downtime_s: float = 0.0
    total_s: float = 0.0
    bytes_transferred: int = 0
    #: wire-protocol accounting (metadata stream; page payloads are modeled)
    wire_messages: int = 0
    wire_bytes: int = 0
    pages_resent: int = 0
    #: page-record dedup on the wire (repro.io stream-scoped digest table)
    wire_unique_pages: int = 0
    wire_dedup_hits: int = 0
    wire_dedup_ratio: float = 1.0
    guest_digest_preserved: bool = False

    @property
    def round_count(self) -> int:
        return len(self.rounds)


class _MigrationBase:
    """The pre-copy workflow both migrators run.

    A subclass sets ``heterogeneous`` (the report flag, and whether its
    plan charges the UISR proxy pair) and ``label`` (its name in the
    guest-corruption error), and supplies what truly differs: how VM_i
    State leaves the source (``_capture_state``), how it is decoded at the
    destination (``_decode_state``, inside the abort-and-resume ``try``)
    and restored into the adopted domain (``_restore_state``).
    """

    heterogeneous: bool
    label: str

    def __init__(self, fabric: Fabric, source: Machine, destination: Machine):
        if source is destination:
            raise MigrationError("source and destination must differ")
        if source.hypervisor is None or destination.hypervisor is None:
            raise MigrationError("both machines need a booted hypervisor")
        self.fabric = fabric
        self.source = source
        self.destination = destination
        self.link = fabric.link_between(source, destination)

    def stage_plan(self, domain: Domain,
                   dirty_rate_bytes_s: float = 1 << 20,
                   concurrent: int = 1) -> StagePlan:
        """The staged cost breakdown for migrating ``domain``.

        Predicts :meth:`migrate` without executing it, and is what the run
        charges: the quiesce/capture/translate/transfer/restore stages at
        this flow's share of the link, with the UISR proxy pair in the
        translate stage for MigrationTP (``charge_proxy`` — the
        Fig. 13-calibrated planners leave it off).
        """
        pipeline = MigrationPipeline(
            self._flow_rate(concurrent), self.destination.hypervisor.kind,
            charge_proxy=self.heterogeneous,
        )
        vm = domain.vm
        return pipeline.plan_vm(vm.image.size_bytes, dirty_rate_bytes_s,
                                vm.config.vcpus)

    def migrate(self, domain: Domain, clock: Optional[SimClock] = None,
                dirty_rate_bytes_s: float = 1 << 20,
                concurrent: int = 1,
                receive_queue_position: int = 0,
                guest_writes_rng: Optional[random.Random] = None
                ) -> MigrationReport:
        """Migrate one domain while ``concurrent`` flows share the link.

        ``receive_queue_position`` is the domain's place in Xen's
        serialized receive side (0 = first in the queue); only
        :class:`LiveMigration` charges it.  Pass ``guest_writes_rng`` to
        actually mutate guest pages during pre-copy (the dirtied pages are
        re-sent and the destination must still match the source's state
        at pause time).
        """
        clock = clock or SimClock()
        src_hv: Hypervisor = self.source.hypervisor
        dst_hv: Hypervisor = self.destination.hypervisor
        vm = domain.vm
        self._check_migratable(vm)
        start = clock.now

        report = MigrationReport(
            vm_name=vm.name,
            source=f"{self.source.name}/{src_hv.kind.value}",
            destination=f"{self.destination.name}/{dst_hv.kind.value}",
            heterogeneous=self.heterogeneous,
        )

        plan = self.stage_plan(domain, dirty_rate_bytes_s, concurrent)
        rounds = plan_precopy(vm.image.size_bytes, self._flow_rate(concurrent),
                              dirty_rate_bytes_s)
        report.rounds = rounds
        report.precopy_s = (plan.stage_s(Stage.QUIESCE)
                            + plan.stage_s(Stage.CAPTURE))
        report.bytes_transferred = sum(r.bytes_sent for r in rounds)

        # The pre-copy rounds travel the wire protocol; guest pages are
        # hypervisor-independent and never translated (§3.3).
        stream = wire.MigrationStream()
        residual_gfns = self._stream_precopy(vm, rounds, stream,
                                             guest_writes_rng)
        clock.advance(report.precopy_s)

        # Stop-and-copy: pause, ship the residual dirty set and VM_i State,
        # activate at the destination.
        pause_time = clock.now
        vm.pause(pause_time)
        residual = rounds[-1].dirty_after_bytes
        report.downtime_s = plan.downtime_s + self._receive_queue_s(
            receive_queue_position, plan.stage_s(Stage.RESTORE))
        report.bytes_transferred += residual
        clock.advance(report.downtime_s)

        self._stream_stopcopy(vm, residual_gfns,
                              self._capture_state(src_hv, domain), stream)
        final_digest = vm.image.content_digest()
        report.wire_messages = stream.messages_sent
        report.wire_bytes = stream.bytes_sent
        stats = stream.page_stats
        report.wire_unique_pages = stats.unique_digests
        report.wire_dedup_hits = stats.dedup_hits
        report.wire_dedup_ratio = stats.ratio
        report.pages_resent = sum(
            min(vm.image.page_count, r.dirty_after_bytes // vm.image.page_size)
            for r in rounds[:-1]
        ) + len(residual_gfns)

        # Destination proxy: rebuild the image from the stream and decode
        # the state that arrived on the wire.  A destination-side failure
        # (e.g. out of memory) aborts the migration; the source still owns
        # the VM and simply resumes it.
        try:
            dst_image = self._receive_guest(vm, stream)
            arrived_state = self._decode_state(self._received_state_blob)
        except Exception as exc:
            vm.resume(clock.now)
            raise MigrationError(
                f"VM {vm.name}: destination failed during stop-and-copy; "
                f"resumed on the source: {exc}"
            ) from exc
        src_hv.detach_domain(domain.domid)
        vm.image.release()
        vm.image = dst_image
        new_domain = dst_hv.adopt_vm(vm)
        self._restore_state(dst_hv, new_domain, arrived_state)
        vm.resume(clock.now)

        report.total_s = clock.now - start
        report.guest_digest_preserved = (
            vm.image.content_digest() == final_digest
        )
        if not report.guest_digest_preserved:
            raise MigrationError(
                f"VM {vm.name}: guest memory corrupted during {self.label}"
            )
        return report

    def _check_migratable(self, vm: VirtualMachine) -> None:
        for driver in vm.devices:
            if isinstance(driver, PassthroughDriver):
                raise MigrationError(
                    f"VM {vm.name}: pass-through device {driver.name} "
                    f"forbids live migration (§4.2.3)"
                )

    def _stream_precopy(self, vm: VirtualMachine,
                        rounds: List[PreCopyRound],
                        stream: "wire.MigrationStream",
                        guest_writes_rng: Optional[random.Random]
                        ) -> List[int]:
        """Run the pre-copy rounds over the wire protocol.

        Dirty logging (Xen's log-dirty mode / ``KVM_GET_DIRTY_LOG``) is
        enabled for the duration: round 1 ships every page; while a round
        is in flight the guest may keep writing (``guest_writes_rng``), and
        each subsequent round re-sends exactly what the dirty log recorded.
        Returns the GFNs still dirty when the VM pauses — the stop-and-copy
        set.
        """
        image = vm.image
        stream.send(wire.Hello(
            vm_name=vm.name,
            source_hypervisor=self.source.hypervisor.kind.value,
            target_hypervisor=self.destination.hypervisor.kind.value,
            vcpus=vm.config.vcpus,
            memory_bytes=image.size_bytes,
            page_size=image.page_size,
        ))
        image.start_dirty_logging()
        all_pages = [(gfn, image.read_page(gfn))
                     for gfn in range(image.page_count)]
        wire.send_pages(stream, 1, all_pages)

        for prior, current in zip(rounds, rounds[1:]):
            self._simulate_guest_writes(vm, prior, guest_writes_rng)
            dirtied = image.read_and_clear_dirty_log()
            wire.send_pages(
                stream, current.index,
                [(gfn, image.read_page(gfn)) for gfn in dirtied],
            )
        self._simulate_guest_writes(vm, rounds[-1], guest_writes_rng)
        residual_gfns = image.read_and_clear_dirty_log()
        image.stop_dirty_logging()
        return residual_gfns

    @staticmethod
    def _simulate_guest_writes(vm: VirtualMachine, round_: PreCopyRound,
                               rng: Optional[random.Random]) -> None:
        """Guest stores issued while ``round_`` was in flight.

        With no rng the guest is idle (the planner still charges transfer
        time for its nominal dirty rate, but no contents change and the
        dirty log stays empty).
        """
        if rng is None:
            return
        image = vm.image
        count = min(image.page_count,
                    round_.dirty_after_bytes // image.page_size)
        for gfn in rng.sample(range(image.page_count), count):
            image.write_page(gfn, rng.getrandbits(63) | 1)

    def _stream_stopcopy(self, vm: VirtualMachine, residual_gfns: List[int],
                         state_blob: bytes,
                         stream: "wire.MigrationStream") -> None:
        """Ship the residual dirty set + VM_i State, then DONE."""
        image = vm.image
        wire.send_pages(
            stream, 0,
            [(gfn, image.read_page(gfn)) for gfn in residual_gfns],
        )
        stream.send(wire.UISRPayload(blob=state_blob))
        stream.send(wire.Done(final_digest=image.content_digest()))

    def _receive_guest(self, vm: VirtualMachine,
                       stream: "wire.MigrationStream") -> GuestImage:
        """Destination proxy: rebuild the guest image from the stream."""
        receiver = wire.StreamReceiver()
        for message in stream.receive_all():
            receiver.feed(message)
        hello = receiver.hello
        if hello is None or hello.vm_name != vm.name:
            raise MigrationError("migration stream does not match the VM")
        dst_image = GuestImage(
            self.destination.memory, hello.memory_bytes,
            page_size=hello.page_size, seed=vm.config.seed,
        )
        for gfn, digest in receiver.page_digests.items():
            dst_image.write_page(gfn, digest)
        receiver.finish(dst_image.content_digest())
        self._received_state_blob = receiver.uisr_blob
        return dst_image

    def _flow_rate(self, concurrent: int) -> float:
        return self.link.pipe.flow_rate(concurrent)

    def _receive_queue_s(self, position: int, activation_s: float) -> float:
        """Wait for the activations queued ahead at the destination:
        none, unless the receive side is serialized."""
        return 0.0


class LiveMigration(_MigrationBase):
    """Homogeneous live migration (the Xen->Xen baseline of Table 4).

    VM_i State crosses the wire in the hypervisor's own save format, and
    the destination's receive side serializes activations: a domain at
    ``receive_queue_position`` *k* waits *k* activations (Fig. 8/9).
    """

    heterogeneous = False
    label = "migration"

    def __init__(self, fabric: Fabric, source: Machine, destination: Machine):
        super().__init__(fabric, source, destination)
        if source.hypervisor.kind is not destination.hypervisor.kind:
            raise MigrationError(
                "LiveMigration requires homogeneous hypervisors; "
                "use MigrationTP for heterogeneous ones"
            )

    def _capture_state(self, src_hv: Hypervisor, domain: Domain) -> bytes:
        return src_hv.save_platform_state(domain)

    def _decode_state(self, blob: bytes) -> bytes:
        return blob

    def _restore_state(self, dst_hv: Hypervisor, domain: Domain,
                       state: bytes) -> None:
        dst_hv.load_platform_state(domain, state)

    def _receive_queue_s(self, position: int, activation_s: float) -> float:
        return position * activation_s


class MigrationTP(_MigrationBase):
    """Heterogeneous live migration through UISR proxies (§3.3).

    The source proxy translates VM_i State to UISR for the wire and the
    destination proxy restores it into the target's format; the proxy
    pair costs ``2 * proxy_translate_s`` of downtime.  No queueing:
    kvmtool (and our Xen restore path) activate in parallel.
    """

    heterogeneous = True
    label = "MigrationTP"

    def __init__(self, fabric: Fabric, source: Machine, destination: Machine):
        super().__init__(fabric, source, destination)
        if source.hypervisor.kind is destination.hypervisor.kind:
            raise MigrationError(
                "MigrationTP expects heterogeneous hypervisors; "
                "use LiveMigration for the homogeneous case"
            )

    def _capture_state(self, src_hv: Hypervisor, domain: Domain) -> bytes:
        return encode_uisr(to_uisr(src_hv, domain, pram_file=None))

    def _decode_state(self, blob: bytes) -> UISRVMState:
        return decode_uisr(blob)

    def _restore_state(self, dst_hv: Hypervisor, domain: Domain,
                       state: UISRVMState) -> None:
        from_uisr(dst_hv, domain, state, pram_fs=None)


def migrate_group(migrator: _MigrationBase, domains: List[Domain],
                  clock: Optional[SimClock] = None,
                  dirty_rate_bytes_s: float = 1 << 20) -> List[MigrationReport]:
    """Migrate several VMs concurrently over one link.

    All flows share the link fairly (pre-copy slows down N-fold).  For the
    Xen baseline, stop-and-copy activations additionally queue at the
    receiver, reproducing Fig. 8's growing downtime variance; MigrationTP
    activates in parallel and keeps downtime flat.
    """
    clock = clock or SimClock()
    reports = []
    concurrent = len(domains)
    for position, domain in enumerate(domains):
        reports.append(migrator.migrate(
            domain, SimClock(clock.now), dirty_rate_bytes_s=dirty_rate_bytes_s,
            concurrent=concurrent, receive_queue_position=position,
        ))
    if reports:
        clock.advance(max(r.total_s for r in reports))
    return reports
