"""InPlaceTP — in-place micro-reboot-based hypervisor transplant (Fig. 3).

Workflow on one machine:

❶ load the target hypervisor's kexec image into RAM (ahead of time);
❷ pause running guests (after pre-pause preparation: device quiescing and
  PRAM construction, which the prepare-ahead optimisation keeps out of the
  downtime);
❸ translate every VM's VM_i State into UISR and store the encoded documents
  in pinned RAM;
❹ micro-reboot into the target hypervisor, passing the PRAM pointer;
❺ the target parses PRAM, restores VM_i States from UISR into its own
  format and rebuilds its VM Management State;
❻ re-links the restored states to new domains;
❼ resumes all guests and frees the ephemeral metadata.

Downtime = Translation + Reboot + Restoration; PRAM construction happens
while guests still run.  The run charges exactly the phases its own
:meth:`InPlaceTP.stage_plan` prices (:mod:`repro.core.pipeline`); only
device preparation and the network link's re-initialisation after the
reboot are its own terms (network-independent workloads do not observe
the latter).
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import TransplantError
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_4K
from repro.hypervisors import make_hypervisor
from repro.hypervisors.base import Hypervisor, HypervisorKind
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.core.convert import from_uisr, to_uisr
from repro.core.kexec import load_kexec_image, micro_reboot
from repro.core.optimizations import DEFAULT_OPTIMIZATIONS, OptimizationConfig
from repro.core.pipeline import InPlacePipeline, Stage, StagePlan
from repro.core.pram import PRAMFilesystem
from repro.core.timings import entries_for
from repro.core.uisr.codec import encode_uisr
from repro.devices.model import plan_device_transplant, restore_devices


@dataclass
class InPlaceReport:
    """Timing breakdown and verification results of one InPlaceTP run."""

    machine: str
    source: str
    target: str
    vm_count: int
    #: guest notification + device quiescing, before PRAM (pre-pause)
    device_prepare_s: float = 0.0
    pram_s: float = 0.0
    #: PRAM construction ran inside the pause (prepare-ahead off), so
    #: ``pram_s`` counts toward the downtime
    pram_in_pause: bool = False
    translation_s: float = 0.0
    reboot_s: float = 0.0
    restoration_s: float = 0.0
    network_s: float = 0.0
    #: Translation + Reboot + Restoration (network excluded, §5.2)
    downtime_s: float = 0.0
    downtime_with_network_s: float = 0.0
    total_s: float = 0.0
    pram_metadata_bytes: int = 0
    uisr_bytes: int = 0
    guest_digests_preserved: bool = False
    per_vm_downtime: Dict[str, float] = field(default_factory=dict)

    @property
    def phase_breakdown(self) -> Dict[str, float]:
        return {
            "PRAM": self.pram_s,
            "Translation": self.translation_s,
            "Reboot": self.reboot_s,
            "Restoration": self.restoration_s,
            "Network": self.network_s,
        }


class InPlaceTP:
    """One in-place transplant of a machine to a different hypervisor."""

    #: phase checkpoints, in order; failures up to and including
    #: "store-uisr" roll back cleanly (VMs resume on the source hypervisor),
    #: the micro-reboot is the point of no return.
    PHASES = ("stage", "prepare", "pram", "pause", "translate", "store-uisr",
              "reboot", "restore", "resume")
    _LAST_ABORTABLE = "store-uisr"

    def __init__(self, machine: Machine, target_kind: HypervisorKind,
                 optimizations: OptimizationConfig = DEFAULT_OPTIMIZATIONS,
                 failure_hook: Optional[Callable[[str], None]] = None):
        if machine.hypervisor is None:
            raise TransplantError(f"{machine.name} has no hypervisor to replace")
        if machine.hypervisor.kind is target_kind:
            raise TransplantError(
                f"{machine.name} already runs {target_kind.value}; "
                f"transplant requires a different hypervisor"
            )
        self.machine = machine
        self.source: Hypervisor = machine.hypervisor
        self.target_kind = target_kind
        self.opts = optimizations
        # Test/chaos hook, invoked at each phase boundary with the phase
        # name; raising from it simulates a failure at that point.
        self.failure_hook = failure_hook
        self.rolled_back = False

    def _checkpoint(self, phase: str) -> None:
        if self.failure_hook is not None:
            self.failure_hook(phase)

    def stage_plan(self) -> StagePlan:
        """The staged cost breakdown for this machine's live population.

        Predicts the run without mutating anything, and is what the run
        charges: the quiesce/capture/translate/transfer/restore stages of
        the actual domains on the source hypervisor, under this
        transplant's optimisations.
        """
        domains = sorted(self.source.domains.values(), key=lambda d: d.domid)
        vm_shapes = [
            (domain.vm.config.vcpus,
             entries_for(domain.vm.image.size_bytes,
                         domain.vm.image.page_size, self.opts.huge_pages))
            for domain in domains
        ]
        pipeline = InPlacePipeline(self.machine.spec, self.target_kind)
        return pipeline.plan_shapes(
            vm_shapes, parallel=self.opts.parallel,
            early_restoration=self.opts.early_restoration,
            capture_in_pause=not self.opts.prepare_ahead,
        )

    # -- the full workflow, phase by phase ---------------------------------

    def run(self, clock: Optional[SimClock] = None) -> InPlaceReport:
        """Execute the transplant, advancing ``clock`` through each phase."""
        engine = Engine(clock)
        return engine.run_process(self._steps(lambda: engine.now),
                                  name=f"inplace-{self.machine.name}")

    def as_process(self, engine: Engine):
        """Run the transplant as a process on a caller's shared ``engine``.

        Other processes (workload samplers, monitors) interleave with the
        transplant's phases on the shared simulated timeline.  Returns the
        :class:`~repro.sim.engine.Process`; its ``result`` is the report.
        """
        return engine.spawn(self._steps(lambda: engine.now),
                            name=f"inplace-{self.machine.name}")

    def _steps(self, now):
        """The workflow as a generator process: mutate, then yield each
        duration.

        ``now`` is a zero-argument callable giving the current simulated
        time.  :meth:`run` and :meth:`as_process` both drive the generator
        on a :class:`~repro.sim.engine.Engine`, which advances time by
        whatever is yielded before resuming it.
        """
        report = InPlaceReport(
            machine=self.machine.name,
            source=self.source.kind.value,
            target=self.target_kind.value,
            vm_count=len(self.source.domains),
        )
        start = now()
        plan = self.stage_plan()

        domains = sorted(self.source.domains.values(), key=lambda d: d.domid)
        vms = [d.vm for d in domains]
        pre_digests = {vm.name: vm.image.content_digest() for vm in vms}

        pram: Optional[PRAMFilesystem] = None
        uisr_frames: List[int] = []
        paused = False
        try:
            # ❶ stage the target kernel (ahead of time; no downtime cost).
            load_kexec_image(self.machine, self.target_kind)
            target = make_hypervisor(self.target_kind)
            self._checkpoint("stage")

            # Pre-pause preparation: guest notification + device quiescing,
            # then PRAM construction.
            report.device_prepare_s = sum(
                plan_device_transplant(d.vm.devices).prepare_seconds
                for d in domains
            )
            yield report.device_prepare_s
            self._checkpoint("prepare")

            pram = PRAMFilesystem(self.machine.memory)
            for domain in domains:
                image = domain.vm.image
                pram.add_vm_file(
                    domain.vm.name, image.mappings(),
                    page_size=image.page_size,
                    entry_page_size=None if self.opts.huge_pages else PAGE_4K,
                )
            pram_pointer = pram.seal()
            report.pram_metadata_bytes = pram.metadata_bytes()
            report.pram_s = plan.stage_s(Stage.CAPTURE)
            report.pram_in_pause = not self.opts.prepare_ahead
            if self.opts.prepare_ahead:
                yield report.pram_s  # guests still running
            self._checkpoint("pram")

            # ❷ pause all guests.
            pause_time = now()
            for domain in domains:
                self.source.pause_domain(domain.domid, pause_time)
            paused = True
            if not self.opts.prepare_ahead:
                # Ablation: PRAM work lands inside the downtime window.
                yield report.pram_s
            self._checkpoint("pause")

            # ❸ translate VM_i State -> UISR, store encoded docs in RAM.
            uisr_docs = []
            for domain in domains:
                uisr_docs.append(to_uisr(self.source, domain,
                                         pram_file=domain.vm.name))
                domain.vm.mark_suspended()
            self._checkpoint("translate")
            encoded = [encode_uisr(doc) for doc in uisr_docs]
            report.uisr_bytes = sum(len(blob) for blob in encoded)
            uisr_frames = self._store_uisr(encoded)
            report.translation_s = plan.stage_s(Stage.TRANSLATE)
            yield report.translation_s
            self._checkpoint("store-uisr")
        except Exception as exc:
            self._abort(now(), vms, pram, uisr_frames, paused)
            raise TransplantError(
                f"{self.machine.name}: InPlaceTP aborted before the "
                f"micro-reboot; all VMs resumed on "
                f"{self.source.kind.value}: {exc}"
            ) from exc

        # ❹ micro-reboot into the target hypervisor.
        report.reboot_s = plan.stage_s(Stage.TRANSFER)
        micro_reboot(self.machine, target, pram_pointer)
        yield report.reboot_s
        network_ready_at = now() + self.machine.nic.init_s
        report.network_s = self.machine.nic.init_s
        self._checkpoint("reboot")

        # ❺+❻ restore VM_i States from UISR and re-link to new domains.
        for vm, state in zip(vms, uisr_docs):
            domain = target.adopt_vm(vm)
            from_uisr(target, domain, state, pram_fs=pram)
            pram.release_guest_pins(vm.name)
        target.rebuild_management_state()
        report.restoration_s = plan.stage_s(Stage.RESTORE)
        yield report.restoration_s
        self._checkpoint("restore")

        # ❼ resume guests, free ephemeral state, bring the link back up.
        resume_time = now()
        for vm in vms:
            restore_devices(vm.devices, target_kind=self.target_kind.value)
            vm.resume(resume_time)
            report.per_vm_downtime[vm.name] = resume_time - pause_time
        self._free_uisr(uisr_frames)
        pram.teardown()
        yield max(0.0, network_ready_at - now())
        self.machine.nic.bring_up()

        report.downtime_s = plan.downtime_s
        report.downtime_with_network_s = max(
            report.downtime_s,
            report.translation_s + report.reboot_s + report.network_s
            + (0.0 if self.opts.prepare_ahead else report.pram_s),
        )
        report.total_s = now() - start

        post_digests = {vm.name: vm.image.content_digest() for vm in vms}
        report.guest_digests_preserved = post_digests == pre_digests
        if not report.guest_digests_preserved:
            raise TransplantError(
                f"{self.machine.name}: guest memory corrupted during "
                f"InPlaceTP — digests changed"
            )
        return report

    # -- helpers -------------------------------------------------------------

    def _abort(self, resume_time: float, vms,
               pram: Optional[PRAMFilesystem],
               uisr_frames: List[int], paused: bool) -> None:
        """Undo everything reversible and resume VMs on the source.

        Only valid before the micro-reboot: the source hypervisor is still
        running, guest memory untouched, so the transplant simply unwinds
        (free UISR frames, unpin PRAM, un-stage the kernel, resume guests
        and their devices).
        """
        self._free_uisr(uisr_frames)
        if pram is not None and pram.sealed:
            for name in pram.files:
                pram.release_guest_pins(name)
            pram.teardown()
        self.machine.staged_kernel = None
        if paused:
            for vm in vms:
                vm.resume(resume_time)
        for vm in vms:
            for driver in vm.devices:
                if driver.state.value == "paused":
                    driver.resume()
                elif driver.state.value == "unplugged":
                    driver.rescan()
        self.rolled_back = True

    def _store_uisr(self, encoded_docs: List[bytes]) -> List[int]:
        """Pin RAM frames holding the encoded UISR docs across the reboot."""
        mfns = []
        for blob in encoded_docs:
            frames_needed = -(-len(blob) // PAGE_4K)
            for frame in self.machine.memory.allocate_many(frames_needed,
                                                           size=PAGE_4K):
                self.machine.memory.pin(frame.mfn)
                mfns.append(frame.mfn)
        return mfns

    def _free_uisr(self, mfns: List[int]) -> None:
        for mfn in mfns:
            self.machine.memory.unpin(mfn)
            self.machine.memory.free(mfn)
