"""Calibrated cost model for transplant phases.

Every simulated duration in the evaluation comes from this module.  The
constants are calibrated against the paper's measured anchors (DESIGN.md §5):
for a 1 vCPU / 1 GB VM, InPlaceTP Xen->KVM costs 0.45/0.08/1.52/0.12 s
(PRAM/Translation/Reboot/Restoration) on M1 and 0.5/0.24/2.40/0.34 s on M2;
the KVM->Xen reboot is ~7.6 s on M1 / ~17.8 s on M2 because Xen boots two
kernels; migration of 1 GB over 1 Gbps takes ~9.6 s with a 4.96 ms (kvmtool)
vs 133.59 ms (Xen) stop-and-copy downtime.

Structural drivers, not magic numbers, produce the shapes:

* per-PRAM-entry costs make PRAM/Translation/Reboot grow with guest memory
  and VM count (Fig. 7b/7c);
* parallel makespans over the machine's worker threads make M1 (4 cores)
  degrade faster than M2 (28 cores) as VM count grows (Fig. 7c vs 7f);
* Xen's boot base covers two kernels (the hypervisor core and dom0)
  against one for KVM and NOVA, and with its per-CPU boot work it makes
  the KVM->Xen direction slow (Fig. 10);
* sequential early-boot PRAM parsing makes Reboot creep up with total
  entries (Fig. 7b).
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import MigrationError, TransplantError
from repro.hw.machine import MachineSpec
from repro.hw.memory import PAGE_4K
from repro.hypervisors.base import HypervisorKind
from repro.sim.resources import CPUPool


@dataclass(frozen=True)
class CostModel:
    """Single-thread nominal costs; machine factors scale them."""

    # -- PRAM construction (pre-pause) --
    pram_fixed_per_vm_s: float = 0.30
    pram_per_entry_s: float = 2.0e-4
    pram_finalize_per_vm_s: float = 0.05  # serial tail per VM

    # -- UISR translation (downtime) --
    translate_fixed_per_vm_s: float = 0.040
    translate_per_vcpu_s: float = 0.002
    translate_per_entry_s: float = 2.0e-5
    translate_per_host_gib_s: float = 0.0025  # PRAM finalization scan

    # -- micro-reboot --
    kexec_jump_s: float = 0.020
    kvm_kernel_boot_s: float = 1.26
    kvm_per_cpu_boot_s: float = 0.020
    xen_kernel_boot_s: float = 4.30  # Xen core + dom0 base
    xen_per_cpu_boot_s: float = 0.40
    nova_kernel_boot_s: float = 0.55  # microhypervisor: tiny single kernel
    nova_per_cpu_boot_s: float = 0.012
    pram_parse_per_entry_s: float = 1.6e-4  # sequential, early boot

    # -- UISR restoration (downtime) --
    restore_fixed_per_vm_s: float = 0.050
    restore_per_vcpu_s: float = 0.005
    restore_per_entry_s: float = 4.0e-5
    restore_per_host_gib_s: float = 0.003
    early_restore_saving_s: float = 0.35  # boot-overlap saved per transplant

    # -- migration --
    migration_setup_s: float = 0.45  # connection + negotiation + first scan
    proxy_translate_s: float = 0.0008  # UISR encode/decode of platform state
    migration_round_overhead_s: float = 0.08
    xen_stopcopy_activation_s: float = 0.118
    xen_stopcopy_per_vcpu_s: float = 0.015
    kvmtool_stopcopy_activation_s: float = 0.003
    kvmtool_stopcopy_per_vcpu_s: float = 0.002
    max_precopy_rounds: int = 5
    stop_threshold_fraction: float = 0.002  # dirty share triggering stop

    # -- in-place guest resume --
    resume_per_vm_s: float = 0.004

    # -- InPlaceTP phases ----------------------------------------------------

    def pram_vm_task_s(self, spec: MachineSpec, entries: int) -> float:
        per_vm = self.pram_fixed_per_vm_s + self.pram_per_entry_s * entries
        return per_vm * spec.pram_factor

    def pram_phase_s(self, spec: MachineSpec, entry_counts: Sequence[int],
                     parallel: bool = True) -> float:
        """Wall time to build PRAM files for all VMs (before pausing)."""
        tasks = [self.pram_vm_task_s(spec, e) for e in entry_counts]
        finalize = self.pram_finalize_per_vm_s * len(entry_counts)
        return _makespan(spec, tasks, parallel) + finalize * spec.pram_factor

    def translate_vm_task_s(self, spec: MachineSpec, vcpus: int,
                            entries: int) -> float:
        work = (
            self.translate_fixed_per_vm_s
            + self.translate_per_vcpu_s * vcpus
            + self.translate_per_entry_s * entries
        )
        return spec.host_work_time(work)

    def translate_phase_s(self, spec: MachineSpec,
                          vm_shapes: Sequence, parallel: bool = True) -> float:
        """Wall time of the UISR-translation step (VMs are paused).

        ``vm_shapes`` is a sequence of (vcpus, entries) pairs.
        """
        tasks = [self.translate_vm_task_s(spec, v, e) for v, e in vm_shapes]
        host_scan = self.translate_per_host_gib_s * (
            spec.ram_bytes / (1 << 30)
        )
        return _makespan(spec, tasks, parallel) + host_scan

    def kernel_boot_s(self, spec: MachineSpec,
                      target_kind: HypervisorKind) -> float:
        if target_kind is HypervisorKind.XEN:
            base = self.xen_kernel_boot_s
            per_cpu = self.xen_per_cpu_boot_s
        elif target_kind is HypervisorKind.KVM:
            base = self.kvm_kernel_boot_s
            per_cpu = self.kvm_per_cpu_boot_s
        elif target_kind is HypervisorKind.NOVA:
            base = self.nova_kernel_boot_s
            per_cpu = self.nova_per_cpu_boot_s
        else:
            raise TransplantError(f"no boot model for {target_kind}")
        return base * spec.boot_factor + per_cpu * spec.threads

    def reboot_phase_s(self, spec: MachineSpec, target_kind: HypervisorKind,
                       total_entries: int) -> float:
        """kexec jump + target kernel(s) boot + sequential PRAM parse."""
        parse = self.pram_parse_per_entry_s * total_entries
        return (self.kexec_jump_s
                + self.kernel_boot_s(spec, target_kind)
                + spec.host_work_time(parse))

    def restore_vm_task_s(self, spec: MachineSpec, vcpus: int,
                          entries: int) -> float:
        work = (
            self.restore_fixed_per_vm_s
            + self.restore_per_vcpu_s * vcpus
            + self.restore_per_entry_s * entries
        )
        return spec.host_work_time(work)

    def restore_phase_s(self, spec: MachineSpec, vm_shapes: Sequence,
                        parallel: bool = True,
                        early_restoration: bool = True) -> float:
        tasks = [self.restore_vm_task_s(spec, v, e) for v, e in vm_shapes]
        host_scan = self.restore_per_host_gib_s * (
            spec.ram_bytes / (1 << 30)
        )
        total = _makespan(spec, tasks, parallel) + host_scan
        if not early_restoration:
            # Without the early-restoration optimisation, restoration waits
            # for all host services instead of starting as soon as the KVM
            # prerequisites are up (§4.2.5).
            total += self.early_restore_saving_s
        return total

    # -- migration helpers --------------------------------------------------------

    def stopcopy_overhead_s(self, dest_kind: HypervisorKind,
                            vcpus: int) -> float:
        """Destination-side activation cost during stop-and-copy.

        kvmtool's lightweight activation is the reason MigrationTP's
        downtime undercuts Xen->Xen migration by ~27x (Table 4).
        """
        if dest_kind is HypervisorKind.KVM:
            return (self.kvmtool_stopcopy_activation_s
                    + self.kvmtool_stopcopy_per_vcpu_s * vcpus)
        if dest_kind is HypervisorKind.NOVA:
            # A user-level VMM activates like kvmtool, slightly leaner.
            return (0.8 * self.kvmtool_stopcopy_activation_s
                    + self.kvmtool_stopcopy_per_vcpu_s * vcpus)
        return (self.xen_stopcopy_activation_s
                + self.xen_stopcopy_per_vcpu_s * vcpus)


#: the one calibration every mechanism, pipeline and campaign prices with
DEFAULT_COST_MODEL = CostModel()


def entries_for(memory_bytes: int, page_size: int, huge_pages: bool) -> int:
    """PRAM page entries describing one VM (8 B each, §5.5)."""
    effective = page_size if huge_pages else PAGE_4K
    return -(-memory_bytes // effective)


def _makespan(spec: MachineSpec, tasks: Sequence[float],
              parallel: bool) -> float:
    """Wall time of per-VM ``tasks`` on the spec's worker threads, or one
    after another when the parallel optimisation is off."""
    pool = CPUPool(spec.worker_threads)
    if parallel:
        return pool.parallel_makespan(tasks)
    return pool.serial_makespan(tasks)


# -- pre-copy migration --------------------------------------------------------


@dataclass
class PreCopyRound:
    """One iteration of the pre-copy loop."""

    index: int
    bytes_sent: int
    duration_s: float
    dirty_after_bytes: int


def plan_precopy(memory_bytes: int, rate_bytes_s: float,
                 dirty_rate_bytes_s: float) -> List[PreCopyRound]:
    """Compute the pre-copy rounds for one VM.

    Round 1 ships all memory; round *k* ships what was dirtied during round
    *k-1*.  The loop exits when the residual dirty set falls under the
    stop threshold (it then moves in the stop-and-copy) or when the round
    budget is exhausted (write-heavy guests never converge further).
    """
    if rate_bytes_s <= 0:
        raise MigrationError("migration needs positive link rate")
    if dirty_rate_bytes_s < 0:
        raise MigrationError(
            f"dirty rate must be >= 0 bytes/s, got {dirty_rate_bytes_s:g}")
    cost = DEFAULT_COST_MODEL
    rounds: List[PreCopyRound] = []
    to_send = memory_bytes
    threshold = max(1, int(memory_bytes * cost.stop_threshold_fraction))
    for index in range(1, cost.max_precopy_rounds + 1):
        duration = to_send / rate_bytes_s + cost.migration_round_overhead_s
        dirtied = min(memory_bytes, int(dirty_rate_bytes_s * duration))
        rounds.append(PreCopyRound(
            index=index,
            bytes_sent=to_send,
            duration_s=duration,
            dirty_after_bytes=dirtied,
        ))
        to_send = dirtied
        if dirtied <= threshold:
            break
        if dirty_rate_bytes_s >= rate_bytes_s:
            break  # pre-copy cannot converge; cut to stop-and-copy
    return rounds
