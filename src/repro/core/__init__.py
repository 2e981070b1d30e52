"""HyperTP core — the paper's primary contribution.

Submodules:

* :mod:`uisr` — Unified Intermediate State Representation (format and
  binary codec).
* :mod:`convert` — the one ``to_uisr``/``from_uisr`` pair, which goes
  through each hypervisor's own state methods, and the compatibility
  fixups.
* :mod:`memsep` — memory-separation classifier (Fig. 2).
* :mod:`pram` — the PRAM over-kexec memory file system (Fig. 4).
* :mod:`kexec` — simulated micro-reboot with PRAM hand-over.
* :mod:`timings` — calibrated cost model for every transplant phase.
* :mod:`optimizations` — the four §4.2.5 optimisations as toggles.
* :mod:`inplace` — InPlaceTP workflow (Fig. 3).
* :mod:`migration` — MigrationTP and homogeneous live-migration baseline.
* :mod:`transplant` — the :class:`HyperTP` façade tying it all together.
* :mod:`tcb` — trusted-computing-base accounting (§4.4).
"""

from repro.core.transplant import HyperTP, TransplantReport
from repro.core.inplace import InPlaceTP, InPlaceReport
from repro.core.migration import MigrationTP, LiveMigration, MigrationReport
from repro.core.optimizations import OptimizationConfig
from repro.core.timings import CostModel, DEFAULT_COST_MODEL

__all__ = [
    "HyperTP",
    "TransplantReport",
    "InPlaceTP",
    "InPlaceReport",
    "MigrationTP",
    "LiveMigration",
    "MigrationReport",
    "OptimizationConfig",
    "CostModel",
    "DEFAULT_COST_MODEL",
]
