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
* :mod:`wire` — the MigrationTP wire protocol.
* :mod:`pipeline` — the staged cost path: per-host and per-VM stage
  plans for both mechanisms.
* :mod:`mechanisms` — the §4.5.2 per-host mechanism policy.

The package re-exports nothing; import the submodule that defines a
name.  That keeps the cost path (``timings``, ``pipeline``,
``mechanisms``) free of the data plane (``transplant``, ``inplace``,
``migration``, ``pram``, ``kexec``, ``wire``, ``uisr``), so the fleet
and sentinel control planes load no PRAM, wire or UISR code.
"""
