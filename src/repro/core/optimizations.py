"""The four InPlaceTP optimisations (§4.2.5) as explicit toggles.

* **prepare_ahead** — PRAM construction runs before the VMs are paused
  (akin to live migration's pre-copy), keeping it out of the downtime.
  Device quiescing runs before the pause either way; only PRAM moves
  into the downtime when this is off.
* **parallel** — per-VM translations/restorations each get a thread,
  bounded by the machine's cores.
* **huge_pages** — PRAM entries cover 2 MB chunks instead of 4 KB pages,
  shrinking metadata 512x and speeding every per-entry loop.
* **early_restoration** — VM restoration starts as soon as the services KVM
  needs are up, instead of after full host boot.

The ablation benchmark (``benchmarks/bench_ablation_optimizations.py``)
switches these off one at a time to quantify each contribution.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the four optimisations are active."""

    prepare_ahead: bool = True
    parallel: bool = True
    huge_pages: bool = True
    early_restoration: bool = True

    def without(self, name: str) -> "OptimizationConfig":
        """A copy with one optimisation disabled (ablation helper)."""
        if not hasattr(self, name):
            raise AttributeError(f"unknown optimisation {name!r}")
        return replace(self, **{name: False})

    @classmethod
    def all_disabled(cls) -> "OptimizationConfig":
        return cls(prepare_ahead=False, parallel=False, huge_pages=False,
                   early_restoration=False)

    def describe(self) -> str:
        flags = []
        for name in ("prepare_ahead", "parallel", "huge_pages",
                     "early_restoration"):
            mark = "+" if getattr(self, name) else "-"
            flags.append(f"{mark}{name}")
        return " ".join(flags)


DEFAULT_OPTIMIZATIONS = OptimizationConfig()
