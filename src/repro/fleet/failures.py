"""Failure injection and retry policy for emergency campaigns.

ReHype's lesson (PAPERS.md) is that hypervisor remediation must be treated
as a *recoverable* process: kexec can hang, migrations can stall on a
congested fabric, and a translated UISR can fail its post-reboot integrity
check.  The injector draws those faults from per-host deterministic
substreams — each host's fault sequence depends only on the campaign seed
and the host name, never on event interleaving — so a campaign with
failures is exactly as reproducible as one without.
"""

import enum
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from repro.errors import FleetError


class FailurePhase(enum.Enum):
    """Where a fault can strike, with the operator-visible symptom."""

    EVACUATION = "migration-stall"
    KEXEC = "kexec-hang"
    VERIFY = "uisr-verify-mismatch"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``attempt`` is zero-based: the first retry waits ``backoff_base_s``,
    each further retry multiplies by ``backoff_factor``, capped at
    ``backoff_max_s``.  After ``max_retries`` failed attempts the host
    rolls back instead of retrying again.
    """

    max_retries: int = 3
    backoff_base_s: float = 5.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 300.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise FleetError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise FleetError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise FleetError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        try:
            delay = self.backoff_base_s * self.backoff_factor ** attempt
        except OverflowError:
            # Past float range the delay sits at the cap — or at zero
            # when there is no base delay to grow.
            return self.backoff_max_s if self.backoff_base_s else 0.0
        return min(delay, self.backoff_max_s)

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.max_retries


class HostFaultStream:
    """The deterministic fault sequence of one host.

    The RNG is seeded on the first draw: a phase whose rate is 0 never
    draws, so a failure-free campaign seeds no host's stream.
    """

    def __init__(self, rates: Mapping[FailurePhase, float], seed: int,
                 host: str):
        self._rates = rates
        self._seed = f"fleet:{seed}:{host}"
        self._rng: Optional[random.Random] = None
        #: RNG draws consumed so far — the stream position.  Campaign
        #: checkpoints digest this so a recovered run proves its fault
        #: streams sit exactly where the crashed run left them.
        self.draws = 0

    def strikes(self, phase: FailurePhase) -> bool:
        """Draw whether ``phase`` faults on this attempt."""
        rate = self._rates.get(phase, 0.0)
        if rate <= 0.0:
            return False
        if self._rng is None:
            # Random.seed(str) hashes via SHA-512 — stable across
            # processes, unlike built-in str hashing.
            self._rng = random.Random(self._seed)
        self.draws += 1
        return self._rng.random() < rate


class FailureInjector:
    """Per-phase fault probabilities, with per-host substreams."""

    def __init__(self,
                 rates: Union[float, Mapping[FailurePhase, float]] = 0.0,
                 seed: int = 0):
        if isinstance(rates, (int, float)):
            rates = {phase: float(rates) for phase in FailurePhase}
        for phase, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise FleetError(
                    f"failure rate for {phase.value} out of [0,1]: {rate}"
                )
        self.rates: Dict[FailurePhase, float] = dict(rates)
        self.seed = seed

    @property
    def enabled(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    def stream_for(self, host: str) -> HostFaultStream:
        return HostFaultStream(self.rates, self.seed, host)
