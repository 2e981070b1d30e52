"""Fleet-scale emergency-response control plane.

Closes the paper's loop — CVE disclosure to full fleet remediation — and
measures the vulnerability window at datacenter scale:

* :mod:`controller` — the event-driven campaign controller (waves, per-host
  state machines, admission control, shared-fabric contention);
* :mod:`state` — host lifecycle states, legal transitions, and the
  fleet-wide transition trace;
* :mod:`failures` — deterministic per-phase failure injection and the
  bounded exponential-backoff retry policy;
* :mod:`metrics` — per-host and fleet-wide window metrics with JSON export;
* :mod:`upgrade` — the Fig. 13 cluster upgrade, which is the controller's
  degenerate campaign: no failures, sequential waves, one migration
  stream, no admission cap and no verify stage.

Every host runs as one :class:`repro.sim.engine.Process` and waits on the
engine's FIFO gates, latches and semaphores.  The controller is the only
code that times a reconfiguration plan.
"""

from repro.fleet.controller import FleetConfig, FleetController
from repro.fleet.failures import FailureInjector, FailurePhase, RetryPolicy
from repro.fleet.metrics import FleetMetrics, HostOutcome, percentile
from repro.fleet.state import (
    FleetTrace,
    HostRecord,
    HostState,
    Transition,
)
from repro.fleet.upgrade import CampaignResult, UpgradeCampaign

__all__ = [
    "FleetConfig",
    "FleetController",
    "FailureInjector",
    "FailurePhase",
    "RetryPolicy",
    "FleetMetrics",
    "HostOutcome",
    "percentile",
    "FleetTrace",
    "HostRecord",
    "HostState",
    "Transition",
    "UpgradeCampaign",
    "CampaignResult",
]
