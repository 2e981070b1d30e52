"""Cluster-scale planning (§5.4).

* :mod:`model` — nodes, placements and workload mixes for the 10x10 testbed.
* :mod:`btrplace` — a BtrPlace-style reconfiguration planner: offline-group
  constraints produce migration plans.
* :mod:`plan` — plan data structures (actions, ordering).
* :mod:`serialize` — plans as framed binary blobs and JSON documents.

This package only plans; it times nothing and imports no transplant
mechanism, hypervisor or fleet module.  Plans are executed by the fleet
controller (:mod:`repro.fleet`), whose degenerate campaign is the
Fig. 13 cluster upgrade (:class:`repro.fleet.upgrade.UpgradeCampaign`).
"""

from repro.cluster.model import Cluster, ClusterNode, ClusterVM, WorkloadKind
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.plan import MigrationAction, InPlaceAction, ReconfigurationPlan
from repro.cluster.serialize import (
    decode_plan,
    encode_plan,
    export_plan,
    import_plan,
    summarize_plan,
)

__all__ = [
    "export_plan",
    "import_plan",
    "encode_plan",
    "decode_plan",
    "summarize_plan",
    "Cluster",
    "ClusterNode",
    "ClusterVM",
    "WorkloadKind",
    "BtrPlacePlanner",
    "MigrationAction",
    "InPlaceAction",
    "ReconfigurationPlan",
]
