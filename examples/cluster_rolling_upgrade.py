#!/usr/bin/env python3
"""Cluster-scale rolling upgrade (the §5.4 / Fig. 13 experiment).

Builds the paper's 10-host x 10-VM cluster (30 % streaming, 30 %
CPU+memory, 40 % idle), plans a rolling hypervisor upgrade with the
BtrPlace-style planner while varying the share of InPlaceTP-compatible
VMs, and reports how migration counts and total time fall as more VMs can
ride the micro-reboot.
"""

from repro.cluster import BtrPlacePlanner
from repro.cluster.model import build_paper_cluster
from repro.fleet import UpgradeCampaign


def inspect_one_plan():
    cluster = build_paper_cluster(inplace_fraction=0.5)
    planner = BtrPlacePlanner(cluster, group_size=2)
    plan = planner.plan()
    print("One 50 %-compatible campaign, group by group:")
    for group in plan.groups:
        upgrades = {a.node_name: a.vm_count for a in group.upgrades}
        print(f"  round {group.group_index}: offline {group.nodes}, "
              f"{len(group.migrations)} migrations, "
              f"in-place VMs per host {upgrades}")
    # The same cluster, planned the same way, run as one campaign.
    result = UpgradeCampaign(group_size=2).run(0.5)
    print(f"  => {result.migration_count} migrations "
          f"({result.migration_s / 60:.1f} min) + "
          f"{plan.upgrade_count} host reboots "
          f"({result.upgrade_s:.0f} s) = {result.total_minutes:.1f} min\n")


def sweep():
    campaign = UpgradeCampaign()
    fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    results = campaign.sweep(fractions)
    gains = UpgradeCampaign.time_gains(results)
    print("InPlaceTP share -> migrations, total time, gain (Fig. 13):")
    for result, gain in zip(results, gains):
        print(f"  {result.inplace_fraction:>4.0%}: "
              f"{result.migration_count:3d} migrations, "
              f"{result.total_minutes:5.1f} min, gain {gain:4.0%}  "
              f"{'#' * (result.migration_count // 4)}")
    print("\nPaper anchors: 154 migrations at 0 %; 109/-17 % at 20 %; "
          "25 migrations/-80 % at 80 % (3 min 54 s vs up to 19 min).")


def main():
    inspect_one_plan()
    sweep()


if __name__ == "__main__":
    main()
