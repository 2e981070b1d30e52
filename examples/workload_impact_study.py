#!/usr/bin/env python3
"""What do applications feel during a transplant?  (§5.3, Fig. 11/12)

Runs Redis and MySQL models through both HyperTP mechanisms on a simulated
M1 host (2 vCPU / 8 GB VM, as in the paper) and prints ASCII time series:
InPlaceTP shows a short total blackout, MigrationTP a long shallow dip.
"""

from repro import HyperTP, HypervisorKind, M1_SPEC, MigrationTP, SimClock
from repro.bench import make_host, make_host_pair
from repro.workloads import (
    MySQLWorkload,
    RedisWorkload,
    timeline_for_inplace,
    timeline_for_migration,
)

TRIGGER_T = 50.0


def sparkline(series, t0, t1, step=5, width_scale=30):
    """Render a metric series as one ASCII bar per `step` seconds."""
    peak = max(series.values) or 1.0
    lines = []
    t = t0
    while t < t1:
        window = [v for ts, v in zip(series.times, series.values)
                  if t <= ts < t + step]
        value = sum(window) / len(window) if window else 0.0
        bar = "#" * int(width_scale * value / peak)
        lines.append(f"  t={t:>5.0f}s |{bar:<{width_scale}}| "
                     f"{value:,.0f} {series.unit}")
        t += step
    return "\n".join(lines)


def redis_through_inplace():
    machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, vcpus=2,
                        memory_gib=8.0)
    report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
    timeline = timeline_for_inplace(report, TRIGGER_T, HypervisorKind.XEN,
                                    HypervisorKind.KVM)
    series = RedisWorkload().run(120.0, timeline)
    print("Redis QPS through InPlaceTP "
          f"(downtime {report.downtime_s:.1f} s + NIC {report.network_s:.1f} s):")
    print(sparkline(series, 30, 90))
    z0, z1 = series.zero_span()
    print(f"  => total service interruption {z1 - z0 + 1:.0f} s; QPS then "
          f"jumps ~37 % on KVM (paper: the same)\n")


def mysql_through_migration():
    source, destination, fabric = make_host_pair(
        M1_SPEC, HypervisorKind.KVM, vcpus=2, memory_gib=8.0,
    )
    domain = next(iter(source.hypervisor.domains.values()))
    report = MigrationTP(fabric, source, destination).migrate(
        domain, dirty_rate_bytes_s=10 << 20,
    )
    timeline = timeline_for_migration(report, TRIGGER_T, HypervisorKind.XEN,
                                      HypervisorKind.KVM,
                                      precopy_throughput_factor=0.32)
    workload = MySQLWorkload()
    qps = workload.run(200.0, timeline)
    latency = workload.run_latency(200.0, timeline)
    print(f"MySQL through MigrationTP (pre-copy {report.precopy_s:.0f} s, "
          f"downtime {report.downtime_s * 1000:.0f} ms):")
    print(sparkline(qps, 30, 170, step=10))
    mid = int(TRIGGER_T + report.precopy_s / 2)
    print(f"  => during the copy: QPS -68 %, latency "
          f"{latency.values[mid]:.0f} ms vs {latency.values[10]:.0f} ms "
          f"baseline (+252 %), no blackout (paper: the same)")


def main():
    redis_through_inplace()
    mysql_through_migration()


if __name__ == "__main__":
    main()
