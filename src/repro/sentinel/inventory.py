"""Live fleet inventory: who runs what, and what is open against it.

The policy layer asks two questions the raw vulndb cannot answer alone:
*which hosts are exposed to this CVE right now* (their hypervisor is
affected and the flaw is unpatched), and *how much exposure has the fleet
accrued* (the host-days integral the report publishes).  This module owns
both, updated live as disclosures arrive, campaigns commit hosts, and
patches close flaws.

Exposure accounting uses the standard accrue-then-mutate discipline: every
mutation first calls :meth:`FleetInventory.advance` to integrate
``exposed-hosts x elapsed-time`` for each open CVE up to *now*, then
applies the change.  The integral is therefore exact for piecewise-
constant exposure, which is exactly what a discrete-event fleet produces.

Accrual never walks the hosts.  The inventory keeps a ``kind -> host
count`` ledger, updated by every commit, so a flaw's exposure is a sum
over the few hypervisor kinds it affects: each accrual costs
O(open CVEs x kinds), independent of fleet size.
"""

from collections import Counter
from typing import Dict, List

from repro.errors import SentinelError
from repro.vulndb.cve import CVERecord

#: nominal running versions per hypervisor kind (report cosmetics; the
#: vulndb dataset is keyed by kind, not version)
DEFAULT_VERSIONS = {
    "xen": "4.13",
    "kvm": "5.4",
    "nova": "1.0",
}

DAY_S = 86400.0


class FleetInventory:
    """Per-host hypervisor state plus the open-CVE exposure ledger."""

    def __init__(self, hosts: Dict[str, str]):
        if not hosts:
            raise SentinelError("inventory needs at least one host")
        self._kind: Dict[str, str] = dict(hosts)
        self._version: Dict[str, str] = {
            host: DEFAULT_VERSIONS.get(kind, "unknown")
            for host, kind in self._kind.items()
        }
        #: hypervisor kind -> hosts running it (kinds with none are dropped)
        self._kind_count: Dict[str, int] = dict(Counter(self._kind.values()))
        self._open: Dict[str, CVERecord] = {}
        #: exposure-host-seconds accrued per CVE (closed CVEs keep theirs)
        self.exposure_s: Dict[str, float] = {}
        self._accrued_to_s = 0.0

    # ------------------------------------------------------------------
    # queries

    def hosts(self) -> List[str]:
        return sorted(self._kind)

    def kind_of(self, host: str) -> str:
        try:
            return self._kind[host]
        except KeyError:
            raise SentinelError(f"unknown host {host!r}") from None

    def kinds(self) -> Dict[str, List[str]]:
        """Hypervisor kind -> sorted hosts running it."""
        grouped: Dict[str, List[str]] = {}
        for host in sorted(self._kind):
            grouped.setdefault(self._kind[host], []).append(host)
        return grouped

    def open_cves(self) -> List[str]:
        return sorted(self._open)

    def exposed_hosts(self, cve_id: str) -> List[str]:
        """Hosts whose current hypervisor the open flaw affects.

        A full scan of the fleet: callers that only need the number use
        :meth:`exposure_count`.
        """
        record = self._open.get(cve_id)
        if record is None:
            return []
        return [host for host in sorted(self._kind)
                if record.affects(self._kind[host])]

    def exposure_count(self, cve_id: str) -> int:
        """How many hosts the open flaw exposes, in O(kinds)."""
        record = self._open.get(cve_id)
        if record is None:
            return 0
        return sum(count for kind, count in self._kind_count.items()
                   if record.affects(kind))

    # ------------------------------------------------------------------
    # mutations (each accrues exposure up to *now* first)

    def advance(self, now_s: float) -> None:
        """Integrate exposure for every open CVE up to ``now_s``."""
        if now_s < self._accrued_to_s:
            raise SentinelError(
                f"inventory time moved backwards: {now_s} < "
                f"{self._accrued_to_s}"
            )
        elapsed = now_s - self._accrued_to_s
        if elapsed > 0:
            for cve_id in self._open:
                count = self.exposure_count(cve_id)
                if count:
                    self.exposure_s[cve_id] = (
                        self.exposure_s.get(cve_id, 0.0) + count * elapsed
                    )
        self._accrued_to_s = now_s

    def open_cve(self, now_s: float, record: CVERecord) -> None:
        """A disclosure arrived: the flaw is open from ``now_s`` on."""
        self.advance(now_s)
        if record.cve_id in self._open:
            raise SentinelError(f"{record.cve_id} is already open")
        self._open[record.cve_id] = record
        self.exposure_s.setdefault(record.cve_id, 0.0)

    def close_cve(self, now_s: float, cve_id: str) -> None:
        """The patch was applied fleet-wide: the flaw stops accruing."""
        self.advance(now_s)
        if cve_id not in self._open:
            raise SentinelError(f"{cve_id} is not open")
        del self._open[cve_id]

    def commit_host(self, now_s: float, host: str, kind: str) -> None:
        """A campaign finished transplanting ``host`` onto ``kind``."""
        self.advance(now_s)
        old = self.kind_of(host)  # validates
        self._kind[host] = kind
        self._kind_count[old] -= 1
        if not self._kind_count[old]:
            del self._kind_count[old]
        self._kind_count[kind] = self._kind_count.get(kind, 0) + 1
        self._version[host] = DEFAULT_VERSIONS.get(kind, "unknown")

    # ------------------------------------------------------------------
    # reporting

    def exposure_host_days(self, cve_id: str) -> float:
        return self.exposure_s.get(cve_id, 0.0) / DAY_S

    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary for the sentinel report."""
        return {
            "hosts": {
                host: {"kind": self._kind[host],
                       "version": self._version[host]}
                for host in sorted(self._kind)
            },
            "open_cves": self.open_cves(),
        }
