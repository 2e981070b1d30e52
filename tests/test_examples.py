"""Run every example script end to end and check its key claims.

The examples are the quickstart documentation; if one rots, a user's first
contact with the library breaks.  Each runs as a subprocess (fresh
interpreter, like a user would), must exit 0 printing its headline result,
and must print exactly its golden, ``goldens/examples/<script>.txt``.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
GOLDENS_DIR = Path(__file__).resolve().parent / "goldens" / "examples"


def run_example(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr.decode()
    golden = GOLDENS_DIR / f"{Path(name).stem}.txt"
    assert result.stdout == golden.read_bytes()
    return result.stdout.decode()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "guests bit-identical: True" in out
        assert "keep-in-place" in out  # memory-separation summary
        assert "paper: ~7.8 s" in out

    def test_emergency_cve_response(self):
        out = run_example("emergency_cve_response.py")
        assert "transplant to 'kvm'" in out
        assert "Hosts upgraded: 3" in out
        assert "transplanted back to Xen" in out

    def test_cluster_rolling_upgrade(self):
        out = run_example("cluster_rolling_upgrade.py")
        assert "migrations" in out
        assert "gain" in out
        # Full compatibility eliminates migrations entirely.
        assert "0 migrations" in out or "  0 migrations" in out

    def test_workload_impact_study(self):
        out = run_example("workload_impact_study.py")
        assert "Redis QPS through InPlaceTP" in out
        assert "MySQL through MigrationTP" in out
        assert "+252" in out or "252 %" in out or "latency" in out

    def test_policy_driven_upgrade(self):
        out = run_example("policy_driven_upgrade.py")
        assert "latency-critical -> migration" in out
        assert "dpdk-router -> inplace" in out
        assert "host now runs : kvm" in out

    def test_vulnerability_audit(self):
        out = run_example("vulnerability_audit.py")
        assert "Loaded 292 CVE records" in out
        assert "mean=71d" in out
        assert "transplant to kvm: 17 times" in out

    def test_fleet_emergency_response(self):
        out = run_example("fleet_emergency_response.py")
        assert "transplant xen -> kvm" in out
        assert "remediated hosts         100           100" in out
        assert "not the 7 days a patch would take" in out

    def test_every_example_is_tested(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        tested = {
            "quickstart.py", "emergency_cve_response.py",
            "cluster_rolling_upgrade.py", "workload_impact_study.py",
            "policy_driven_upgrade.py", "vulnerability_audit.py",
            "fleet_emergency_response.py",
        }
        assert scripts == tested, f"untested examples: {scripts - tested}"
        goldens = {p.stem for p in GOLDENS_DIR.glob("*.txt")}
        assert goldens == {Path(name).stem for name in scripts}
