"""Public-API surface tests: the README's promises hold."""

import os
import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_runs(self):
        from repro import (HyperTP, HypervisorKind, Machine, M1_SPEC,
                           VMConfig, XenHypervisor, SimClock)

        machine = Machine(M1_SPEC)
        xen = XenHypervisor()
        xen.boot(machine)
        xen.create_vm(VMConfig("vm0", vcpus=1))
        report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        assert report.downtime_s == pytest.approx(1.7, abs=0.2)

    def test_errors_are_catchable_from_base(self):
        from repro import ReproError
        from repro.errors import (
            ClusterError,
            HypervisorError,
            MigrationError,
            OrchestratorError,
            PRAMError,
            TransplantError,
            UISRError,
            VulnDBError,
        )

        for exc_type in (ClusterError, HypervisorError, MigrationError,
                         OrchestratorError, PRAMError, TransplantError,
                         UISRError, VulnDBError):
            assert issubclass(exc_type, ReproError)


class TestSubpackageSurfaces:
    def test_workloads_exports(self):
        from repro import workloads

        for name in workloads.__all__:
            assert hasattr(workloads, name)

    def test_orchestrator_exports(self):
        from repro import orchestrator

        for name in orchestrator.__all__:
            assert hasattr(orchestrator, name)

    def test_vulndb_exports(self):
        from repro import vulndb

        for name in vulndb.__all__:
            assert hasattr(vulndb, name)

    def test_storage_exports(self):
        from repro import storage

        for name in storage.__all__:
            assert hasattr(storage, name)

    def test_cluster_exports(self):
        from repro import cluster

        for name in cluster.__all__:
            assert hasattr(cluster, name)

    def test_sim_exports(self):
        from repro import sim

        for name in sim.__all__:
            assert hasattr(sim, name)


class TestDocumentationArtifacts:
    def test_repo_documents_exist(self):
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/cost-model.md", "docs/extending.md",
                    "docs/paper-mapping.md"):
            assert (root / doc).is_file(), f"{doc} missing"

    def test_public_classes_have_docstrings(self):
        from repro import (HyperTP, InPlaceTP, LiveMigration, MigrationTP,
                           NovaCompute, TransplantAdvisor, UpgradeCampaign)

        for cls in (HyperTP, InPlaceTP, LiveMigration, MigrationTP,
                    NovaCompute, TransplantAdvisor, UpgradeCampaign):
            assert cls.__doc__ and cls.__doc__.strip()

    def test_every_module_has_a_docstring(self):
        import importlib
        import pkgutil

        missing = []
        package = repro
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ and module.__doc__.strip()):
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"


def modules_loaded_by(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    code = (f"import sys\n{statement}\n"
            f"print(*sorted(name for name in sys.modules "
            f"if name.split('.')[0] == 'repro'))")
    # The child imports the package this process imported.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


#: the transplant data plane: guests' state moved, translated and rebooted
DATA_PLANE = ("repro.core.transplant", "repro.core.inplace",
              "repro.core.migration", "repro.core.pram", "repro.core.wire",
              "repro.core.kexec", "repro.core.optimizations",
              "repro.core.uisr", "repro.devices")


class TestImportLayers:
    def test_control_plane_loads_no_data_plane(self):
        # The fleet and sentinel plan and time transplants through the
        # cost path (timings, pipeline, mechanisms) alone.
        loaded = modules_loaded_by("import repro.fleet, repro.sentinel, "
                                   "repro.par.runner, repro.journal")
        assert "repro.core.pipeline" in loaded
        assert [name for name in loaded
                if name.startswith(DATA_PLANE)] == []

    def test_cluster_is_only_the_planning_layer(self):
        loaded = modules_loaded_by("import repro.cluster")
        assert "repro.cluster.btrplace" in loaded
        assert [name for name in loaded if name.startswith(
            ("repro.core", "repro.hypervisors", "repro.fleet"))] == []
