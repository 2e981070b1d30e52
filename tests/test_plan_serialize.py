"""Tests for reconfiguration-plan serialization."""

import json

import pytest

from repro.errors import PlanningError
from repro.cluster import (
    decode_plan,
    encode_plan,
    export_plan,
    import_plan,
    summarize_plan,
)
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.model import build_paper_cluster

from tests.oracles import PlanExecutor


class TestPlanSerialization:
    def _plan(self, fraction=0.5):
        cluster = build_paper_cluster(inplace_fraction=fraction)
        return BtrPlacePlanner(cluster).plan()

    def test_roundtrip_preserves_structure(self):
        plan = self._plan()
        restored = import_plan(export_plan(plan))
        assert restored.migration_count == plan.migration_count
        assert restored.upgrade_count == plan.upgrade_count
        assert len(restored.groups) == len(plan.groups)
        assert [m.vm_name for m in restored.migrations()] == \
            [m.vm_name for m in plan.migrations()]

    def test_roundtrip_executes_identically(self):
        plan = self._plan()
        executor = PlanExecutor()
        original = executor.execute(plan)
        restored = executor.execute(import_plan(export_plan(plan)))
        assert restored.total_s == pytest.approx(original.total_s)

    def test_export_is_valid_json(self):
        document = json.loads(export_plan(self._plan()))
        assert document["format"] == "hypertp-plan"
        assert document["groups"][0]["nodes"]

    def test_import_validates_envelope(self):
        with pytest.raises(PlanningError, match="valid JSON"):
            import_plan("{nope")
        with pytest.raises(PlanningError, match="not a hypertp plan"):
            import_plan(json.dumps({"format": "other"}))
        with pytest.raises(PlanningError, match="version"):
            import_plan(json.dumps({"format": "hypertp-plan",
                                    "version": 99}))
        with pytest.raises(PlanningError, match="malformed"):
            import_plan(json.dumps({"format": "hypertp-plan", "version": 1,
                                    "groups": [{"index": 0}]}))

    def test_summary_mentions_every_group(self):
        plan = self._plan()
        summary = summarize_plan(plan)
        assert f"{plan.migration_count} migrations" in summary
        for group in plan.groups:
            assert f"round {group.group_index}" in summary


class TestPlanBlobCodec:
    """The framed binary envelope layered over the JSON export."""

    def _plan(self):
        cluster = build_paper_cluster(inplace_fraction=0.5)
        return BtrPlacePlanner(cluster).plan()

    def test_blob_roundtrip(self):
        plan = self._plan()
        restored = decode_plan(encode_plan(plan))
        assert restored.migration_count == plan.migration_count
        assert len(restored.groups) == len(plan.groups)

    def test_blob_is_deterministic(self):
        plan = self._plan()
        assert encode_plan(plan) == encode_plan(plan)

    def test_trailing_bytes_rejected(self):
        blob = encode_plan(self._plan())
        with pytest.raises(PlanningError, match="trailing"):
            decode_plan(blob + b"x")

    def test_corruption_rejected(self):
        blob = bytearray(encode_plan(self._plan()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(PlanningError, match="corrupt"):
            decode_plan(bytes(blob))

    def test_version_checked(self):
        from repro.io import FrameWriter
        from repro.io.frames import Packer
        from repro.cluster.serialize import PLAN_DOC_FRAME

        writer = FrameWriter()
        writer.frame(PLAN_DOC_FRAME, Packer().u32(99).u32(0).bytes())
        with pytest.raises(PlanningError, match="version"):
            decode_plan(writer.finish())
