"""Reconfiguration-plan serialization.

Operators review maintenance plans before executing them; this module
round-trips a :class:`~repro.cluster.plan.ReconfigurationPlan` through a
JSON document (the artifact a change-review ticket would attach), renders
a human-readable summary, and — for the control-plane transport — packs
the same document into a ``repro.io`` framed binary blob
(:func:`encode_plan`/:func:`decode_plan`).  The blob carries an explicit
format-version field and is END-terminated, so version skew, corruption,
truncation and concatenated garbage tails all fail loudly as
:class:`~repro.errors.PlanningError`.
"""

import json
from typing import Dict

from repro.errors import PlanningError, StateFormatError
from repro.io.frames import FrameReader, FrameWriter, Packer, Unpacker
from repro.cluster.model import WorkloadKind
from repro.cluster.plan import (
    GroupPlan,
    InPlaceAction,
    MigrationAction,
    ReconfigurationPlan,
)

PLAN_FORMAT = "hypertp-plan"
PLAN_VERSION = 1

#: version of the framed binary plan-blob envelope.
PLAN_BLOB_VERSION = 1

#: frame type tag carrying one plan document.
PLAN_DOC_FRAME = 1


def plan_to_dict(plan: ReconfigurationPlan) -> Dict:
    """JSON-ready representation of a plan."""
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "groups": [
            {
                "index": group.group_index,
                "nodes": list(group.nodes),
                "migrations": [
                    {
                        "vm": m.vm_name,
                        "from": m.source,
                        "to": m.destination,
                        "memory_bytes": m.memory_bytes,
                        "workload": m.workload.value,
                    }
                    for m in group.migrations
                ],
                "upgrades": [
                    {
                        "node": u.node_name,
                        "vm_count": u.vm_count,
                        "total_memory_bytes": u.total_memory_bytes,
                    }
                    for u in group.upgrades
                ],
            }
            for group in plan.groups
        ],
    }


def plan_from_dict(document: Dict) -> ReconfigurationPlan:
    """Parse and validate a plan document."""
    if not isinstance(document, dict) or \
            document.get("format") != PLAN_FORMAT:
        raise PlanningError("not a hypertp plan document")
    if document.get("version") != PLAN_VERSION:
        raise PlanningError(
            f"unsupported plan version {document.get('version')!r}"
        )
    plan = ReconfigurationPlan()
    try:
        for entry in document["groups"]:
            group = GroupPlan(group_index=int(entry["index"]),
                              nodes=list(entry["nodes"]))
            for m in entry["migrations"]:
                group.migrations.append(MigrationAction(
                    vm_name=m["vm"],
                    source=m["from"],
                    destination=m["to"],
                    memory_bytes=int(m["memory_bytes"]),
                    workload=WorkloadKind(m["workload"]),
                ))
            for u in entry["upgrades"]:
                group.upgrades.append(InPlaceAction(
                    node_name=u["node"],
                    vm_count=int(u["vm_count"]),
                    total_memory_bytes=int(u["total_memory_bytes"]),
                ))
            plan.groups.append(group)
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanningError(f"malformed plan document: {exc}") from exc
    return plan


def export_plan(plan: ReconfigurationPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True)


def import_plan(text: str) -> ReconfigurationPlan:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanningError(f"plan is not valid JSON: {exc}") from exc
    return plan_from_dict(document)


def encode_plan(plan: ReconfigurationPlan) -> bytes:
    """Pack a plan into one framed, CRC-checked, versioned binary blob."""
    text = json.dumps(plan_to_dict(plan), sort_keys=True,
                      separators=(",", ":"))
    data = text.encode()
    packer = Packer()
    packer.u32(PLAN_BLOB_VERSION)
    packer.u32(len(data)).raw(data)
    writer = FrameWriter()
    writer.frame(PLAN_DOC_FRAME, packer.bytes())
    return writer.finish()


def decode_plan(blob: bytes) -> ReconfigurationPlan:
    """Parse a plan blob; rejects corrupt, truncated or trailing bytes."""
    try:
        reader = FrameReader(blob)
        first = reader.read()
        if first is None:
            raise PlanningError("empty plan blob")
        frame_type, payload = first
        if frame_type != PLAN_DOC_FRAME:
            raise PlanningError(f"unexpected plan frame type {frame_type}")
        if reader.read() is not None:
            raise PlanningError("multiple documents in plan blob")
        reader.expect_end()
        body = Unpacker(payload)
        version = body.u32()
        if version != PLAN_BLOB_VERSION:
            raise PlanningError(
                f"unsupported plan blob version {version}")
        text = body.raw(body.u32()).decode()
        body.expect_end()
    except PlanningError:
        raise
    except StateFormatError as exc:
        raise PlanningError(f"corrupt plan blob: {exc}") from exc
    return import_plan(text)


def summarize_plan(plan: ReconfigurationPlan) -> str:
    """The change-ticket summary an operator signs off on."""
    lines = [
        f"Rolling upgrade: {len(plan.groups)} offline groups, "
        f"{plan.migration_count} migrations, {plan.upgrade_count} "
        f"host micro-reboots.",
    ]
    for group in plan.groups:
        riding = sum(u.vm_count for u in group.upgrades)
        lines.append(
            f"  round {group.group_index}: offline {', '.join(group.nodes)}"
            f" — {len(group.migrations)} VMs evacuate, {riding} ride the "
            f"reboot"
        )
    return "\n".join(lines)
