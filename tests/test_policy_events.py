"""Tests for the scheduled-events service."""

import pytest

from repro.errors import OrchestratorError
from repro.orchestrator.scheduled_events import (
    AZURE_MAINTENANCE_BOUND_S,
    EventState,
    EventType,
    ScheduledEventsService,
)


class TestScheduledEvents:
    def test_post_and_poll(self):
        service = ScheduledEventsService(notice_s=900.0)
        event = service.post("vm0", EventType.FREEZE, now=100.0,
                             expected_duration_s=2.0)
        assert event.not_before == 1000.0
        assert service.poll("vm0") == [event]
        assert service.poll("other") == []

    def test_freeze_over_bound_rejected(self):
        service = ScheduledEventsService()
        with pytest.raises(OrchestratorError, match="maintenance bound"):
            service.post("vm0", EventType.FREEZE, now=0.0,
                         expected_duration_s=AZURE_MAINTENANCE_BOUND_S + 1)

    def test_redeploy_may_exceed_bound(self):
        # Migrations take minutes but the VM barely pauses.
        service = ScheduledEventsService()
        event = service.post("vm0", EventType.REDEPLOY, now=0.0,
                             expected_duration_s=120.0)
        assert event.event_type is EventType.REDEPLOY

    def test_cannot_start_before_notice(self):
        service = ScheduledEventsService(notice_s=900.0)
        event = service.post("vm0", EventType.FREEZE, now=0.0,
                             expected_duration_s=2.0)
        with pytest.raises(OrchestratorError, match="notice"):
            service.start(event.event_id, now=100.0)
        service.start(event.event_id, now=901.0)

    def test_ack_waives_notice(self):
        service = ScheduledEventsService(notice_s=900.0)
        event = service.post("vm0", EventType.FREEZE, now=0.0,
                             expected_duration_s=2.0)
        service.acknowledge(event.event_id)
        started = service.start(event.event_id, now=1.0, require_ack=True)
        assert started.state is EventState.STARTED

    def test_require_ack_enforced(self):
        service = ScheduledEventsService(notice_s=0.0)
        event = service.post("vm0", EventType.FREEZE, now=0.0,
                             expected_duration_s=2.0)
        with pytest.raises(OrchestratorError, match="not acknowledged"):
            service.start(event.event_id, now=10.0, require_ack=True)

    def test_lifecycle(self):
        service = ScheduledEventsService(notice_s=0.0)
        event = service.post("vm0", EventType.FREEZE, now=0.0,
                             expected_duration_s=2.0)
        service.start(event.event_id, now=0.0)
        service.complete(event.event_id)
        assert event.state is EventState.COMPLETED
        assert service.poll("vm0") == []
        with pytest.raises(OrchestratorError):
            service.complete(event.event_id)

    def test_cancel(self):
        service = ScheduledEventsService(notice_s=0.0)
        event = service.post("vm0", EventType.FREEZE, now=0.0,
                             expected_duration_s=2.0)
        service.cancel(event.event_id)
        assert event.state is EventState.CANCELLED
        with pytest.raises(OrchestratorError):
            service.start(event.event_id, now=0.0)

    def test_history(self):
        service = ScheduledEventsService(notice_s=0.0)
        service.post("vm0", EventType.FREEZE, 0.0, 1.0)
        service.post("vm1", EventType.REDEPLOY, 0.0, 60.0)
        assert len(service.history()) == 2
        assert len(service.history("vm0")) == 1
