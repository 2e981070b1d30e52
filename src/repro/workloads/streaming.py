"""Video-streaming server model (the §5.4 cluster mix's third member).

A streaming server pushes segments to clients that each hold a playback
buffer.  Short interruptions (InPlaceTP's seconds of downtime) are absorbed
by the buffer — clients keep playing; only when an outage outlasts the
buffer do rebuffering events appear.  This captures why the paper can put
streaming VMs through transplants at all: the client-side buffer is the
tolerance budget.
"""

from dataclasses import dataclass
from repro.errors import ReproError
from repro.hypervisors.base import HypervisorKind
from repro.workloads.base import HostTimeline, Workload

DEFAULT_BITRATE_MBPS = 8.0
DEFAULT_BUFFER_S = 12.0


@dataclass
class StreamingClientStats:
    """One client's experience over a run."""

    rebuffer_events: int
    rebuffer_seconds: float
    played_seconds: float

    @property
    def rebuffer_ratio(self) -> float:
        total = self.played_seconds + self.rebuffer_seconds
        return self.rebuffer_seconds / total if total else 0.0


class StreamingWorkload(Workload):
    """Segment throughput plus a client-buffer playback model."""

    metric_name = "streaming-throughput"
    metric_unit = "Mbit/s"
    network_dependent = True

    def __init__(self, clients: int = 20,
                 bitrate_mbps: float = DEFAULT_BITRATE_MBPS,
                 buffer_s: float = DEFAULT_BUFFER_S,
                 seed: int = 0, noise: float = 0.02):
        super().__init__(seed=seed, noise=noise)
        if clients < 1:
            raise ReproError("need at least one streaming client")
        if buffer_s <= 0 or bitrate_mbps <= 0:
            raise ReproError("buffer and bitrate must be positive")
        self.clients = clients
        self.bitrate_mbps = bitrate_mbps
        self.buffer_s = buffer_s

    def baseline(self, kind: HypervisorKind) -> float:
        # Serving is I/O-bound; hypervisor choice barely moves throughput.
        scale = 1.03 if kind is HypervisorKind.KVM else 1.0
        return self.clients * self.bitrate_mbps * scale

    def playback(self, duration_s: float, timeline: HostTimeline,
                 step_s: float = 0.1) -> StreamingClientStats:
        """Simulate one client's buffer through the timeline.

        The buffer fills at 1 s of content per served second (server keeps
        ahead) and drains during outages; hitting empty is a rebuffer event
        that lasts until service returns.
        """
        buffer_level = self.buffer_s
        rebuffering = False
        events = 0
        stalled = 0.0
        played = 0.0
        t = 0.0
        while t < duration_s:
            serving = not (timeline.is_paused(t)
                           or timeline.is_network_down(t))
            if serving:
                refill = step_s * (2.0 if buffer_level < self.buffer_s
                                   else 0.0)
                buffer_level = min(self.buffer_s,
                                   buffer_level + refill)
                if rebuffering and buffer_level > 1.0:
                    rebuffering = False  # resume after modest refill
            if rebuffering:
                stalled += step_s
            elif buffer_level > 0:
                buffer_level = max(0.0, buffer_level - step_s)
                played += step_s
                if buffer_level == 0.0 and not serving:
                    rebuffering = True
                    events += 1
            t += step_s
        return StreamingClientStats(
            rebuffer_events=events,
            rebuffer_seconds=stalled,
            played_seconds=played,
        )
