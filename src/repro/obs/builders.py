"""Span-timeline builders for report and transition-log objects.

Builders turn finished result objects — an :class:`InPlaceReport`, a
:class:`MigrationReport`, a fleet transition log, a sentinel run's CVE
and campaign records — into :class:`Trace` objects after the fact.  They
are the only way a timeline is made: a run records its numbers, and a
trace is built from them only when one is asked for, so an untraced run
pays nothing.
"""

from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Span, Trace


def trace_inplace(report, start_s: float = 0.0) -> Trace:
    """Build the span timeline of one InPlaceTP run from its report.

    Matches the run's phase ordering: device prepare and PRAM (pre-pause),
    then the downtime window (Translation -> Reboot -> Restoration), with
    the NIC re-init overlapping restoration on its own track.  The device
    prepare span appears only when quiescing devices took time.  When
    PRAM ran inside the pause (``report.pram_in_pause``, the
    no-prepare-ahead ablation), the pause starts before PRAM and PRAM is
    a downtime span, so ``VMs paused`` lasts ``report.downtime_s``.
    """
    trace = Trace()
    t = start_s
    if report.device_prepare_s > 0:
        trace.add(Span("Device prepare", "prepare",
                       t, t + report.device_prepare_s, track=report.machine))
        t += report.device_prepare_s
    pause_start = t
    trace.add(Span("PRAM", "downtime" if report.pram_in_pause else "prepare",
                   t, t + report.pram_s, track=report.machine))
    t += report.pram_s
    if not report.pram_in_pause:
        pause_start = t
    trace.add(Span("Translation", "downtime", t, t + report.translation_s,
                   track=report.machine))
    t += report.translation_s
    trace.add(Span("Reboot", "downtime", t, t + report.reboot_s,
                   track=report.machine,
                   args={"target": report.target}))
    t += report.reboot_s
    trace.add(Span("NIC re-init", "network", t, t + report.network_s,
                   track=f"{report.machine}/nic"))
    trace.add(Span("Restoration", "downtime", t, t + report.restoration_s,
                   track=report.machine))
    t += report.restoration_s
    trace.add(Span("VMs paused", "guest", pause_start, t,
                   track=f"{report.machine}/guests",
                   args={"vm_count": report.vm_count}))
    return trace


def trace_migration(report, start_s: float = 0.0) -> Trace:
    """Build the span timeline of one migration from its report.

    An outer span covers the whole migration; the pre-copy rounds start
    once the connection is set up (``precopy_s`` less the rounds), and
    the stop-and-copy starts when pre-copy ends.
    """
    trace = Trace()
    track = report.vm_name
    flavor = "MigrationTP" if report.heterogeneous else "live migration"
    trace.add(Span(f"{flavor} {track}", "migration",
                   start_s, start_s + report.total_s, track=track,
                   args={"source": report.source,
                         "destination": report.destination}))
    rounds_s = sum(r.duration_s for r in report.rounds)
    t = start_s + (report.precopy_s - rounds_s)
    for round_ in report.rounds:
        trace.add(Span(f"pre-copy round {round_.index}", "precopy",
                       t, t + round_.duration_s, track=track,
                       args={"bytes": round_.bytes_sent}))
        t += round_.duration_s
    pause_s = start_s + report.precopy_s
    trace.add(Span("stop-and-copy", "downtime",
                   pause_s, pause_s + report.downtime_s, track=track))
    return trace


def trace_sentinel(cve_states, campaigns, *, end_s: float) -> Trace:
    """Build the response-plane timeline of one sentinel run.

    ``cve_states`` are objects with ``cve_id``, ``disclosed_at_s``,
    ``remediated_at_s``, ``closed_at_s``, ``severity`` and ``remediation``
    attributes (the shape of :class:`repro.sentinel.responder.CVEState`),
    in sorted-id order; ``campaigns`` have ``index``, ``kind``,
    ``source``, ``target``, ``launched_at_s``, ``completed_at_s`` and
    ``preempted_at_s`` (:class:`repro.sentinel.responder.CampaignRecord`).
    One track per CVE carries its open-exposure window; one track per
    campaign carries its execution span, all under a run envelope on the
    ``sentinel`` track.
    """
    trace = Trace()
    trace.add(Span("feed replay", "sentinel", 0.0, end_s, track="sentinel"))
    for state in cve_states:
        until = state.remediated_at_s
        if until is None:
            until = state.closed_at_s if state.closed_at_s is not None \
                else end_s
        trace.add(Span(
            state.cve_id, "cve-window", state.disclosed_at_s, until,
            track=f"cve/{state.cve_id}",
            args={"severity": state.severity,
                  "remediation": state.remediation},
        ))
    for campaign in campaigns:
        if campaign.launched_at_s is None:
            continue
        finished = campaign.completed_at_s
        if finished is None:
            finished = campaign.preempted_at_s \
                if campaign.preempted_at_s is not None else end_s
        args = {"source": campaign.source, "target": campaign.target}
        if campaign.preempted_at_s is not None:
            args["preempted"] = True
        trace.add(Span(
            f"{campaign.kind} {campaign.source}->{campaign.target}",
            "campaign", campaign.launched_at_s, finished,
            track=f"sentinel/campaign {campaign.index}",
            args=args,
        ))
    return trace


def trace_fleet(transitions, *, host_waves: Optional[Dict[str, int]] = None,
                start_s: float = 0.0, end_s: Optional[float] = None,
                campaign: str = "campaign") -> Trace:
    """Build one campaign timeline from a fleet transition log.

    ``transitions`` is an ordered sequence of objects with ``time_s``,
    ``host``, ``source`` and ``target`` attributes (``target.terminal``
    marks the end of a host's lifecycle) — the shape of
    :class:`repro.fleet.state.Transition`.  The result has one track per
    host carrying its state spans, each nested (by time containment)
    inside a per-host wave span, plus a ``fleet`` track with the campaign
    span and per-wave envelope spans.
    """
    trace = Trace()
    host_waves = host_waves or {}
    last: Dict[str, Tuple[float, object]] = {}
    lifetimes: Dict[str, List[float]] = {}
    for t in transitions:
        lifetimes.setdefault(t.host, [t.time_s, t.time_s])[1] = t.time_s
        prior = last.get(t.host)
        if prior is not None:
            since, state = prior
            trace.add(Span(state.value, "host-state", since, t.time_s,
                           track=t.host))
        reason = getattr(t, "reason", "")
        last[t.host] = (t.time_s, t.target)
        if t.target.terminal:
            trace.add(Span(t.target.value, "host-state", t.time_s, t.time_s,
                           track=t.host,
                           args={"reason": reason} if reason else None))
            del last[t.host]

    # Per-host wave envelopes: the state spans nest inside them.
    wave_windows: Dict[int, List[float]] = {}
    for host, (first, final) in sorted(lifetimes.items()):
        wave = host_waves.get(host)
        label = campaign if wave is None else f"wave {wave}"
        trace.add(Span(label, "wave", first, final, track=host,
                       args=None if wave is None else {"wave": wave}))
        if wave is not None:
            window = wave_windows.setdefault(wave, [first, final])
            window[0] = min(window[0], first)
            window[1] = max(window[1], final)

    # The fleet track: one campaign span over everything, one per wave.
    finished = end_s
    if finished is None:
        finished = max((w[1] for w in lifetimes.values()), default=start_s)
    trace.add(Span(campaign, "campaign", start_s, finished, track="fleet",
                   args={"hosts": len(lifetimes)}))
    for wave, (first, final) in sorted(wave_windows.items()):
        trace.add(Span(f"wave {wave}", "wave", first, final,
                       track=f"fleet/wave {wave}"))
    return trace
