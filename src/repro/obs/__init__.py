"""Unified observability layer: traces and metrics for every subsystem.

The paper's claims are all *windows measured on a timeline* — Fig. 6 phase
breakdowns, Fig. 11/12 workload dips, the fleet disclosure->remediated
window — so the reproduction gets one first-class observability layer:

* :mod:`trace` — the :class:`Span`/:class:`Trace` data model and the
  Perfetto/Chrome trace-event exporter (stable integer pids/tids,
  ``process_name``/``thread_name`` metadata, deterministic bytes);
* :mod:`builders` — the one way a timeline is made: pure builders that
  turn a finished run's records into a :class:`Trace` —
  :func:`trace_inplace` and :func:`trace_migration` from reports,
  :func:`trace_fleet` from a campaign's transition log,
  :func:`trace_sentinel` from a feed replay's CVE and campaign records;
* :mod:`metrics` — :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  instruments in a :class:`MetricsRegistry` with deterministic sorted-key
  JSON snapshots.

A run never records spans or metrics as it goes: it keeps its numbers,
and a trace or a metrics snapshot is built from them after the run, only
when one is asked for.

``repro.obs`` is the only module allowed to format trace timestamps — a
``repro lint`` rule (``trace-format-hygiene``) enforces it.
"""

from repro.obs.builders import (
    trace_fleet,
    trace_inplace,
    trace_migration,
    trace_sentinel,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Trace

__all__ = [
    "Span",
    "Trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "trace_inplace",
    "trace_migration",
    "trace_fleet",
    "trace_sentinel",
]
