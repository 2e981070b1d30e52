"""Deterministic shard seeds and the span payloads that cross the pipe.

* **Seed derivation** — every shard's randomness comes from
  :func:`derive_seed`, a pure function of the root seed and the shard's
  stable identity (never of worker index, pid or scheduling).  Shard 3
  draws the same random stream whether it runs first, last, inline or in
  a subprocess.

* **Span payloads** — a worker returns its run's timeline as plain dicts
  (:func:`spans_to_payload`), never as live objects, and the caller
  rebuilds the :class:`~repro.obs.Trace` from them
  (:func:`trace_from_payload`).  The exporter assigns pids/tids from
  sorted track names, so the rebuilt trace exports to the same bytes as
  the run's own.
"""

import hashlib
from typing import Dict, Iterable, List

from repro.obs.trace import Span, Trace


def derive_seed(root_seed: int, *parts) -> int:
    """A shard's seed: a pure hash of the root seed and its identity.

    ``parts`` name the shard (e.g. ``("fleet_window", 1000, 0.01)``);
    the result is a 63-bit integer stable across processes, platforms
    and Python hash randomization.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


# -- trace spans --------------------------------------------------------------


def span_to_payload(span: Span) -> Dict[str, object]:
    """A span as plain picklable data for the worker pipe."""
    return {
        "name": span.name,
        "category": span.category,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "track": span.track,
        "args": dict(span.args) if span.args else None,
    }


def span_from_payload(payload: Dict[str, object]) -> Span:
    return Span(
        name=payload["name"],
        category=payload["category"],
        start_s=payload["start_s"],
        end_s=payload["end_s"],
        track=payload.get("track", "host"),
        args=payload.get("args"),
    )


def spans_to_payload(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Serialize a trace (or any span iterable) for the worker pipe."""
    return [span_to_payload(span) for span in spans]


def trace_from_payload(payloads: Iterable[Dict[str, object]]) -> Trace:
    """Rebuild one run's trace from its span payloads, verbatim."""
    trace = Trace()
    for payload in payloads:
        trace.add(span_from_payload(payload))
    return trace
