"""High-level parallel runner and the fleet-campaign worker entrypoint.

:class:`ParallelRunner` is the convenience layer the benchmarks and the
CLI use: map a module-level function over payloads, get results back in
submission order, keep the pool's operational stats for the artifact's
``meta`` block.

:func:`fleet_campaign_task` is the canonical worker entrypoint — one
complete fleet campaign per task, built *inside* the worker from a plain
config payload (never shipped live objects), returning plain dicts: the
metrics document, span payloads and a registry snapshot.  Because the
campaign is seeded and the document serialization is deterministic, the
same payload produces the same dicts inline, in a worker, or in a worker
that crashed twice and was retried.  It is the only code that turns a
payload into a ``FleetController`` — plain, traced, metered, journaled
or resumed — as :func:`sentinel_task` is for a ``Sentinel``.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.par.pool import PoolStats, Task, WorkerPool, func_ref


class ParallelRunner:
    """Order-preserving parallel map over module-level task functions."""

    def __init__(self, workers: int = 1, task_timeout_s: float = 300.0,
                 max_retries: int = 1, backoff_base_s: float = 0.05):
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.stats = PoolStats()

    def map_tasks(self, fn: Union[str, Callable], payloads: Sequence[Any],
                  labels: Optional[Sequence[str]] = None,
                  timeout_s: Optional[float] = None) -> List[Any]:
        """Run ``fn(payload)`` for every payload; results keep input order."""
        ref = func_ref(fn)
        if labels is not None and len(labels) != len(payloads):
            from repro.errors import ParError

            raise ParError(
                f"got {len(labels)} labels for {len(payloads)} payloads"
            )
        tasks = [
            Task(func=ref, payload=payload,
                 label=labels[index] if labels else f"{ref}#{index}",
                 timeout_s=timeout_s)
            for index, payload in enumerate(payloads)
        ]
        pool = WorkerPool(
            workers=self.workers,
            task_timeout_s=self.task_timeout_s,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
        )
        try:
            return pool.run(tasks)
        finally:
            self.stats = pool.stats


# -- the fleet campaign as a worker entrypoint --------------------------------


def fleet_campaign_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one seeded fleet campaign and return plain-dict results.

    ``payload`` keys:

    * ``config`` — :class:`~repro.fleet.controller.FleetConfig` kwargs;
    * ``fail_rate`` — failure-injection probability (default 0.0);
    * ``injector_seed`` — injector RNG seed (default: the config seed);
    * ``max_retries`` — per-host retry budget (default: policy default);
    * ``trace`` — return the campaign's timeline as span payloads;
    * ``metrics`` — return the finished campaign's metrics-registry
      snapshot;
    * ``journal`` — write-ahead journal the campaign to this path;
    * ``resume`` — recover the campaign journaled at this path and run it
      to completion; the journal's CAMPAIGN_META stands in for the four
      keys above;
    * ``crash_after`` — fault injection with ``journal``/``resume``: raise
      :class:`~repro.errors.JournalCrash` right after that many records.

    Everything live — clock, engine, journal — is constructed here,
    inside the executing process; only seeds, paths and plain data cross
    the pipe.  The trace and the metrics snapshot are built from the
    finished campaign (:meth:`FleetController.timeline`,
    :meth:`FleetMetrics.report_into`); a journaled or resumed run's
    snapshot also carries the journal's ``journal_*`` counters.  The
    returned ``document`` is exactly ``FleetMetrics.to_dict()``, so
    serial and parallel runs serialize to identical bytes.  A resumed run
    also returns ``resumed``: the records it verified, the torn tail it
    discarded, and the journaled ``config`` and ``fail_rate``.
    """
    from repro.fleet import (
        FailureInjector,
        FleetConfig,
        FleetController,
        RetryPolicy,
    )
    from repro.par.shard import spans_to_payload

    resumed = None
    if payload.get("resume"):
        from repro.journal import recover

        controller, journal = recover(payload["resume"],
                                      crash_after=payload.get("crash_after"))
        resumed = {
            "replayed": journal.pending_replay,
            "torn_bytes": journal.torn_bytes,
            "torn_error": journal.torn_error,
            "config": journal.meta["config"],
            "fail_rate": max(journal.meta["failures"]["rates"].values(),
                             default=0.0),
        }
    else:
        config = FleetConfig(**payload.get("config", {}))
        injector = FailureInjector(
            payload.get("fail_rate", 0.0),
            seed=payload.get("injector_seed", config.seed),
        )
        if payload.get("max_retries") is not None:
            retry = RetryPolicy(max_retries=payload["max_retries"])
        else:
            retry = RetryPolicy()
        journal = None
        if payload.get("journal"):
            from repro.journal import CampaignJournal, campaign_meta

            journal = CampaignJournal.create(
                payload["journal"], campaign_meta(config, injector, retry),
                crash_after=payload.get("crash_after"),
            )
        controller = FleetController(config, injector=injector, retry=retry,
                                     journal=journal)
    metrics = controller.run()

    result: Dict[str, Any] = {"document": metrics.to_dict()}
    # Sorted plain dicts: serializes identically from any worker.
    result["mechanism_mix"] = controller.mechanism_mix()
    if payload.get("trace"):
        result["spans"] = spans_to_payload(controller.timeline())
    if payload.get("metrics"):
        from repro.obs import MetricsRegistry

        registry = metrics.report_into(MetricsRegistry())
        if journal is not None:
            journal.report_into(registry)
        result["registry"] = registry.snapshot()
    if resumed is not None:
        result["resumed"] = resumed
    return result


def sentinel_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one seeded sentinel feed replay and return plain-dict results.

    ``payload`` keys:

    * ``config`` — :class:`~repro.sentinel.responder.SentinelConfig`
      payload (the ``to_payload`` shape: nested ``feed``/``policy``
      dicts, a plain-list pool);
    * ``trace`` — collect response-plane spans and return them as
      payloads;
    * ``metrics`` — return the finished replay's metrics-registry
      snapshot, with the ``journal_*`` counters summed over every
      campaign journal under ``journal_dir``;
    * ``journal_dir`` — write-ahead journal every launched campaign into
      this directory (created if missing).

    Same discipline as :func:`fleet_campaign_task`: clock and engine are
    built here, in the executing process, and the trace and metrics
    snapshot from the finished run (:meth:`Sentinel.timeline`,
    :meth:`SentinelReport.report_into`); the returned ``document`` is
    exactly ``SentinelReport.to_dict()``, so serial and parallel runs
    serialize to identical bytes.
    """
    from repro.par.shard import spans_to_payload
    from repro.sentinel import Sentinel, SentinelConfig

    config = SentinelConfig.from_payload(payload.get("config", {}))
    journal_dir = payload.get("journal_dir")
    if journal_dir:
        import os

        os.makedirs(journal_dir, exist_ok=True)
    sentinel = Sentinel(config, journal_dir=journal_dir or None)
    report = sentinel.run()

    result: Dict[str, Any] = {"document": report.to_dict()}
    if payload.get("trace"):
        result["spans"] = spans_to_payload(sentinel.timeline())
    if payload.get("metrics"):
        from repro.obs import MetricsRegistry

        registry = report.report_into(MetricsRegistry())
        for journal in sentinel.journals:
            journal.report_into(registry)
        result["registry"] = registry.snapshot()
    return result


def run_sentinel(payload: Dict[str, Any], workers: int = 1,
                 task_timeout_s: float = 600.0) -> Dict[str, Any]:
    """One sentinel replay, optionally routed through the worker pool.

    Mirrors :func:`run_fleet_campaign`: ``workers <= 1`` runs inline;
    more routes the single task through a subprocess, and the output
    must be byte-identical either way.
    """
    runner = ParallelRunner(workers=workers, task_timeout_s=task_timeout_s)
    return runner.map_tasks(sentinel_task, [payload],
                            labels=["sentinel"])[0]


def run_fleet_campaign(payload: Dict[str, Any], workers: int = 1,
                       task_timeout_s: float = 600.0) -> Dict[str, Any]:
    """One campaign, optionally routed through the worker pool.

    With ``workers <= 1`` the campaign runs inline — the serial path.
    With more, the single task takes the full subprocess round trip
    (frames out, campaign in a fresh interpreter, frames back), which is
    the determinism contract the CLI's ``--workers`` flag exposes: the
    output must be byte-identical either way.
    """
    runner = ParallelRunner(workers=workers, task_timeout_s=task_timeout_s)
    return runner.map_tasks(fleet_campaign_task, [payload],
                            labels=["fleet-campaign"])[0]
