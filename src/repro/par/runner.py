"""High-level parallel runner and the one-run entrypoints.

:class:`ParallelRunner` is the convenience layer the benchmark sweeps
use: map a module-level function over payloads, get results back in
submission order, keep the pool's operational stats for the artifact's
``meta`` block.

:func:`fleet_campaign_task` runs one complete fleet campaign, built
*inside* the executing process from a plain config payload (never
shipped live objects), and returns plain data: the metrics document,
the Chrome-trace text and a registry snapshot.  Because the campaign is
seeded and every serialization is deterministic, the same payload
produces the same results inline, in a worker, or inline again after
its worker crashed.  It is the only code that turns a payload into a
``FleetController`` — plain, traced, metered, journaled or resumed — as
:func:`sentinel_task` is for a ``Sentinel``.
``hypertp fleet`` and ``hypertp sentinel`` call them in-process through
:func:`run_fleet_campaign` and :func:`run_sentinel`.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.par.pool import PoolStats, Task, WorkerPool, func_ref


class ParallelRunner:
    """Order-preserving parallel map over module-level task functions."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.stats = PoolStats()

    def map_tasks(self, fn: Union[str, Callable], payloads: Sequence[Any],
                  labels: Optional[Sequence[str]] = None) -> List[Any]:
        """Run ``fn(payload)`` for every payload; results keep input order."""
        ref = func_ref(fn)
        if labels is not None and len(labels) != len(payloads):
            from repro.errors import ParError

            raise ParError(
                f"got {len(labels)} labels for {len(payloads)} payloads"
            )
        tasks = [
            Task(func=ref, payload=payload,
                 label=labels[index] if labels else f"{ref}#{index}")
            for index, payload in enumerate(payloads)
        ]
        pool = WorkerPool(workers=self.workers)
        try:
            return pool.run(tasks)
        finally:
            self.stats = pool.stats


# -- one campaign, one replay -------------------------------------------------


def fleet_campaign_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one seeded fleet campaign and return plain-dict results.

    ``payload`` keys:

    * ``config`` — :class:`~repro.fleet.controller.FleetConfig` kwargs;
    * ``fail_rate`` — failure-injection probability (default 0.0);
    * ``injector_seed`` — injector RNG seed (default: the config seed);
    * ``max_retries`` — per-host retry budget (default: policy default);
    * ``trace`` — return the campaign's Chrome-trace JSON text;
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
    the process boundary.  The trace and the metrics snapshot are built
    from the finished campaign (:meth:`FleetController.timeline`,
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
        result["trace"] = controller.timeline().to_chrome_trace()
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
    * ``trace`` — return the response-plane Chrome-trace JSON text;
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
    from repro.sentinel import Sentinel, SentinelConfig

    config = SentinelConfig.from_payload(payload.get("config", {}))
    journal_dir = payload.get("journal_dir")
    if journal_dir:
        import os

        from repro.errors import JournalError

        try:
            os.makedirs(journal_dir, exist_ok=True)
        except OSError as exc:
            raise JournalError(f"cannot create journal directory "
                               f"{journal_dir}: {exc}") from exc
    sentinel = Sentinel(config, journal_dir=journal_dir or None)
    report = sentinel.run()

    result: Dict[str, Any] = {"document": report.to_dict()}
    if payload.get("trace"):
        result["trace"] = sentinel.timeline().to_chrome_trace()
    if payload.get("metrics"):
        from repro.obs import MetricsRegistry

        registry = report.report_into(MetricsRegistry())
        for journal in sentinel.journals:
            journal.report_into(registry)
        result["registry"] = registry.snapshot()
    return result


def run_sentinel(payload: Dict[str, Any], workers: int = 1) -> Dict[str, Any]:
    """One sentinel replay: :func:`sentinel_task` through the pool.

    Mirrors :func:`run_fleet_campaign`; ``hypertp sentinel`` calls it at
    ``workers=1``.
    """
    runner = ParallelRunner(workers=workers)
    return runner.map_tasks(sentinel_task, [payload],
                            labels=["sentinel"])[0]


def run_fleet_campaign(payload: Dict[str, Any],
                       workers: int = 1) -> Dict[str, Any]:
    """One campaign: :func:`fleet_campaign_task` through the pool.

    ``hypertp fleet`` calls it at ``workers=1``, which runs the campaign
    in the calling process.  With more, the single task takes the full
    round trip (payload pickled out, campaign in a spawned interpreter,
    result pickled back) and must return byte-identical results: the
    contract the parallel sweeps rely on.
    """
    runner = ParallelRunner(workers=workers)
    return runner.map_tasks(fleet_campaign_task, [payload],
                            labels=["fleet-campaign"])[0]
