"""``repro.par`` — deterministic multi-process execution.

Fleet campaigns and benchmark sweeps are embarrassingly parallel (every
cell is an independent seeded simulation), but parallelism is only
admissible here if it is *invisible in the output*: the artifact must
be byte-identical for any worker count and any completion order, and
``workers=1`` must be exactly the serial path.  The subsystem:

* :mod:`pool` — spawn-based :class:`WorkerPool` whose task/result
  protocol rides the :mod:`repro.io` frame codec over pipes, with
  per-task timeouts, crash detection, bounded retry and inline fallback;
* :mod:`shard` — :func:`derive_seed` (stable per-shard seeds) and the
  plain-dict span payloads a run's trace crosses the pipe as;
* :mod:`runner` — :class:`ParallelRunner` (order-preserving map) and the
  fleet-campaign worker entrypoint;
* :mod:`realtime` — the subsystem's one audited wall-clock boundary.

See ``docs/parallelism.md`` for the protocol and the determinism
contract, and the ``par-entrypoint-hygiene`` / ``par-payload-hygiene``
lint rules for the statically-enforced parts.
"""

import importlib

# Lazy re-exports (PEP 562): the worker boot command imports
# ``repro.par.pool`` through this package; pulling :mod:`runner` and
# :mod:`shard` (and their repro.obs dependencies) eagerly would tax
# every worker spawn.  Attributes resolve on first access.
_EXPORTS = {
    "TASK_FRAME": "repro.par.pool",
    "RESULT_FRAME": "repro.par.pool",
    "ERROR_FRAME": "repro.par.pool",
    "Task": "repro.par.pool",
    "PoolStats": "repro.par.pool",
    "WorkerPool": "repro.par.pool",
    "func_ref": "repro.par.pool",
    "resolve_ref": "repro.par.pool",
    "check_payload": "repro.par.pool",
    "worker_main": "repro.par.pool",
    "ParallelRunner": "repro.par.runner",
    "fleet_campaign_task": "repro.par.runner",
    "run_fleet_campaign": "repro.par.runner",
    "sentinel_task": "repro.par.runner",
    "run_sentinel": "repro.par.runner",
    "derive_seed": "repro.par.shard",
    "span_to_payload": "repro.par.shard",
    "span_from_payload": "repro.par.shard",
    "spans_to_payload": "repro.par.shard",
    "trace_from_payload": "repro.par.shard",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "TASK_FRAME",
    "RESULT_FRAME",
    "ERROR_FRAME",
    "Task",
    "PoolStats",
    "WorkerPool",
    "func_ref",
    "resolve_ref",
    "check_payload",
    "worker_main",
    "ParallelRunner",
    "fleet_campaign_task",
    "run_fleet_campaign",
    "sentinel_task",
    "run_sentinel",
    "derive_seed",
    "span_to_payload",
    "span_from_payload",
    "spans_to_payload",
    "trace_from_payload",
]
