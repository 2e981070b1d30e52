"""``repro.par`` — deterministic multi-process execution.

Benchmark sweeps are embarrassingly parallel (every cell is an
independent seeded simulation), but parallelism is only admissible here
if it is *invisible in the output*: the artifact must be byte-identical
for any worker count and any completion order, and ``workers=1`` must be
exactly the serial path.  The subsystem:

* :mod:`pool` — :class:`WorkerPool`, the standard library's process pool
  on a ``spawn`` context, with a per-task deadline and inline fallback
  when the pool breaks;
* :mod:`shard` — :func:`derive_seed` (stable per-shard seeds);
* :mod:`runner` — :class:`ParallelRunner` (order-preserving map) and the
  one-campaign / one-replay entrypoints that ``hypertp fleet`` and
  ``hypertp sentinel`` run in-process.

See ``docs/parallelism.md`` for the pool and the determinism
contract, and the ``par-entrypoint-hygiene`` / ``par-payload-hygiene``
lint rules for the statically-enforced parts.
"""

import importlib

# Lazy re-exports (PEP 562): a worker imports ``repro.par.pool`` through
# this package; pulling :mod:`runner` and :mod:`shard` eagerly would tax
# every worker spawn.  Attributes resolve on first access.
_EXPORTS = {
    "Task": "repro.par.pool",
    "PoolStats": "repro.par.pool",
    "WorkerPool": "repro.par.pool",
    "func_ref": "repro.par.pool",
    "resolve_ref": "repro.par.pool",
    "check_payload": "repro.par.pool",
    "ParallelRunner": "repro.par.runner",
    "fleet_campaign_task": "repro.par.runner",
    "run_fleet_campaign": "repro.par.runner",
    "sentinel_task": "repro.par.runner",
    "run_sentinel": "repro.par.runner",
    "derive_seed": "repro.par.shard",
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
    "Task",
    "PoolStats",
    "WorkerPool",
    "func_ref",
    "resolve_ref",
    "check_payload",
    "ParallelRunner",
    "fleet_campaign_task",
    "run_fleet_campaign",
    "sentinel_task",
    "run_sentinel",
    "derive_seed",
]
