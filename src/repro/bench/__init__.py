"""Benchmark-harness utilities: experiment runners, table formatting, and
the deterministic-payload / volatile-meta JSON artifact wrapper."""

import importlib

# Lazy re-exports (PEP 562): keeps ``python -m repro.bench.report`` from
# re-executing :mod:`report` after this package already imported it, and
# keeps worker spawns from paying for :mod:`runner`'s simulation imports.
_EXPORTS = {
    "BENCH_ARTIFACT_FORMAT": "repro.bench.report",
    "bench_document": "repro.bench.report",
    "format_series": "repro.bench.report",
    "format_table": "repro.bench.report",
    "host_env": "repro.bench.report",
    "payload_json": "repro.bench.report",
    "payloads_equal": "repro.bench.report",
    "print_experiment": "repro.bench.report",
    "read_bench_json": "repro.bench.report",
    "write_bench_json": "repro.bench.report",
    "inplace_breakdown": "repro.bench.runner",
    "inplace_sweep": "repro.bench.runner",
    "make_host": "repro.bench.runner",
    "make_host_pair": "repro.bench.runner",
    "migrate_once": "repro.bench.runner",
    "migration_sweep": "repro.bench.runner",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
