"""Rendering and artifact plumbing for the benchmark harness.

Every ``benchmarks/bench_*`` file prints the rows or series the paper's
corresponding table/figure reports, via these helpers, so the regenerated
artifacts are easy to eyeball against the original.

JSON artifacts use the wrapper produced by :func:`bench_document`: the
deterministic **payload** (same seed, same bytes, no matter how the run
was executed) is separated from the volatile **meta** block (wall-clock
timings, worker count, host environment).  CI compares parallel and
serial runs with ``python -m repro.bench.report cmp a.json b.json``,
which byte-compares only the payload and merely reports the meta; when
the payloads differ it lists each differing field's JSON path and both
values.
"""

import json
import os
import platform
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_ARTIFACT_FORMAT = "hypertp-bench-artifact"
BENCH_ARTIFACT_VERSION = 1


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[float], ys: Sequence[float],
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render a (figure) series as aligned x/y columns."""
    rows = [(x, y) for x, y in zip(xs, ys)]
    return format_table([x_label, y_label], rows, title=name)


def print_experiment(exp_id: str, description: str, body: str) -> None:
    """Uniform experiment banner + body used by every bench file."""
    banner = f"=== {exp_id}: {description} ==="
    print()
    print(banner)
    print(body)
    print("=" * len(banner))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


# -- JSON artifacts -----------------------------------------------------------


def host_env() -> Dict[str, object]:
    """Volatile host identification for an artifact's meta block."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def bench_document(payload: Dict, meta: Optional[Dict] = None) -> Dict:
    """Wrap a deterministic payload with a volatile meta block.

    ``payload`` holds everything that must be byte-identical across runs
    of the same seed (results, sweeps, configs); ``meta`` holds what is
    allowed to differ (wall-clock seconds, ``workers``, ``host_env``,
    pool stats).  Comparison tooling looks only at the payload.
    """
    meta = dict(meta or {})
    meta.setdefault("host_env", host_env())
    meta.setdefault("workers", 1)
    return {
        "format": BENCH_ARTIFACT_FORMAT,
        "version": BENCH_ARTIFACT_VERSION,
        "meta": meta,
        "payload": payload,
    }


def payload_json(document: Dict) -> str:
    """The byte-comparable serialization of an artifact's payload."""
    if document.get("format") != BENCH_ARTIFACT_FORMAT:
        raise ValueError(
            f"not a bench artifact: format "
            f"{document.get('format')!r}, want {BENCH_ARTIFACT_FORMAT!r}"
        )
    return json.dumps(document["payload"], indent=2, sort_keys=True)


def payloads_equal(a: Dict, b: Dict) -> bool:
    """True when two artifacts' deterministic payloads are byte-identical."""
    return payload_json(a) == payload_json(b)


#: stands in for the side of a diff that lacks a dict key or list element
_MISSING = object()


def _payload_diffs(a, b, path: str = "payload"
                   ) -> List[Tuple[str, object, object]]:
    """``(json path, value in a, value in b)`` for every differing leaf,
    dict keys in sorted order and list elements in index order.  A side
    that lacks the path holds ``_MISSING``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [diff for key in sorted(set(a) | set(b))
                for diff in _payload_diffs(a.get(key, _MISSING),
                                           b.get(key, _MISSING),
                                           _child_path(path, key))]
    if isinstance(a, list) and isinstance(b, list):
        return [diff for index in range(max(len(a), len(b)))
                for diff in _payload_diffs(
                    a[index] if index < len(a) else _MISSING,
                    b[index] if index < len(b) else _MISSING,
                    f"{path}[{index}]")]
    if _render_leaf(a) == _render_leaf(b):
        return []
    return [(path, a, b)]


def _child_path(path: str, key: str) -> str:
    return f"{path}.{key}" if key.isidentifier() \
        else f"{path}[{json.dumps(key)}]"


def _render_leaf(value) -> str:
    if value is _MISSING:
        return "(missing)"
    return json.dumps(value, sort_keys=True)


def write_bench_json(path: str, payload: Dict,
                     meta: Optional[Dict] = None) -> Dict:
    """Write a wrapped artifact; returns the document written."""
    document = bench_document(payload, meta)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def read_bench_json(path: str) -> Dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != BENCH_ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a bench artifact (format "
            f"{document.get('format')!r})"
        )
    return document


def _cmd_cmp(args) -> int:
    """``python -m repro.bench.report cmp A B`` — payload-aware compare."""
    try:
        a = read_bench_json(args.a)
        b = read_bench_json(args.b)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"cmp: {error}", file=sys.stderr)
        return 2
    if payloads_equal(a, b):
        meta_a, meta_b = a.get("meta", {}), b.get("meta", {})
        print(f"payloads identical "
              f"(workers {meta_a.get('workers')} vs {meta_b.get('workers')}, "
              f"wall {meta_a.get('wall_s', '?')} vs "
              f"{meta_b.get('wall_s', '?')} s)")
        return 0
    print(f"cmp: payloads differ between {args.a} and {args.b}",
          file=sys.stderr)
    for path, left, right in _payload_diffs(a["payload"], b["payload"]):
        print(f"  {path}: {_render_leaf(left)} vs {_render_leaf(right)}",
              file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.report",
        description="benchmark artifact tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_parser = sub.add_parser(
        "cmp",
        help="compare two bench artifacts' deterministic payloads "
             "(meta blocks are reported, never compared)",
    )
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "cmp":
        return _cmd_cmp(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
