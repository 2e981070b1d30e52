"""Worker pool for the sweeps, on the standard library's process pool.

``WorkerPool(workers).run(tasks)`` returns task results in submission
order.  ``workers=1`` runs every task inline in the calling process: that
*is* the serial path, and it imports neither ``multiprocessing`` nor
``concurrent.futures``.  More workers run the tasks on a
``ProcessPoolExecutor`` with a ``spawn`` context, so no simulation state
is inherited.  A worker that crashes or passes :data:`TASK_DEADLINE_S`
breaks the pool; every task without a result then runs inline, in
submission order, and ``PoolStats.failures`` names it.  Losing workers
gives the serial answer, only slower.

Entry points must be module-level functions (:func:`func_ref`; the
``par-entrypoint-hygiene`` lint rule) and payloads plain picklable data
with no live simulation objects inside (:func:`check_payload`;
``par-payload-hygiene``).
"""

import importlib
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.errors import ParError, ReproError

#: Seconds one task may run in a worker before SIGALRM ends the worker.
TASK_DEADLINE_S = 600.0

#: types that must never ride inside a task payload: they carry live
#: simulation state (clocks, engines) that cannot survive a process
#: boundary and would silently desynchronize the run.
_FORBIDDEN_PAYLOAD_TYPES = (
    ("repro.sim.clock", "SimClock"),
    ("repro.sim.engine", "Engine"),
)


@dataclass(frozen=True)
class Task:
    """One unit of work: a module-level entrypoint plus its payload."""

    func: str
    payload: Any = None
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or self.func


def func_ref(fn: Union[str, Callable]) -> str:
    """The importable ``"module:function"`` reference of an entrypoint.

    Worker processes import the function fresh, so only module-level
    functions qualify: lambdas, nested functions and bound methods are
    rejected here (and flagged statically by ``par-entrypoint-hygiene``).
    Functions defined in a ``__main__`` script resolve to the script's
    module name so workers can import it off ``sys.path``.
    """
    if isinstance(fn, str):
        module, sep, name = fn.partition(":")
        if not sep or not module or not name:
            raise ParError(f"bad entrypoint reference {fn!r}: want "
                           f"'module:function'")
        return fn
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not callable(fn) or qualname is None or module is None:
        raise ParError(f"entrypoint {fn!r} is not a referable function")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise ParError(f"entrypoint {qualname!r} is a lambda or nested "
                       f"function; workers import entrypoints by name, so "
                       f"they must be module-level")
    if "." in qualname:
        raise ParError(f"entrypoint {qualname!r} is a method; workers import "
                       f"entrypoints by name, so they must be module-level "
                       f"functions")
    if module == "__main__":
        main_file = getattr(sys.modules.get("__main__"), "__file__", None)
        if main_file is None:
            raise ParError(f"entrypoint {qualname!r} lives in an interactive "
                           f"__main__; move it into an importable module")
        directory = os.path.dirname(os.path.abspath(main_file))
        module = os.path.splitext(os.path.basename(main_file))[0]
        if directory not in sys.path:
            sys.path.insert(0, directory)
    return f"{module}:{qualname}"


def resolve_ref(ref: str) -> Callable:
    """Import and return the function a ``"module:function"`` ref names."""
    module_name, sep, func_name = ref.partition(":")
    if not sep:
        raise ParError(f"bad entrypoint reference {ref!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ParError(f"cannot import entrypoint module {module_name!r}: "
                       f"{exc}") from exc
    fn = getattr(module, func_name, None)
    if not callable(fn):
        raise ParError(f"entrypoint {ref!r} does not name a callable in "
                       f"{module_name!r}")
    return fn


def check_payload(payload: Any, _context: str = "payload") -> None:
    """Reject payloads that capture live simulation objects.

    Walks plain containers (dict/list/tuple/set); anything carrying a
    ``SimClock`` or ``Engine`` is refused — those objects hold
    per-process state (event queues, clock positions) that a spawn
    boundary would quietly reset, making the shard diverge from the
    serial run instead of failing loudly.
    """
    forbidden = tuple(getattr(sys.modules[module], name)
                      for module, name in _FORBIDDEN_PAYLOAD_TYPES
                      if module in sys.modules)
    if forbidden:
        _walk_payload(payload, forbidden, _context, depth=0)


def _walk_payload(value, forbidden, context, depth) -> None:
    if depth > 16:
        return
    if isinstance(value, forbidden):
        raise ParError(
            f"task {context} captures a live {type(value).__name__}; "
            f"workers must build their own clocks/tracers from seeds"
        )
    if isinstance(value, dict):
        for key, sub in value.items():
            _walk_payload(key, forbidden, context, depth + 1)
            _walk_payload(sub, forbidden, f"{context}[{key!r}]", depth + 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for index, sub in enumerate(value):
            _walk_payload(sub, forbidden, f"{context}[{index}]", depth + 1)


def _call_in_worker(ref: str, payload: Any, deadline_s: float):
    """One task in a worker: ``(None, value)`` or ``((text, error), None)``.

    Nothing in a worker handles SIGALRM, so the timer ends the worker once
    the task passes its deadline.  A task error comes back as its traceback
    text, plus the exception itself when it is a ``ReproError``."""
    import signal
    import traceback

    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        return None, resolve_ref(ref)(payload)
    except Exception as exc:
        error = exc if isinstance(exc, ReproError) else None
        return (traceback.format_exc(), error), None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class PoolStats:
    """Operational counters of one pool run (wall-clock-free)."""

    workers: int = 0
    tasks: int = 0
    results: int = 0
    #: ``"<task label or func>: <reason>"`` for every task that ran
    #: inline after the pool broke, in submission order
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class WorkerPool:
    """Fan tasks out to spawned workers; fall back inline if the pool breaks.

    ``run(tasks)`` returns the results in submission order, whichever
    worker finished first.  A task that raises is an answer, not a fault:
    a ``ReproError`` re-raises as itself, with a ``ParError`` naming the
    task as its cause; any other error becomes a ``ParError`` carrying the
    worker's traceback.  Tasks that have not started are cancelled.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ParError(f"need >= 1 worker, got {workers}")
        self.workers = workers
        self.stats = PoolStats()

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        tasks = list(tasks)
        self.stats = PoolStats(workers=self.workers, tasks=len(tasks))
        for task in tasks:
            check_payload(task.payload, _context=task.name)
        if self.workers <= 1 or not tasks:
            return [self._run_inline(task) for task in tasks]
        return self._run_pooled(tasks)

    def _run_inline(self, task: Task) -> Any:
        value = resolve_ref(task.func)(task.payload)
        self.stats.results += 1
        return value

    def _run_pooled(self, tasks: List[Task]) -> List[Any]:
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        for task in tasks:
            try:
                pickle.dumps(task.payload)
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                raise ParError(f"task {task.name} payload is not "
                               f"picklable: {exc}") from exc
        self.stats.workers = min(self.workers, len(tasks))
        results: Dict[int, Any] = {}
        executor = ProcessPoolExecutor(
            self.stats.workers,
            mp_context=multiprocessing.get_context("spawn"))
        try:
            futures = {}
            for index, task in enumerate(tasks):
                try:
                    futures[executor.submit(_call_in_worker, task.func,
                                            task.payload,
                                            TASK_DEADLINE_S)] = index
                except BrokenProcessPool:
                    break  # the rest runs inline below
            for future in as_completed(futures):
                task = tasks[futures[future]]
                try:
                    failure, value = future.result()
                except BrokenProcessPool:
                    continue
                except Exception as exc:  # e.g. an unpicklable result
                    raise ParError(f"task {task.name} failed in a worker: "
                                   f"{exc}") from exc
                if failure is not None:
                    text, error = failure
                    cause = ParError(
                        f"task {task.name} raised in a worker:\n{text}")
                    if error is not None:
                        raise error from cause
                    raise cause
                results[futures[future]] = value
                self.stats.results += 1
        finally:
            executor.shutdown(cancel_futures=True)
        # A worker crashed or passed its deadline: the tasks it took down
        # with the pool run on the serial path instead.
        for index, task in enumerate(tasks):
            if index not in results:
                self.stats.failures.append(
                    f"{task.name}: worker pool broke; ran inline")
                results[index] = self._run_inline(task)
        return [results[index] for index in range(len(tasks))]
