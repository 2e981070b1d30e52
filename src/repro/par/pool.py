"""Spawn-based worker pool whose task protocol rides ``repro.io`` frames.

Workers are fresh Python interpreters (``python -c ... worker_main()``)
joined to the parent by plain OS pipes; every task and result crosses
those pipes inside the same CRC-checked, END-terminated frames that carry
migration state (:mod:`repro.io.frames`) — a corrupted byte anywhere on
the channel fails loudly with the absolute offset and frame tag instead
of deserializing into a silently-wrong result.

Protocol, parent's view::

    parent -> worker   TASK_FRAME    pickle((task_id, "module:func", payload))
    worker -> parent   RESULT_FRAME  pickle((task_id, value))
    worker -> parent   ERROR_FRAME   pickle((task_id, traceback_text, error))
    parent -> worker   END frame     clean shutdown; worker exits 0

Robustness (the ReHype lesson applied to the pool itself): every task has
a deadline, a worker that dies mid-task (EOF / broken pipe / frame error)
or hangs past its deadline is killed and respawned, its task is retried a
bounded number of times with backoff, and a task that exhausts retries
falls back to running *inline* in the parent — so ``workers=1`` and any
amount of worker loss reproduce the serial path exactly, they just stop
being fast.

Entry points must be module-level functions (:func:`func_ref` refuses
lambdas, closures and bound methods — the ``par-entrypoint-hygiene`` lint
rule flags them statically) and payloads must be plain picklable data
with no live simulation objects captured inside (:func:`check_payload`,
``par-payload-hygiene``).
"""

import importlib
import os
import pickle
import select
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ParError, ReproError, StateFormatError
from repro.io.frames import END_FRAME, encode_frame, read_stream_frame
from repro.par import realtime

#: parent -> worker: one task assignment.
TASK_FRAME = 0x21
#: worker -> parent: the task's pickled return value.
RESULT_FRAME = 0x22
#: worker -> parent: the task raised; payload carries the traceback text,
#: plus the exception itself when it is a ReproError (else None).
ERROR_FRAME = 0x23

#: types that must never ride inside a task payload: they carry live
#: simulation state (clocks, engines) that cannot survive a process
#: boundary and would silently desynchronize the run.
_FORBIDDEN_PAYLOAD_TYPES = (
    ("repro.sim.clock", "SimClock"),
    ("repro.sim.engine", "Engine"),
)


# -- task model ---------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """One unit of work: a module-level entrypoint plus its payload."""

    func: str
    payload: Any = None
    label: str = ""


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
            raise ParError(
                f"bad entrypoint reference {fn!r}: want 'module:function'"
            )
        return fn
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not callable(fn) or qualname is None or module is None:
        raise ParError(f"entrypoint {fn!r} is not a referable function")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise ParError(
            f"entrypoint {qualname!r} is a lambda or nested function; "
            f"workers import entrypoints by name, so they must be "
            f"module-level"
        )
    if "." in qualname:
        raise ParError(
            f"entrypoint {qualname!r} is a method; workers import "
            f"entrypoints by name, so they must be module-level functions"
        )
    if module == "__main__":
        main_file = getattr(sys.modules.get("__main__"), "__file__", None)
        if main_file is None:
            raise ParError(
                f"entrypoint {qualname!r} lives in an interactive "
                f"__main__; move it into an importable module"
            )
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
        raise ParError(
            f"entrypoint {ref!r} does not name a callable in "
            f"{module_name!r}"
        )
    return fn


def check_payload(payload: Any, _context: str = "payload") -> None:
    """Reject payloads that capture live simulation objects.

    Walks plain containers (dict/list/tuple/set); anything carrying a
    ``SimClock`` or ``Engine`` is refused — those objects hold
    per-process state (event queues, clock positions) that a spawn
    boundary would quietly reset, making the shard diverge from the
    serial run instead of failing loudly.
    """
    forbidden = []
    for module_name, type_name in _FORBIDDEN_PAYLOAD_TYPES:
        module = sys.modules.get(module_name)
        cls = getattr(module, type_name, None) if module else None
        if cls is not None:
            forbidden.append(cls)
    if forbidden:
        _walk_payload(payload, tuple(forbidden), _context, depth=0)


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


# -- worker side --------------------------------------------------------------


def worker_main(stdin=None, stdout=None) -> int:
    """Worker loop: read TASK frames, run them, write RESULT/ERROR frames.

    Runs in a fresh interpreter with the frame channel on stdin/stdout.
    ``sys.stdout`` is rebound to stderr for the task's duration so a
    stray ``print()`` inside an entrypoint cannot corrupt the frame
    stream.  The loop ends at the parent's END frame (exit 0); a frame
    error on stdin is a protocol failure (exit 2).
    """
    channel_in = stdin if stdin is not None else sys.stdin.buffer
    channel_out = stdout if stdout is not None else sys.stdout.buffer
    sys.stdout = sys.stderr
    offset = 0
    while True:
        try:
            frame_type, payload, consumed = read_stream_frame(
                channel_in, offset)
        except StateFormatError as exc:
            print(f"par worker: {exc}", file=sys.stderr)
            return 2
        offset += consumed
        if frame_type == END_FRAME:
            return 0
        if frame_type != TASK_FRAME:
            print(f"par worker: unexpected frame type {frame_type}",
                  file=sys.stderr)
            return 2
        task_id, ref, task_payload = pickle.loads(payload)
        try:
            value = resolve_ref(ref)(task_payload)
            reply = encode_frame(RESULT_FRAME,
                                 pickle.dumps((task_id, value)))
        except Exception as exc:
            # A library error (bad config, unknown CVE) is an answer the
            # parent re-raises as itself; anything else is a bug whose
            # traceback is all the parent gets.
            error = exc if isinstance(exc, ReproError) else None
            reply = encode_frame(
                ERROR_FRAME,
                pickle.dumps((task_id, traceback.format_exc(), error)),
            )
        channel_out.write(reply)
        channel_out.flush()


_WORKER_BOOT = "from repro.par.pool import worker_main; " \
               "raise SystemExit(worker_main())"


def _worker_environment() -> Dict[str, str]:
    """The spawned worker's env: parent's sys.path via PYTHONPATH, so
    entrypoints living next to scripts (benchmarks/) import cleanly."""
    env = dict(os.environ)
    entries = [entry for entry in sys.path if entry]
    if entries:
        env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


# -- parent side --------------------------------------------------------------


@dataclass
class PoolStats:
    """Operational counters of one pool run (wall-clock-free)."""

    workers: int = 0
    tasks: int = 0
    results: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    inline_fallbacks: int = 0
    respawns: int = 0
    #: ``"<task label or func>: <reason>"`` per failed task attempt, in
    #: the order they failed
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "tasks": self.tasks,
            "results": self.results,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "inline_fallbacks": self.inline_fallbacks,
            "respawns": self.respawns,
            "failures": list(self.failures),
        }


class _Worker:
    """One spawned interpreter plus its channel bookkeeping."""

    def __init__(self, index: int, env: Dict[str, str]):
        self.index = index
        # bufsize=0: select() must see exactly what the OS pipe holds —
        # a Python-level read buffer would hide ready frames from it.
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_BOOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0, env=env,
        )
        self.task_index: Optional[int] = None
        self.deadline: float = 0.0
        self.sent_offset = 0
        self.recv_offset = 0

    @property
    def busy(self) -> bool:
        return self.task_index is not None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        self._close_pipes()

    def shutdown(self) -> None:
        """Polite exit: END frame, then wait; kill if it lingers."""
        try:
            self.proc.stdin.write(encode_frame(END_FRAME, b""))
            self.proc.stdin.flush()
            self.proc.stdin.close()
        except (BrokenPipeError, OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except (BrokenPipeError, OSError):
                    pass


class WorkerPool:
    """Fan tasks out to spawned workers; degrade gracefully to inline.

    ``run(tasks)`` returns the task results in submission order no matter
    which worker finished what first — completion order is an operational
    detail that must never reach the merged output.  ``workers <= 1``
    never spawns a process: every task runs inline in the parent, which
    *is* the serial path.
    """

    def __init__(self, workers: int = 1, task_timeout_s: float = 300.0,
                 max_retries: int = 1, backoff_base_s: float = 0.05):
        if workers < 1:
            raise ParError(f"need >= 1 worker, got {workers}")
        if task_timeout_s <= 0:
            raise ParError(f"task timeout must be > 0, got {task_timeout_s}")
        if max_retries < 0:
            raise ParError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.stats = PoolStats()
        self._workers: List[_Worker] = []

    # -- public API ----------------------------------------------------------

    def run(self, tasks: Sequence[Task]) -> List[Any]:
        tasks = list(tasks)
        self.stats = PoolStats(workers=self.workers, tasks=len(tasks))
        for task in tasks:
            check_payload(task.payload, _context=f"{task.label or task.func}")
        if self.workers <= 1 or not tasks:
            return [self._run_inline(task) for task in tasks]
        try:
            return self._run_pooled(tasks)
        finally:
            self._shutdown_workers()

    # -- inline (serial) path ------------------------------------------------

    def _run_inline(self, task: Task) -> Any:
        value = resolve_ref(task.func)(task.payload)
        self.stats.results += 1
        return value

    # -- pooled path ---------------------------------------------------------

    def _run_pooled(self, tasks: List[Task]) -> List[Any]:
        env = _worker_environment()
        count = min(self.workers, len(tasks))
        self._workers = [_Worker(i, env) for i in range(count)]
        self.stats.workers = count
        results: Dict[int, Any] = {}
        pending: List[int] = list(range(len(tasks)))
        attempts = [0] * len(tasks)

        while len(results) < len(tasks):
            self._assign(pending, tasks, results, attempts)
            busy = [w for w in self._workers if w.busy]
            if not busy:
                if pending:
                    continue  # a crash during assignment requeued work
                break
            self._wait_one(busy, tasks, results, pending, attempts)
        return [results[index] for index in range(len(tasks))]

    def _assign(self, pending: List[int], tasks: List[Task],
                results: Dict[int, Any], attempts: List[int]) -> None:
        for worker in self._workers:
            if not pending:
                return
            if worker.busy:
                continue
            index = pending.pop(0)
            task = tasks[index]
            try:
                blob = pickle.dumps((index, task.func, task.payload))
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                raise ParError(
                    f"task {task.label or task.func} payload is not "
                    f"picklable: {exc}"
                ) from exc
            frame = encode_frame(TASK_FRAME, blob)
            try:
                worker.proc.stdin.write(frame)
                worker.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                # The worker died between tasks: respawn and retry the
                # assignment (the task was never delivered, so this does
                # not count against the task's retry budget).
                self.stats.worker_crashes += 1
                self._respawn(worker)
                pending.insert(0, index)
                continue
            worker.sent_offset += len(frame)
            worker.task_index = index
            worker.deadline = realtime.monotonic() + self.task_timeout_s

    def _wait_one(self, busy: List[_Worker], tasks: List[Task],
                  results: Dict[int, Any], pending: List[int],
                  attempts: List[int]) -> None:
        now = realtime.monotonic()
        wait_s = max(0.0, min(w.deadline for w in busy) - now)
        readable, _, _ = select.select(
            [w.proc.stdout for w in busy], [], [], wait_s)
        ready = {id(stream) for stream in readable}
        progressed = False
        for worker in busy:
            if id(worker.proc.stdout) in ready:
                self._receive(worker, tasks, results, pending, attempts)
                progressed = True
        if progressed:
            return
        now = realtime.monotonic()
        for worker in busy:
            if worker.busy and worker.deadline <= now:
                self.stats.timeouts += 1
                self._task_failed(
                    worker, tasks, results, pending, attempts,
                    reason=f"timed out after {self.task_timeout_s:g}s",
                )

    def _receive(self, worker: _Worker, tasks: List[Task],
                 results: Dict[int, Any], pending: List[int],
                 attempts: List[int]) -> None:
        try:
            frame_type, payload, consumed = read_stream_frame(
                worker.proc.stdout, worker.recv_offset)
        except StateFormatError:
            # EOF or garbage on the result channel: the worker is gone
            # (killed, crashed, or corrupted) — treat as a crash.
            self.stats.worker_crashes += 1
            self._task_failed(worker, tasks, results, pending, attempts,
                              reason="worker died mid-task")
            return
        worker.recv_offset += consumed
        if frame_type == RESULT_FRAME:
            task_id, value = pickle.loads(payload)
            if task_id != worker.task_index:
                raise ParError(
                    f"worker {worker.index} answered task {task_id} while "
                    f"assigned {worker.task_index}; protocol violation"
                )
            results[task_id] = value
            self.stats.results += 1
            worker.task_index = None
            return
        if frame_type == ERROR_FRAME:
            task_id, text, error = pickle.loads(payload)
            task = tasks[task_id]
            failure = ParError(
                f"task {task.label or task.func} raised in worker "
                f"{worker.index}:\n{text}"
            )
            if error is not None:
                raise error from failure
            raise failure
        raise ParError(
            f"worker {worker.index} sent unexpected frame type "
            f"{frame_type}"
        )

    def _task_failed(self, worker: _Worker, tasks: List[Task],
                     results: Dict[int, Any], pending: List[int],
                     attempts: List[int], reason: str) -> None:
        index = worker.task_index
        worker.task_index = None
        self._respawn(worker)
        attempts[index] += 1
        task = tasks[index]
        self.stats.failures.append(f"{task.label or task.func}: {reason}")
        if attempts[index] > self.max_retries:
            # Retries exhausted: degrade to the serial path rather than
            # lose the campaign — the merged output stays complete and
            # byte-identical, it just stops being parallel for this task.
            self.stats.inline_fallbacks += 1
            results[index] = self._run_inline(task)
            return
        self.stats.retries += 1
        realtime.sleep(self.backoff_base_s * (2 ** (attempts[index] - 1)))
        pending.insert(0, index)

    def _respawn(self, worker: _Worker) -> None:
        worker.kill()
        self.stats.respawns += 1
        replacement = _Worker(worker.index, _worker_environment())
        self._workers[self._workers.index(worker)] = replacement

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            if worker.busy:
                worker.kill()
            else:
                worker.shutdown()
        self._workers = []
