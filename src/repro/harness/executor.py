"""Pluggable task-execution backends (the `Executor` protocol).

Every fan-out site in the repo — Phase B cluster shards
(:func:`repro.sampling.pipeline.run_sharded` via
:func:`~.parallel.map_tasks`) and matrix cells
(:func:`~.parallel.execute_matrix`) — dispatches a fixed list of
picklable tasks through one interface and folds the results back in
task order.  This module lifts that interface out of the hard-wired
``ProcessPoolExecutor`` into a registry of interchangeable backends:

``inprocess``
    Plain in-process loop.  No pickling requirements, deterministic,
    the reference semantics every other backend must match bit for bit.
``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Tasks share the
    interpreter (no pickling), so it suits workloads dominated by the
    numpy reverse scans, and it is the default engine behind the
    :func:`repro.api.submit` background handles.
``pool``
    The historical behavior: a ``ProcessPoolExecutor`` fan-out with
    graceful in-process fallbacks (``jobs <= 1``, unpicklable work,
    daemonic caller, platforms without working pools).
``subprocess-queue``
    Independently launched worker *subprocesses* consuming pickled task
    files from a spooled on-disk queue (see :mod:`~.workerq`) — no
    shared ``multiprocessing`` machinery at all, which is the stepping
    stone to multi-machine dispatch: the spool directory is the wire
    format, and a remote scheduler only needs to run
    ``python -m repro.harness.workerq <spool>`` somewhere it can see
    the directory.

Every backend preserves the two invariants the simulation relies on:

- **Deterministic fold order** — ``map`` returns ``[worker(t) for t in
  tasks]`` in task order regardless of completion order, so folds stay
  bit-identical to serial execution.
- **Environment propagation** — process-spawning backends inherit the
  caller's environment at launch, so span parents
  (``REPRO_SPAN_PARENT``), telemetry collection flags, and the rest of
  the ``REPRO_*`` surface ride into workers exactly as they do today.

Backends are context managers: ``close(cancel=True)`` cancels pending
work and *terminates* live worker processes, so an interrupted run
(KeyboardInterrupt, a crashing worker) cannot leave orphans behind —
``with resolve_executor("pool", jobs=4) as pool: ...`` is the safe
idiom and what :func:`~.parallel.map_tasks` does internally.

Names resolve through :func:`resolve_executor` with the same readable
``ValueError`` contract as the warm-up method registry (the CLI maps it
to exit status 2); third-party backends register via
:func:`register_executor`.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

#: Environment variable naming the default backend for fan-out sites
#: that are not handed an explicit executor (resolved through
#: :class:`~.options.RunOptions` at CLI/service entry).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: The backend used when neither the caller nor the environment picks
#: one (the historical process-pool behavior).
DEFAULT_EXECUTOR = "pool"


def _probe_picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


def _in_daemon() -> bool:
    import multiprocessing

    return multiprocessing.current_process().daemon


class Executor:
    """Order-preserving batch executor for a fixed list of tasks.

    Subclasses implement :meth:`map`; :meth:`close` releases resources
    (``cancel=True`` additionally abandons pending work and terminates
    live worker processes).  Instances are context managers: leaving
    the ``with`` block on an exception closes with ``cancel=True``, so
    an interrupted fan-out never strands workers.
    """

    #: Registry name (set by :func:`register_executor`).
    name = "base"
    #: One-line description for ``repro executors``.
    description = ""
    #: Whether tasks and results cross a process boundary (and must
    #: therefore pickle).  Backends that require pickling fall back to
    #: in-process execution when the probe fails.
    requires_pickling = False

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))

    def map(self, worker: Callable, tasks: list, *,
            on_result: "Callable[[int, object], None] | None" = None) -> list:
        """``[worker(t) for t in tasks]``, preserved in task order.

        `on_result` (optional) is called with ``(index, result)`` as
        each task finishes, in *completion* order — the progress-hook
        channel.  A worker exception propagates to the caller;
        remaining work is cancelled via :meth:`close`.
        """
        raise NotImplementedError

    def close(self, *, cancel: bool = False) -> None:
        """Release backend resources; `cancel` terminates live workers."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    def _fallback(self, worker, tasks, on_result):
        """Shared in-process degradation path for picky backends."""
        return InProcessExecutor(1).map(worker, tasks, on_result=on_result)


class InProcessExecutor(Executor):
    """Serial in-process execution — the reference backend."""

    name = "inprocess"
    description = "serial in-process loop (reference semantics)"

    def map(self, worker, tasks, *, on_result=None) -> list:
        results = []
        for index, task in enumerate(tasks):
            result = worker(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class ThreadExecutor(Executor):
    """Thread-pool execution: shared interpreter, no pickling."""

    name = "threads"
    description = "thread pool (shared interpreter, no pickling)"

    def __init__(self, jobs: int = 1) -> None:
        super().__init__(jobs)
        self._pool: ThreadPoolExecutor | None = None

    def map(self, worker, tasks, *, on_result=None) -> list:
        if len(tasks) <= 1 or self.jobs <= 1:
            return self._fallback(worker, tasks, on_result)
        self._pool = ThreadPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            thread_name_prefix="repro-exec",
        )
        try:
            return _drain_futures(self._pool, worker, tasks, on_result)
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self, *, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not cancel, cancel_futures=cancel)
            self._pool = None


def _drain_futures(pool, worker, tasks, on_result) -> list:
    """Submit everything, surface results in completion order, return
    them in task order.  A worker exception cancels the rest and
    re-raises."""
    futures = {pool.submit(worker, task): index
               for index, task in enumerate(tasks)}
    results: list = [None] * len(tasks)
    remaining = set(futures)
    try:
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                result = future.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
    except BaseException:
        for future in remaining:
            future.cancel()
        raise
    return results


class ProcessPoolBackend(Executor):
    """The historical ``ProcessPoolExecutor`` fan-out, as one peer.

    Falls back to in-process execution — with identical results — when
    the work does not pickle, the caller is already a daemonic pool
    worker (children of children are forbidden), or the platform cannot
    build a process pool.  A *broken* pool (a worker killed by the OS)
    also degrades to in-process re-execution; a genuine exception
    raised by `worker` propagates as itself.
    """

    name = "pool"
    description = "local process pool (the historical default)"
    requires_pickling = True

    def __init__(self, jobs: int = 1) -> None:
        super().__init__(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._cancelled = False

    def map(self, worker, tasks, *, on_result=None) -> list:
        if (self.jobs <= 1 or len(tasks) <= 1 or _in_daemon()
                or not _probe_picklable(worker, tasks[0] if tasks else None)):
            return self._fallback(worker, tasks, on_result)
        self._cancelled = False
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)))
        except (NotImplementedError, OSError, PermissionError, ValueError):
            return self._fallback(worker, tasks, on_result)
        try:
            return _drain_futures(self._pool, worker, tasks, on_result)
        except BrokenProcessPool:
            if self._cancelled:
                # The breakage is our own close(cancel=True) terminating
                # the workers — cancellation must not resurrect the work
                # through the fallback path.
                raise
            # Pool infrastructure died underneath us (OOM-killed worker,
            # fork failure): re-run in process, where a genuine worker
            # exception would re-raise identically.
            self.close(cancel=True)
            return self._fallback(worker, tasks, on_result)
        except BaseException:
            self.close(cancel=True)
            raise
        finally:
            self.close()

    def close(self, *, cancel: bool = False) -> None:
        if cancel:
            self._cancelled = True
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if cancel:
            # Abandon queued work, then terminate live workers: pending
            # futures never start, and mid-task processes are killed
            # rather than orphaned (shutdown alone would wait on them).
            # The process handles must be captured first — shutdown()
            # drops the pool's reference to them.
            processes = list(
                (getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
        else:
            pool.shutdown()


class SubprocessQueueExecutor(Executor):
    """Independently launched workers over a spooled file queue.

    Tasks are pickled into a spool directory; ``jobs`` freshly launched
    ``python -m repro.harness.workerq`` subprocesses claim task files
    atomically (``os.rename``), execute them, and write result files
    back; the parent folds results in task order as they appear.  The
    workers share nothing with the parent but the directory and the
    inherited environment — exactly the contract a multi-machine job
    scheduler can satisfy.

    Crash propagation: a task that raises ships its exception back in
    the result file and re-raises here; a worker that dies without
    writing results (segfault, ``kill -9``) turns into a
    ``RuntimeError`` naming the exit status instead of a hang.
    """

    name = "subprocess-queue"
    description = ("spooled file queue + worker subprocesses "
                   "(multi-machine stepping stone)")
    requires_pickling = True

    #: Parent-side poll interval while waiting on result files.
    poll_seconds = 0.02
    #: Grace period for workers to exit after the queue drains.
    shutdown_timeout = 10.0

    def __init__(self, jobs: int = 1) -> None:
        super().__init__(jobs)
        self._workers: list[subprocess.Popen] = []
        self._spool: str | None = None

    def map(self, worker, tasks, *, on_result=None) -> list:
        from . import workerq

        if (self.jobs <= 1 or len(tasks) <= 1
                or not _probe_picklable(worker, tasks[0] if tasks else None)):
            return self._fallback(worker, tasks, on_result)
        self._spool = tempfile.mkdtemp(prefix="repro-spool-")
        try:
            # Spool every task before any worker launches: a worker
            # exits as soon as it sees an empty queue, so partially
            # spooled queues would race it into early exit.
            for index, task in enumerate(tasks):
                workerq.spool_task(self._spool, index, worker, task)
            launch = min(self.jobs, len(tasks))
            self._workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.harness.workerq",
                     self._spool],
                    env=os.environ.copy(),
                )
                for _ in range(launch)
            ]
            return self._collect(len(tasks), on_result)
        except BaseException:
            self.close(cancel=True)
            raise
        finally:
            self.close()

    def _collect(self, count: int, on_result) -> list:
        from . import workerq

        results: list = [None] * count
        seen: set[int] = set()
        while True:
            spool = self._spool
            if spool is None:
                # A concurrent close(cancel=True) tore the spool down.
                raise RuntimeError(
                    "subprocess-queue executor closed before finishing "
                    f"the queue ({len(seen)}/{count} results)")
            # Liveness is sampled *before* the drain: a worker that
            # writes its last result and exits between the two is
            # caught by this drain (results precede exit), and one that
            # dies after the sample is caught next iteration.
            workers_gone = not any(proc.poll() is None
                                   for proc in self._workers)
            for index, outcome in workerq.drain_results(spool, seen):
                status, payload = outcome
                if status == "error":
                    raise payload
                results[index] = payload
                seen.add(index)
                if on_result is not None:
                    on_result(index, payload)
            if len(seen) >= count:
                return results
            if workers_gone:
                statuses = [proc.returncode for proc in self._workers]
                raise RuntimeError(
                    f"subprocess-queue workers exited with status "
                    f"{statuses or '(cancelled)'} before finishing the "
                    f"queue ({len(seen)}/{count} results)"
                )
            time.sleep(self.poll_seconds)

    def close(self, *, cancel: bool = False) -> None:
        workers, self._workers = self._workers, []
        deadline = time.monotonic() + self.shutdown_timeout
        for proc in workers:
            if proc.poll() is None and cancel:
                proc.terminate()
        for proc in workers:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.0,
                                          deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        spool, self._spool = self._spool, None
        if spool is not None:
            import shutil

            shutil.rmtree(spool, ignore_errors=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: canonical name -> backend class (``factory(jobs) -> Executor``).
_REGISTRY: dict[str, Callable[[int], Executor]] = {}


def register_executor(name: str, factory: Callable[[int], Executor], *,
                      replace: bool = False) -> None:
    """Register `factory` (``factory(jobs) -> Executor``) as `name`.

    Mirrors the warm-up method registry contract: re-registering an
    existing name raises unless ``replace=True``.
    """
    if not callable(factory):
        raise TypeError("factory must be a callable accepting a jobs count")
    if not replace and name in _REGISTRY:
        raise ValueError(f"executor {name!r} is already registered; "
                         "pass replace=True to override")
    _REGISTRY[name] = factory


def unregister_executor(name: str) -> None:
    """Remove a registered backend (readable ValueError on unknowns)."""
    _canonical(name)
    del _REGISTRY[name]


def _canonical(name: str) -> str:
    key = name.strip().lower()
    if key in _REGISTRY:
        return key
    known = ", ".join(sorted(_REGISTRY))
    raise ValueError(f"unknown executor {name!r}; known: {known}")


def registered_executor_names() -> list[str]:
    """Canonical backend names currently registered, sorted."""
    return sorted(_REGISTRY)


def executor_factory(name: str) -> Callable[[int], Executor]:
    """The registered factory behind `name`."""
    return _REGISTRY[_canonical(name)]


def resolve_executor(setting: "str | Executor | None" = None, *,
                     jobs: int = 1) -> Executor:
    """Turn an executor setting into a ready :class:`Executor`.

    Precedence: an explicit instance or name wins; otherwise the
    ``REPRO_EXECUTOR`` environment variable; otherwise ``"pool"``.
    Unknown names raise the registry's readable ``ValueError`` (the CLI
    maps it to exit status 2).
    """
    if isinstance(setting, Executor):
        return setting
    if setting is None:
        setting = os.environ.get(EXECUTOR_ENV_VAR, "").strip() or None
    if setting is None:
        setting = DEFAULT_EXECUTOR
    return executor_factory(setting)(jobs)


def describe_executors() -> list[tuple[str, str, str]]:
    """``(name, class, description)`` rows for ``repro executors``."""
    rows = []
    for name in registered_executor_names():
        backend = executor_factory(name)(1)
        rows.append((name, type(backend).__name__, backend.description))
    return rows


for _cls in (InProcessExecutor, ThreadExecutor, ProcessPoolBackend,
             SubprocessQueueExecutor):
    register_executor(_cls.name, _cls)
