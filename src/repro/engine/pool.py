"""The one persistent worker pool every parallel path runs on.

Sharded search (:mod:`repro.engine.sharded`), the read aligner's seeding,
epoch-parallel accelerator replay
(:meth:`~repro.accel.exma_accelerator.ExmaAccelerator.run_stream`), the
serving layer's flush replay and the design-space sweep all map a
module-level function over independent items.  :class:`BackendWorkerPool`
is that map: a long-lived thread/process pool bound to one backend object
(a search backend, an accelerator, a DSE workload), with the process
executor shipping the backend **once** per worker through the pool
initializer.  :class:`WorkerPoolOwner` is the lifecycle every holder
mixes in: created lazily, reused across calls, swapped when the knobs
change, released by ``close()``.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Sequence

__all__ = [
    "EXECUTORS",
    "EXECUTOR_ENV",
    "BackendWorkerPool",
    "WorkerPoolOwner",
    "available_parallelism",
    "default_executor",
]

#: Supported ``concurrent.futures`` executor kinds.
EXECUTORS = ("thread", "process")

#: Environment toggle: default executor of every pool holder that does not
#: pin its own (CI runs the quick suite with ``REPRO_DEFAULT_EXECUTOR=
#: process`` so the process-pool path is exercised by the whole matrix).
EXECUTOR_ENV = "REPRO_DEFAULT_EXECUTOR"

#: Environment values already warned about, so a malformed toggle nags
#: exactly once per process, not once per engine construction.  (A
#: long-lived serving process builds engines continuously; spamming one
#: warning per batch would drown the log.)
_WARNED_ENV_VALUES: set[tuple[str, str]] = set()


def _warn_env_once(variable: str, value: str, message: str) -> None:
    """Emit *message* as a RuntimeWarning once per (variable, value),
    attributed to the caller of the env parser that calls this."""
    key = (variable, value)
    if key not in _WARNED_ENV_VALUES:
        _WARNED_ENV_VALUES.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def default_executor() -> str:
    """Executor pools use when not pinned (``REPRO_DEFAULT_EXECUTOR``).

    Unknown values are rejected here, with a once-per-process warning
    naming the valid choices, and fall back to ``"thread"`` — instead of
    silently misconfiguring the pool or failing later inside it.
    """
    raw = os.environ.get(EXECUTOR_ENV)
    if raw is None or not raw.strip():
        return "thread"
    executor = raw.strip().lower()
    if executor not in EXECUTORS:
        _warn_env_once(
            EXECUTOR_ENV,
            raw,
            f"ignoring unknown {EXECUTOR_ENV}={raw!r} (available: "
            f"{', '.join(EXECUTORS)}); using the thread executor",
        )
        return "thread"
    return executor


def available_parallelism() -> int:
    """CPUs actually available to this process (affinity/cgroup aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


#: The backend installed in a process-pool worker by the pool initializer.
#: Shipping it once per worker (instead of pickling it into every
#: submitted call) is what makes process pools affordable on multi-100
#: kbp references.
_WORKER_BACKEND: object = None


def _init_worker(backend) -> None:
    """Process-pool initializer: install the shared backend once."""
    global _WORKER_BACKEND
    _WORKER_BACKEND = backend


def _call_worker(fn: Callable, args: tuple, item) -> object:
    """Run *fn* against the worker-resident backend (process executor)."""
    return fn(_WORKER_BACKEND, *args, item)


#: Failures that indict the *pool*, not the submitted work: a broken
#: executor (e.g. a process worker died mid-call) or a gather timeout (a
#: worker wedged past the caller's deadline).  Exceptions raised *by* the
#: submitted function are never in this set — they propagate to the
#: caller untouched, because retrying them on a fresh pool would just
#: re-raise.
_POOL_FAILURES = (BrokenExecutor, FuturesTimeoutError, TimeoutError)


class BackendWorkerPool:
    """A long-lived worker pool bound to one backend object.

    The pool is created lazily on the first pooled call and then reused
    for every subsequent one — no per-call executor spin-up.  Thread
    workers share the backend in-process; process workers receive it
    exactly once via the pool initializer and keep it for the pool's
    lifetime.  Usable as a context manager; ``shutdown`` is idempotent
    and a fresh pool is created transparently if the instance is used
    again afterwards.

    Args:
        backend: the object every call receives as its first argument (a
            search backend, an accelerator, a DSE workload); picklable
            for the process executor.
        executor: ``"thread"`` or ``"process"``.
        max_workers: pool size (shard count, replay workers, ...).
    """

    def __init__(self, backend, executor: str = "thread", max_workers: int = 1) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}"
            )
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._backend = backend
        self._kind = executor
        self._max_workers = int(max_workers)
        self._pool: Executor | None = None
        #: Degradation ladder state: one rebuild is allowed per pool
        #: lifetime; the second pool failure flips ``degraded`` and every
        #: later call runs inline (serial, in-process) with a warn-once.
        self._rebuilt = False
        self._degraded = False

    @property
    def backend(self):
        """The backend the workers are bound to."""
        return self._backend

    @property
    def kind(self) -> str:
        """Executor kind (``"thread"`` or ``"process"``)."""
        return self._kind

    @property
    def max_workers(self) -> int:
        """Configured pool size."""
        return self._max_workers

    @property
    def active(self) -> bool:
        """Whether the underlying executor has been created (and not shut
        down)."""
        return self._pool is not None

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial in-process calls.

        Set after a *second* pool failure (broken executor or gather
        timeout): the pool was rebuilt once already, so further rebuilds
        are presumed futile and every subsequent :meth:`map_shards` /
        :meth:`run_one` runs inline.  Results are unchanged — serial and
        pooled execution are exact-equivalent by construction — only the
        parallelism is lost.
        """
        return self._degraded

    @classmethod
    def ensure(
        cls,
        current: "BackendWorkerPool | None",
        backend,
        executor: str,
        max_workers: int,
    ) -> "BackendWorkerPool":
        """Reuse *current* when it matches the knobs, else replace it.

        Keeps one persistent pool across calls, transparently swapping it
        when the bound backend, the executor kind or the worker count
        changes (e.g. environment toggles).  The backend check matters
        most for the process executor, whose workers hold whatever
        backend their pool initializer installed.
        """
        if current is not None and (
            current.backend is not backend
            or current.kind != executor
            or current.max_workers != max_workers
        ):
            current.shutdown(wait=False)
            current = None
        if current is None:
            current = cls(backend, executor, max_workers=max_workers)
        return current

    def _ensure(self) -> Executor:
        if self._pool is None:
            if self._kind == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=_init_worker,
                    initargs=(self._backend,),
                )
        return self._pool

    def _note_pool_failure(self, error: BaseException) -> None:
        """Advance the degradation ladder after a pool-level failure.

        First failure: tear the executor down and spend the one rebuild
        (the next submit lazily recreates it).  Second failure, ever:
        flip to degraded — all later calls run serial in-process — and
        warn exactly once per pool.
        """
        self.shutdown(wait=False)
        if not self._rebuilt:
            self._rebuilt = True
            return
        if not self._degraded:
            self._degraded = True
            warnings.warn(
                f"{self._kind} worker pool failed twice "
                f"({type(error).__name__}: {error}); falling back to serial "
                f"in-process execution for the rest of this pool's lifetime",
                RuntimeWarning,
                stacklevel=3,
            )

    def map_shards(
        self, fn: Callable, shard_lists: Sequence, *args, timeout: float | None = None
    ) -> list:
        """Apply ``fn(backend, *args, shard)`` to every shard, in order.

        *fn* must be a module-level function (picklable by reference).
        Thread workers call it with the shared backend; process workers
        look the backend up in the worker global installed by the pool
        initializer, so only ``(fn, args, shard)`` crosses the pipe.  A
        single shard runs inline, skipping the pool entirely.

        Pool-level failures (a broken executor, a worker exceeding
        *timeout*) walk the degradation ladder — rebuild once, then fall
        back to serial in-process execution with a warn-once — so a dead
        worker pool degrades throughput instead of the result.
        Exceptions raised by *fn* itself always propagate unchanged.
        """
        if not shard_lists:
            return []
        if len(shard_lists) == 1 or self._degraded:
            return [fn(self._backend, *args, shard) for shard in shard_lists]
        for _ in range(2):
            if self._degraded:
                break
            try:
                futures = [self.submit(fn, shard, *args) for shard in shard_lists]
                return [future.result(timeout) for future in futures]
            except _POOL_FAILURES as error:
                self._note_pool_failure(error)
        return [fn(self._backend, *args, shard) for shard in shard_lists]

    def run_one(self, fn: Callable, item, *args, timeout: float | None = None):
        """Run ``fn(backend, *args, item)`` on the pool and wait for it.

        The resilient single-item shape: like ``submit(...).result()``
        but with the same rebuild-once / serial-fallback ladder as
        :meth:`map_shards` (and an optional gather *timeout*), so a
        broken pool costs the caller parallelism, never the result.  In
        degraded mode the call simply runs inline.
        """
        for _ in range(2):
            if self._degraded:
                break
            try:
                return self.submit(fn, item, *args).result(timeout)
            except _POOL_FAILURES as error:
                self._note_pool_failure(error)
        return fn(self._backend, *args, item)

    def submit(self, fn: Callable, item, *args):
        """Schedule ``fn(backend, *args, item)`` on the pool; returns a Future.

        Unlike :meth:`map_shards` this never runs inline: the single item
        always crosses to a pool worker.  That is what the serving layer's
        replay path wants — each batcher thread hands its flush to the
        replay pool and blocks on the future, so with the process executor
        the epoch replay escapes the submitting thread (and, for process
        pools, the GIL) entirely.
        """
        pool = self._ensure()
        if self._kind == "thread":
            return pool.submit(fn, self._backend, *args, item)
        return pool.submit(_call_worker, fn, args, item)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the underlying executor down (no-op when never created)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "BackendWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.shutdown(wait=False)
        except Exception:
            pass


class WorkerPoolOwner:
    """Owns one persistent :class:`BackendWorkerPool`.

    The single implementation of the pool-owner lifecycle every holder
    (the engines, the read aligner, the accelerator) mixes in: the pool
    is created lazily on the first pooled call, reused across calls,
    transparently replaced when the executor kind or worker count
    changes (e.g. environment toggles), and released by ``close()``,
    context-manager exit or garbage collection.  The pool is bound to
    :meth:`_pool_backend` — the host's ``_backend`` attribute unless the
    host overrides it.
    """

    _pool = None

    @property
    def worker_pool(self) -> "BackendWorkerPool | None":
        """The owned persistent pool (``None`` until the first pooled
        call creates it, or after :meth:`close`)."""
        return self._pool

    def _pool_backend(self):
        """The object the pool's workers are bound to."""
        return self._backend

    def _ensure_pool(self, workers: int, executor: str) -> BackendWorkerPool:
        self._pool = BackendWorkerPool.ensure(
            self._pool, self._pool_backend(), executor, workers
        )
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        The owner remains usable: the next pooled call simply creates a
        fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False)
        except Exception:
            pass
