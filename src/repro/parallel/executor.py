"""Executor abstraction behind :class:`~repro.parallel.engine.ParallelEngine`.

The engine talks to an :class:`EngineExecutor` and never to
``multiprocessing`` or sockets itself, so serial in-process execution,
threads and worker processes are interchangeable.  There is one data
plane on every executor: a rank's owned+ghost position rows travel in
the ``"step"`` payload and its owned-force slab comes back in the
reply.  In-process executors pass those arrays by reference; the
process executor frames them over sockets.

The protocol (three methods):

- ``start(host_factory)`` — stand up ``workers`` hosts, each built by
  calling ``host_factory()`` on the side that will run it.
- ``submit(worker, cmd, payload)`` — dispatch one command to one
  worker's host; returns a :class:`concurrent.futures.Future` whose
  ``result()`` is the host's return value, or raises
  :class:`WorkerFailure` carrying the remote traceback.  A dead worker
  is a :class:`WorkerFailure` too, never a raw OS error, and ``submit``
  itself never raises it: the returned future fails instead.
- ``shutdown()`` — tear everything down; idempotent, also runs via a
  ``weakref.finalize`` safety net so dropped executors never leak
  processes.

Three implementations:

- :class:`SerialExecutor` — hosts live in this process, ``submit``
  executes synchronously and returns an already-resolved future.  No
  pickling requirements; this is also what makes the engine runnable
  where ``multiprocessing`` is unavailable or unwanted.
- :class:`ThreadExecutor` — one persistent thread per worker, hosts in
  this process.  Useful when the kernel releases the GIL (the compiled
  C backend does): rank evaluations then overlap without any process
  or serialization cost.
- :class:`~repro.parallel.transport.ProcessExecutor` — one process per
  worker, every message a CRC-framed socket frame: local processes
  (``fork``, ``spawn`` or ``forkserver``) on socket pairs, or
  pre-started ``repro worker`` listeners on other hosts (``hosts=``).

Ordering guarantee (all implementations): commands submitted to the
same worker execute in submission order; there is no cross-worker
ordering.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from concurrent.futures import Future
from typing import Callable, Protocol, runtime_checkable


class ExecutorError(RuntimeError):
    """The executor is unusable (bad configuration, not started, or shut down)."""


class WorkerFailure(RuntimeError):
    """A worker's host raised (or its process died); carries the remote traceback."""

    def __init__(self, worker: int, remote_traceback: str):
        self.worker = worker
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker} failed\n--- remote traceback ---\n{remote_traceback}"
        )


@runtime_checkable
class EngineExecutor(Protocol):
    """What the parallel engine requires of an execution backend."""

    workers: int

    def start(self, host_factory: Callable[[], object]) -> None: ...

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future: ...

    def shutdown(self) -> None: ...


def make_executor(spec: "str | EngineExecutor | None", *, workers: int) -> EngineExecutor:
    """Resolve an executor spec (name, instance, or ``None``).

    ``None`` and ``"process"`` select a local
    :class:`~repro.parallel.transport.ProcessExecutor` using ``fork``
    where available, else ``spawn``.  Other names: ``"serial"``,
    ``"thread"``, and a start method (``"fork"``, ``"spawn"``,
    ``"forkserver"``).  Remote workers (``hosts=``) come as a ready
    instance.
    """
    from repro.parallel.transport import ProcessExecutor  # avoid import cycle

    if spec is not None and not isinstance(spec, str):
        return spec
    if spec is None or spec == "process":
        return ProcessExecutor(workers)
    if spec == "serial":
        return SerialExecutor(workers)
    if spec == "thread":
        return ThreadExecutor(workers)
    if spec in mp.get_all_start_methods():
        return ProcessExecutor(workers, start_method=spec)
    raise ExecutorError(
        f"unknown executor {spec!r}; expected 'serial', 'thread', 'process', "
        f"or a start method ({', '.join(mp.get_all_start_methods())})"
    )


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------


class SerialExecutor:
    """In-process execution: ``workers`` hosts served synchronously.

    ``submit`` runs the command immediately on the calling thread and
    returns an already-resolved future, so the engine's dispatch loop is
    exactly a sequential loop over workers — bitwise the same reduction
    inputs as the process executors produce.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        self.workers = int(workers)
        self._hosts: list | None = None

    def start(self, host_factory) -> None:
        if self._hosts is not None:
            raise ExecutorError("executor already started")
        self._hosts = [host_factory() for _ in range(self.workers)]

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if self._hosts is None:
            raise ExecutorError("executor not started (or shut down)")
        fut: Future = Future()
        try:
            fut.set_result(self._hosts[worker].handle(cmd, payload))
        except Exception:
            fut.set_exception(WorkerFailure(worker, traceback.format_exc()))
        return fut

    def shutdown(self) -> None:
        self._hosts = None


# ---------------------------------------------------------------------------
# thread pool
# ---------------------------------------------------------------------------


class ThreadExecutor:
    """One persistent thread per worker, payloads passed by reference.

    Each worker gets its own single-thread
    :class:`~concurrent.futures.ThreadPoolExecutor`, which preserves the
    per-worker FIFO ordering guarantee while letting different workers'
    rank evaluations overlap.  Real overlap requires the kernel to
    release the GIL — the compiled C Tersoff backend does (its ctypes
    call drops the GIL for the whole force loop), so
    ``repro run --workers N --executor thread --backend compiled`` scales
    without any process or pickling cost.  With the
    pure-numpy backend the threads mostly serialize on the GIL; the
    physics is bitwise identical either way (each rank still owns a
    private potential copy, and the host reduction is rank-ordered).
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ExecutorError("need at least one worker")
        self.workers = int(workers)
        self._hosts: list | None = None
        self._pools: list | None = None

    def start(self, host_factory) -> None:
        from concurrent.futures import ThreadPoolExecutor

        if self._hosts is not None:
            raise ExecutorError("executor already started")
        self._hosts = [host_factory() for _ in range(self.workers)]
        self._pools = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-exec-{w}")
            for w in range(self.workers)
        ]

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if self._pools is None:
            raise ExecutorError("executor not started (or shut down)")
        host = self._hosts[worker]

        def call():
            try:
                return host.handle(cmd, payload)
            except Exception:
                raise WorkerFailure(worker, traceback.format_exc()) from None

        return self._pools[worker].submit(call)

    def shutdown(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
        self._pools = None
        self._hosts = None
