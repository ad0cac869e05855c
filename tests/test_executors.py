"""EngineExecutor conformance: one contract, many implementations.

Every executor (serial, thread pool, the process executor over fork and
spawn, and the process executor dialing ``repro worker`` hosts over TCP
and a unix socket) must satisfy identical semantics — arrays carried
bitwise in payloads and replies, per-worker FIFO ordering, host
exceptions (and dead workers) surfaced as :class:`WorkerFailure`
carrying the remote traceback, idempotent shutdown — so the parallel
engine's physics cannot depend on which one is plugged in.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.parallel.executor import (
    EngineExecutor,
    ExecutorError,
    SerialExecutor,
    ThreadExecutor,
    WorkerFailure,
    make_executor,
)
from repro.parallel.transport import ProcessExecutor, run_worker

HAVE_FORK = "fork" in mp.get_all_start_methods()


class EchoHost:
    """Minimal host exercising every conformance axis."""

    def __init__(self):
        self.calls = 0

    def handle(self, cmd, payload):
        self.calls += 1
        if cmd == "echo":
            return (payload, self.calls)
        if cmd == "boom":
            raise ValueError("intentional kaboom")
        if cmd == "pid":
            return os.getpid()
        if cmd == "die":  # simulate a hard crash (no reply ever comes)
            os._exit(3)
        raise KeyError(cmd)


class EchoFactory:
    """Module-level factory: picklable, as the spawn pool requires."""

    def __call__(self):
        return EchoHost()


EXECUTORS = ["serial", "thread", "spawn"] + (["fork"] if HAVE_FORK else []) + ["hosts"]
LOCAL_METHOD = "fork" if HAVE_FORK else "spawn"


def two_hosts(worker_listeners, tmp_path):
    """A hosts-mode executor on one TCP and one unix ``repro worker``."""
    return ProcessExecutor(hosts=worker_listeners(["127.0.0.1:0", str(tmp_path / "w1.sock")]))


@pytest.fixture(params=EXECUTORS)
def started(request, worker_listeners, tmp_path):
    """Each implementation, started with two workers."""
    if request.param == "serial":
        ex = SerialExecutor(2)
    elif request.param == "thread":
        ex = ThreadExecutor(2)
    elif request.param == "hosts":
        ex = two_hosts(worker_listeners, tmp_path)
    else:
        ex = ProcessExecutor(2, start_method=request.param)
    ex.start(EchoFactory())
    yield ex
    ex.shutdown()


class TestConformance:
    def test_satisfies_protocol(self, started):
        ex = started
        assert isinstance(ex, EngineExecutor)
        assert ex.workers == 2

    def test_echo_roundtrip(self, started):
        ex = started
        value, calls = ex.submit(0, "echo", {"k": [1, 2]}).result()
        assert value == {"k": [1, 2]}
        assert calls == 1

    def test_per_worker_fifo_ordering(self, started):
        """Commands execute in submission order even when the caller
        collects the futures in reverse."""
        ex = started
        futs = [ex.submit(0, "echo", i) for i in range(5)]
        last_payload, last_calls = futs[-1].result()  # drains everything before it
        assert (last_payload, last_calls) == (4, 5)
        for i, fut in enumerate(futs):
            assert fut.done()
            assert fut.result() == (i, i + 1)

    def test_host_state_is_per_worker(self, started):
        ex = started
        ex.submit(0, "echo").result()
        ex.submit(0, "echo").result()
        _, calls_w1 = ex.submit(1, "echo").result()
        assert calls_w1 == 1  # worker 1's host never saw worker 0's commands

    def test_array_payload_roundtrip_bitwise(self, started):
        """Arrays reach the worker in the payload and come back in the
        reply bit for bit — the engine's one data plane."""
        ex = started
        arr = np.array([np.nan, -0.0, 5e-324, 1.0 / 3.0])
        out, _ = ex.submit(1, "echo", {"x": arr}).result()
        assert out["x"].dtype == np.float64
        assert out["x"].tobytes() == arr.tobytes()

    def test_host_exception_becomes_worker_failure(self, started):
        ex = started
        fut = ex.submit(1, "boom")
        with pytest.raises(WorkerFailure, match="intentional kaboom") as exc_info:
            fut.result()
        assert exc_info.value.worker == 1
        assert "ValueError" in exc_info.value.remote_traceback
        # the host survives its own exception; the worker stays usable
        assert ex.submit(1, "echo", "still alive").result()[0] == "still alive"

    def test_exception_accessor(self, started):
        ex = started
        exc = ex.submit(0, "boom").exception()
        assert isinstance(exc, WorkerFailure)

    def test_submit_after_shutdown_raises(self, started):
        ex = started
        ex.shutdown()
        with pytest.raises(ExecutorError):
            ex.submit(0, "echo")

    def test_shutdown_idempotent(self, started):
        ex = started
        ex.shutdown()
        ex.shutdown()

    def test_start_twice_raises(self, started):
        ex = started
        with pytest.raises(ExecutorError):
            ex.start(EchoFactory())


PROCESS_PATHS = ["spawn"] + (["fork"] if HAVE_FORK else []) + ["hosts"]


def start_process_path(path, tmp_path):
    """A started two-worker process executor on `path`, plus the two
    worker processes behind it: its own children, or (hosts mode) two
    ``repro worker`` listener processes on unix sockets."""
    if path != "hosts":
        ex = ProcessExecutor(2, start_method=path)
        ex.start(EchoFactory())
        return ex, ex._procs
    ctx = mp.get_context(LOCAL_METHOD)
    paths = [str(tmp_path / f"dead-w{i}.sock") for i in range(2)]
    procs = [ctx.Process(target=run_worker, kwargs={"unix": p, "once": True}, daemon=True)
             for p in paths]
    for proc in procs:
        proc.start()
    ex = ProcessExecutor(hosts=paths)  # dialing retries until the listeners bind
    try:
        ex.start(EchoFactory())
    except BaseException:
        for proc in procs:
            proc.kill()
            proc.join()
        raise
    return ex, procs


class TestProcessSpecific:
    @pytest.mark.parametrize("method", ["spawn"] + (["fork"] if HAVE_FORK else []))
    def test_work_runs_out_of_process(self, method):
        ex = ProcessExecutor(1, start_method=method)
        try:
            ex.start(EchoFactory())
            assert ex.submit(0, "pid").result() != os.getpid()
        finally:
            ex.shutdown()

    def test_dead_worker_fails_its_futures(self, tmp_path):
        for path in PROCESS_PATHS:
            ex, procs = start_process_path(path, tmp_path)
            try:
                dead = ex.submit(0, "die")
                queued = ex.submit(0, "echo", "never")
                with pytest.raises(WorkerFailure, match="worker process died"):
                    dead.result()
                with pytest.raises(WorkerFailure):
                    queued.result()
                # the other worker is unaffected
                assert ex.submit(1, "echo", "ok").result()[0] == "ok", path
            finally:
                ex.shutdown()
                for proc in procs:
                    proc.join(timeout=10.0)
            assert not any(proc.is_alive() for proc in procs), path

    def test_submit_to_exited_worker_is_worker_failure(self, tmp_path):
        """Sending to a worker whose process has already exited yields
        the typed failure, not the socket's OS error, and fails the
        worker's queued future with it — on every process path."""
        for path in PROCESS_PATHS:
            ex, procs = start_process_path(path, tmp_path)
            try:
                dead = ex.submit(0, "die")
                procs[0].join(timeout=30.0)
                assert not procs[0].is_alive(), path
                with pytest.raises(WorkerFailure, match="worker process died"):
                    ex.submit(0, "echo", "never").result()
                assert dead.done(), path
                with pytest.raises(WorkerFailure, match="worker process died"):
                    dead.result()
                with pytest.raises(WorkerFailure):  # and it stays failed
                    ex.submit(0, "echo", "again").result()
                assert ex.submit(1, "echo", "ok").result()[0] == "ok", path
            finally:
                ex.shutdown()
                for proc in procs:
                    proc.join(timeout=10.0)
            assert not any(proc.is_alive() for proc in procs), path

    def test_serial_runs_in_process(self):
        ex = SerialExecutor(1)
        try:
            ex.start(EchoFactory())
            assert ex.submit(0, "pid").result() == os.getpid()
        finally:
            ex.shutdown()

    def test_thread_runs_in_process(self):
        ex = ThreadExecutor(1)
        try:
            ex.start(EchoFactory())
            assert ex.submit(0, "pid").result() == os.getpid()
        finally:
            ex.shutdown()


class TestMakeExecutor:
    def test_names(self):
        assert isinstance(make_executor("serial", workers=2), SerialExecutor)
        ex = make_executor("spawn", workers=2)
        assert isinstance(ex, ProcessExecutor) and ex.start_method == "spawn"
        assert isinstance(make_executor("process", workers=2), ProcessExecutor)
        assert isinstance(make_executor("thread", workers=2), ThreadExecutor)
        assert isinstance(make_executor(None, workers=2), ProcessExecutor)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError, match="unknown executor"):
            make_executor("threads", workers=2)

    def test_instance_passthrough(self):
        inst = SerialExecutor(3)
        assert make_executor(inst, workers=2) is inst

    def test_bad_worker_counts(self):
        with pytest.raises(ExecutorError):
            SerialExecutor(0)
        with pytest.raises(ExecutorError):
            ProcessExecutor(0)
        with pytest.raises(ExecutorError):
            ThreadExecutor(0)

    def test_bad_process_configuration(self):
        with pytest.raises(ExecutorError, match="start method"):
            ProcessExecutor(2, start_method="carrier-pigeon")
        with pytest.raises(ExecutorError, match="disagrees"):
            ProcessExecutor(3, hosts=["a:1", "b:2"])
        with pytest.raises(ExecutorError, match="127.0.0.1:abc"):
            ProcessExecutor(hosts=["127.0.0.1:abc"])

    def test_removed_socket_names_rejected(self):
        for name in ("tcp", "unix"):
            with pytest.raises(ExecutorError, match="unknown executor"):
                make_executor(name, workers=2)


class TestEngineAcrossExecutors:
    def test_forces_bitwise_identical(self, worker_listeners, tmp_path):
        """The engine's physics must not depend on the executor."""
        from repro.core.tersoff.parameters import tersoff_si
        from repro.core.tersoff.production import TersoffProduction
        from repro.md.lattice import diamond_lattice, perturbed
        from repro.parallel.engine import ParallelEngine

        system = perturbed(diamond_lattice(2, 2, 2), 0.1, seed=13)

        def run(executor):
            pot = TersoffProduction(tersoff_si())
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                                executor=executor) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        results = [run(ex) for ex in
                   ("serial", "thread", "spawn", *(("fork",) if HAVE_FORK else ()),
                    two_hosts(worker_listeners, tmp_path))]
        e0, f0 = results[0]
        for energy, forces in results[1:]:
            assert energy == e0
            assert np.array_equal(forces, f0)
