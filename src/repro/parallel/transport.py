"""Socket transport and the cluster executor: real inter-process halo
exchange under the :class:`~repro.parallel.executor.EngineExecutor`
protocol.

Ranks run in separate processes (same host or not) connected by
length-prefixed, CRC-framed messages over TCP or unix-domain sockets.
The engine's step messages carry the same payloads here as on every
other executor: each rank's ghost-region positions go out, its
owned-force slab comes back.

Wire format
-----------
Every message is exactly one :mod:`repro.state.format` frame (magic
``RSF1``, flags, length, CRC32) whose payload is a pickled
``(kind, body)`` tuple.  Pickle round-trips numpy float64 arrays
bit-exactly (``tobytes`` semantics), which is what makes the cluster
data plane satisfy the engine's bitwise determinism contract; the frame
CRC turns line corruption into a typed error instead of silently wrong
physics.  Compression is off — positions/forces are high-entropy and
the hot path is latency-bound.

Corruption semantics reuse :mod:`repro.state.format`'s taxonomy:

- :class:`TornFrameError` — the stream ended mid-frame (peer died,
  connection reset, short read); maps ``TruncatedStateError``.
- :class:`CorruptFrameError` — bytes arrived complete but wrong (bad
  magic, CRC mismatch, undecodable payload); maps
  ``CorruptStateError``.

Security note: the handshake ships a pickled host factory, so a worker
will execute code from whoever connects to it.  This is the same trust
model as MPI — run workers only on hosts you control, bound to
interfaces you trust (the spawned-pool mode binds loopback/unix sockets
only).
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import socket
import struct
import tempfile
import time
import traceback
import weakref
from collections import deque

from repro.parallel.executor import ExecutorError, WorkerFailure, _ChannelFuture
from repro.state.format import (
    CorruptStateError,
    TruncatedStateError,
    read_frame,
    write_frame,
)


class TransportError(RuntimeError):
    """The socket transport is unusable or received unusable bytes."""


class TornFrameError(TransportError):
    """The stream ended mid-frame: short read, reset, or dead peer."""


class CorruptFrameError(TransportError):
    """A complete frame arrived with wrong bytes (magic/CRC/payload)."""


#: Sentinel returned by :meth:`FramedConnection.recv` at a clean EOF
#: *between* messages (peer closed the connection deliberately).
CLOSED = object()


def encode_message(obj) -> bytes:
    """The full wire bytes of one message (frame + pickled payload)."""
    buf = io.BytesIO()
    write_frame(buf, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                compress=False)
    return buf.getvalue()


def decode_message(data: bytes):
    """Inverse of :func:`encode_message` (one message from its bytes)."""
    conn = io.BytesIO(data)
    payload = _read_frame_typed(conn)
    if payload is None:
        raise TornFrameError("empty buffer where a message frame was expected")
    return _loads_typed(payload)


def _read_frame_typed(fh):
    """`read_frame` with errors mapped to the transport taxonomy."""
    try:
        return read_frame(fh)
    except TruncatedStateError as exc:
        raise TornFrameError(str(exc)) from exc
    except CorruptStateError as exc:
        raise CorruptFrameError(str(exc)) from exc


def _loads_typed(payload: bytes):
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but content is not a message
        raise CorruptFrameError(f"message payload does not unpickle: {exc!r}") from exc


class _CountingReader:
    """File-like read adapter over a socket that counts received bytes."""

    def __init__(self, fh):
        self._fh = fh
        self.count = 0

    def read(self, n: int = -1) -> bytes:
        try:
            data = self._fh.read(n)
        except (OSError, ValueError) as exc:
            raise TornFrameError(f"connection lost while receiving: {exc!r}") from exc
        self.count += len(data)
        return data


class FramedConnection:
    """One duplex, framed, byte-counted connection.

    ``send`` writes one frame; ``recv`` reads one, returning
    :data:`CLOSED` at a clean EOF between messages and raising
    :class:`TornFrameError` / :class:`CorruptFrameError` otherwise.
    ``bytes_sent`` / ``bytes_received`` count actual wire bytes
    (headers included) — the engine's *measured* traffic numbers.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = _CountingReader(sock.makefile("rb"))
        self.bytes_sent = 0

    @property
    def bytes_received(self) -> int:
        return self._reader.count

    def send(self, obj) -> int:
        data = encode_message(obj)
        try:
            self._sock.sendall(data)
        except (OSError, ValueError) as exc:
            raise TornFrameError(f"connection lost while sending: {exc!r}") from exc
        self.bytes_sent += len(data)
        return len(data)

    def recv(self):
        pos = self._reader.count
        payload = _read_frame_typed(self._reader)
        if payload is None:
            if self._reader.count != pos:  # pragma: no cover - defensive
                raise TornFrameError("stream ended inside a frame header")
            return CLOSED
        return _loads_typed(payload)

    def close(self) -> None:
        for closer in (self._reader._fh.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def serve_worker_connection(conn: FramedConnection) -> None:
    """Serve one engine session on an established connection.

    Protocol: the host sends ``("__init__", {worker, factory})``; the
    worker builds the host object with ``factory()``, acks, then serves
    ``(cmd, payload)`` messages until ``__exit__``/EOF.
    ``__ping__`` echoes its payload (calibration RTTs) without touching
    the host object.
    """
    msg = conn.recv()
    if msg is CLOSED:
        return
    kind, body = msg
    if kind != "__init__":
        raise TransportError(f"expected __init__ handshake, got {kind!r}")
    host = None
    try:
        host = body["factory"]()
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ok", {"worker": body["worker"], "pid": os.getpid()}))
    try:
        while True:
            msg = conn.recv()
            if msg is CLOSED:
                break
            cmd, payload = msg
            if cmd == "__exit__":
                break
            if cmd == "__ping__":
                conn.send(("ok", payload))
                continue
            try:
                conn.send(("ok", host.handle(cmd, payload)))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        close = getattr(host, "close", None)
        if close is not None:
            close()


def _socket_worker_main(family: int, address, token: str, worker: int) -> None:
    """Entry point of a spawned cluster worker: dial home and serve."""
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(address)
    conn = FramedConnection(sock)
    try:
        conn.send(("__hello__", {"worker": worker, "token": token}))
        serve_worker_connection(conn)
    except (TornFrameError, CorruptFrameError):
        pass  # host died or stream broke; nothing to report to
    finally:
        conn.close()


def run_worker(*, bind: str | None = None, unix: str | None = None,
               once: bool = False, _ready=None) -> int:
    """``repro worker``: listen and serve engine sessions sequentially.

    ``bind`` is ``"host:port"`` for TCP (port 0 picks a free one);
    ``unix`` is a filesystem socket path.  Each accepted connection is
    one engine session (``__init__`` ... ``__exit__``); sessions are
    served one at a time.  ``once`` exits after the first session —
    what the CI cluster-equivalence job uses.
    """
    if (bind is None) == (unix is None):
        raise TransportError("exactly one of bind='host:port' or unix=path required")
    if bind is not None:
        host, _, port = bind.rpartition(":")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host or "127.0.0.1", int(port)))
        where = "%s:%d" % listener.getsockname()[:2]
    else:
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(unix)
        where = unix
    listener.listen(1)
    print(f"repro worker listening on {where}", flush=True)
    if _ready is not None:  # test hook: report the bound address
        _ready(listener.getsockname())
    try:
        while True:
            sock, _ = listener.accept()
            conn = FramedConnection(sock)
            try:
                serve_worker_connection(conn)
            except (TornFrameError, CorruptFrameError) as exc:
                print(f"repro worker: session aborted: {exc}", flush=True)
            finally:
                conn.close()
            if once:
                return 0
    finally:
        listener.close()
        if unix is not None and os.path.exists(unix):
            os.unlink(unix)


# ---------------------------------------------------------------------------
# host side: the cluster executor
# ---------------------------------------------------------------------------


def _cleanup_cluster(conns, procs, listeners, paths) -> None:
    """Finalizer: stop workers, close sockets, remove unix socket files."""
    for conn in conns:
        try:
            conn.send(("__exit__", None))
        except TransportError:
            pass
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.join(timeout=3.0)
        if proc.is_alive():  # pragma: no cover - stuck worker safety net
            proc.terminate()
            proc.join(timeout=1.0)
    for listener in listeners:
        try:
            listener.close()
        except OSError:  # pragma: no cover
            pass
    for path in paths:  # socket file first, then its tmpdir
        try:
            if os.path.isdir(path):
                os.rmdir(path)
            elif os.path.exists(path):
                os.unlink(path)
        except OSError:  # pragma: no cover
            pass


class ClusterExecutor:
    """:class:`EngineExecutor` over framed sockets.

    Two deployment modes:

    - **Spawned pool** (default): ``workers`` local processes are
      spawned and dial back over loopback TCP (``transport="tcp"``) or
      a unix-domain socket (``transport="unix"``).  Functionally the
      multi-node layout, with every byte crossing a real socket —
      this is what the equivalence tests and CI pin down.
    - **Pre-started listeners** (``hosts=[...]``): connect to
      ``repro worker`` processes already listening at ``host:port``
      addresses (one worker per address) — the actual multi-host mode.

    Per step only halo-sized messages cross the sockets: the engine's
    ghost-only step payloads and owned-force-slab replies.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        transport: str = "tcp",
        hosts: list[str] | None = None,
        start_method: str | None = None,
        connect_timeout: float = 30.0,
    ):
        if transport not in ("tcp", "unix"):
            raise ExecutorError(f"unknown transport {transport!r}; expected 'tcp' or 'unix'")
        self.hosts = list(hosts) if hosts else None
        if self.hosts:
            if workers is not None and workers != len(self.hosts):
                raise ExecutorError(
                    f"workers={workers} disagrees with {len(self.hosts)} --hosts addresses")
            self.workers = len(self.hosts)
        else:
            if workers is None or workers < 1:
                raise ExecutorError("need at least one worker (or a hosts list)")
            self.workers = int(workers)
        self.transport = transport
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.start_method = start_method
        self.connect_timeout = float(connect_timeout)
        self._conns: list[FramedConnection] = []
        self._procs: list = []
        self._pending: list[deque] = []
        self._tmpdir: str | None = None
        self._started = False
        self._shutdown = False
        self._finalizer = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self, host_factory) -> None:
        if self._started:
            raise ExecutorError("executor already started")
        try:
            if self.hosts:
                self._connect_listeners()
            else:
                self._spawn_pool()
            for w, conn in enumerate(self._conns):
                conn.send(("__init__", {"worker": w, "factory": host_factory}))
            for w, conn in enumerate(self._conns):
                msg = conn.recv()
                if msg is CLOSED:
                    raise ExecutorError(f"worker {w} closed during handshake")
                status, value = msg
                if status != "ok":
                    raise WorkerFailure(w, value)
        except Exception:
            _cleanup_cluster(self._conns, self._procs, [], self._cleanup_paths())
            raise
        self._pending = [deque() for _ in range(self.workers)]
        self._started = True
        self._finalizer = weakref.finalize(
            self, _cleanup_cluster, self._conns, self._procs, [],
            self._cleanup_paths())

    def _cleanup_paths(self) -> list[str]:
        if self._tmpdir is None:
            return []
        return [os.path.join(self._tmpdir, "cluster.sock"), self._tmpdir]

    def _spawn_pool(self) -> None:
        """Spawn local workers that dial back through a real socket."""
        if self.transport == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            family, address = socket.AF_INET, listener.getsockname()
        else:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-cluster-")
            path = os.path.join(self._tmpdir, "cluster.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            family, address = socket.AF_UNIX, path
        listener.listen(self.workers)
        listener.settimeout(self.connect_timeout)
        token = os.urandom(8).hex()
        ctx = mp.get_context(self.start_method)
        try:
            for w in range(self.workers):
                proc = ctx.Process(
                    target=_socket_worker_main,
                    args=(int(family), address, token, w),
                    daemon=True,
                    name=f"repro-cluster-{w}",
                )
                proc.start()
                self._procs.append(proc)
            by_worker: dict[int, FramedConnection] = {}
            for _ in range(self.workers):
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    raise ExecutorError(
                        f"cluster workers did not connect within {self.connect_timeout}s")
                conn = FramedConnection(sock)
                kind, hello = conn.recv()
                if kind != "__hello__" or hello.get("token") != token:
                    conn.close()
                    raise ExecutorError("unexpected peer on the cluster listener")
                by_worker[int(hello["worker"])] = conn
            self._conns = [by_worker[w] for w in range(self.workers)]
        finally:
            listener.close()

    def _connect_listeners(self) -> None:
        """Dial pre-started ``repro worker`` listeners (hosts mode)."""
        for w, spec in enumerate(self.hosts):
            if ":" in spec:
                host, _, port = spec.rpartition(":")
                family, address = socket.AF_INET, (host or "127.0.0.1", int(port))
            else:  # a unix socket path
                family, address = socket.AF_UNIX, spec
            deadline = time.monotonic() + self.connect_timeout
            while True:
                sock = socket.socket(family, socket.SOCK_STREAM)
                try:
                    sock.connect(address)
                    break
                except OSError:
                    sock.close()
                    if time.monotonic() >= deadline:
                        raise ExecutorError(
                            f"cannot reach worker {w} at {spec!r} "
                            f"within {self.connect_timeout}s")
                    time.sleep(0.05)
            self._conns.append(FramedConnection(sock))

    # -- dispatch -----------------------------------------------------------------

    def submit(self, worker: int, cmd: str, payload: object = None):
        if not self._started or self._shutdown:
            raise ExecutorError("executor not started (or shut down)")
        try:
            self._conns[worker].send((cmd, payload))
        except TransportError as exc:
            raise WorkerFailure(worker, f"worker connection lost: {exc}") from exc
        fut = _ChannelFuture(self, worker)
        self._pending[worker].append(fut)
        return fut

    def _drain_until(self, worker: int, fut) -> None:
        """Receive replies (FIFO per worker) until `fut` is resolved."""
        pending = self._pending[worker]
        while not fut.done():
            if not pending:  # pragma: no cover - internal invariant
                raise ExecutorError("future already drained but not done")
            head = pending.popleft()
            try:
                msg = self._conns[worker].recv()
            except (TornFrameError, CorruptFrameError) as exc:
                detail = f"worker connection failed: {exc}"
                head.set_exception(WorkerFailure(worker, detail))
                while pending:
                    pending.popleft().set_exception(WorkerFailure(worker, detail))
                return
            if msg is CLOSED:
                detail = "worker process died: connection closed"
                head.set_exception(WorkerFailure(worker, detail))
                while pending:
                    pending.popleft().set_exception(WorkerFailure(worker, detail))
                return
            status, value = msg
            if status == "error":
                head.set_exception(WorkerFailure(worker, value))
            else:
                head.set_result(value)

    # -- measurement --------------------------------------------------------------

    def wire_bytes(self) -> tuple[int, int]:
        """Cumulative ``(sent, received)`` wire bytes over all workers."""
        sent = sum(c.bytes_sent for c in self._conns)
        received = sum(c.bytes_received for c in self._conns)
        return sent, received

    def calibrate(self, *, sizes=(1 << 10, 1 << 16, 1 << 20), repeats: int = 3):
        """Fit an alpha-beta :class:`~repro.perf.network.NetworkModel`
        from measured ping round-trips at several payload sizes.

        This is the measured replacement for the analytic fabric
        constants: one-way time is taken as RTT/2 over the actual frame
        bytes on the wire.
        """
        from repro.perf.network import fit_network_model

        if not self._started or self._shutdown:
            raise ExecutorError("executor not started (or shut down)")
        conn = self._conns[0]
        samples = []
        for size in sizes:
            blob = b"\x00" * int(size)
            for _ in range(repeats):
                sent0 = conn.bytes_sent
                t0 = time.perf_counter()
                fut = self.submit(0, "__ping__", blob)
                fut.result()
                rtt = time.perf_counter() - t0
                samples.append((conn.bytes_sent - sent0, rtt / 2.0))
        return fit_network_model(samples, name=f"measured-{self.transport}")

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _cleanup_cluster(self._conns, self._procs, [], self._cleanup_paths())
