"""Framed-socket transport and the process executor: every worker
process, local or remote, behind one message protocol.

:class:`ProcessExecutor` is the :class:`~repro.parallel.executor.EngineExecutor`
for ranks in other processes.  A local pool starts one process per
worker (``fork``, ``spawn`` or ``forkserver``) and talks to it over its
end of a ``socket.socketpair()``; ``hosts=[...]`` dials pre-started
``repro worker`` listeners (TCP ``host:port`` or unix socket paths)
instead.  Both speak the same length-prefixed, CRC-framed messages and
run the same worker serve loop, the same FIFO reply drain and the same
cleanup.  The engine's step messages carry the same payloads here as on
every other executor: each rank's ghost-region positions go out, its
owned-force slab comes back.

Wire format
-----------
Every message is exactly one :mod:`repro.state.format` frame (magic
``RSF1``, flags, length, CRC32) whose payload is a pickled
``(kind, body)`` tuple.  Pickle round-trips numpy float64 arrays
bit-exactly (``tobytes`` semantics), which is what makes the process
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

Security note: in hosts mode the handshake ships a pickled host
factory, so a ``repro worker`` will execute code from whoever connects
to it.  This is the same trust model as MPI — run workers only on hosts
you control, bound to interfaces you trust.  Local pools open no
listening socket at all.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import socket
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import Future

from repro.parallel.executor import ExecutorError, WorkerFailure
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
# addresses
# ---------------------------------------------------------------------------


def parse_address(spec: str) -> tuple[int, object]:
    """``(family, address)`` of a worker address string.

    ``"host:port"`` is TCP (an empty host means loopback; port 0 asks
    the kernel for a free one when listening); anything without a colon
    is a unix-domain socket path.  A malformed address is a
    :class:`TransportError` naming it.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise TransportError(f"empty worker address {spec!r}")
    if ":" not in spec:
        return socket.AF_UNIX, spec
    host, _, port = spec.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise TransportError(
            f"bad address {spec!r}: port {port!r} is not an integer in 0..65535")
    return socket.AF_INET, (host or "127.0.0.1", number)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _serve(conn: FramedConnection, host_factory) -> None:
    """The worker serve loop: build the host, ack, serve until exit.

    The ack (or the factory's traceback) is the first reply.  Then
    ``(cmd, payload)`` messages are answered in order until ``__exit__``
    or EOF; ``__ping__`` echoes its payload (calibration RTTs) without
    touching the host object.
    """
    try:
        host = host_factory()
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ok", os.getpid()))
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


def serve_worker_connection(conn: FramedConnection) -> None:
    """Serve one engine session on an accepted ``repro worker`` connection.

    The host opens with ``("__init__", {worker, factory})``; the session
    is then the shared serve loop with that factory.
    """
    msg = conn.recv()
    if msg is CLOSED:
        return
    kind, body = msg
    if kind != "__init__":
        raise TransportError(f"expected __init__ handshake, got {kind!r}")
    _serve(conn, body["factory"])


def _local_worker_main(sock: socket.socket, host_factory, inherited) -> None:
    """Entry point of a local pool worker: serve on its socket-pair end.

    ``inherited`` are the host-side connections a forked child copied
    from its parent; closing them here lets every worker see EOF the
    moment the host goes away.
    """
    for other in inherited:
        other.close()
    conn = FramedConnection(sock)
    try:
        _serve(conn, host_factory)
    except TransportError:
        pass  # host died or stream broke; nothing to report to
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        conn.close()


def run_worker(*, bind: str | None = None, unix: str | None = None,
               once: bool = False, _ready=None) -> int:
    """``repro worker``: listen and serve engine sessions sequentially.

    ``bind`` is ``"host:port"`` for TCP (port 0 picks a free one);
    ``unix`` is a filesystem socket path.  Each accepted connection is
    one engine session (``__init__`` ... ``__exit__``); sessions are
    served one at a time.  ``once`` exits after the first session —
    what the CI cluster-equivalence job uses.  A malformed or busy
    address is a :class:`TransportError` naming it.
    """
    if (bind is None) == (unix is None):
        raise TransportError("exactly one of bind='host:port' or unix=path required")
    if bind is not None:
        family, address = parse_address(bind)
        if family != socket.AF_INET:
            raise TransportError(f"bad TCP address {bind!r} (expected HOST:PORT)")
    else:
        family, address = socket.AF_UNIX, unix
    listener = socket.socket(family, socket.SOCK_STREAM)
    try:
        if family == socket.AF_INET:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(address)
        listener.listen(1)
    except OSError as exc:
        listener.close()
        raise TransportError(f"cannot listen on {bind or unix!r}: {exc}") from exc
    where = "%s:%d" % listener.getsockname()[:2] if bind is not None else unix
    print(f"repro worker listening on {where}", flush=True)
    if _ready is not None:  # test hook: report the bound address
        _ready(listener.getsockname())
    try:
        while True:
            sock, _ = listener.accept()
            conn = FramedConnection(sock)
            try:
                serve_worker_connection(conn)
            except TransportError as exc:
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
# host side: the process executor
# ---------------------------------------------------------------------------


class _ChannelFuture(Future):
    """Future bound to one worker's reply stream.

    Replies arrive strictly in submission order per worker, so
    ``result()`` drains the worker's pending queue up to and including
    this future.  Earlier futures resolved along the way become ``done``
    without anyone waiting on them — the engine is free to collect
    results in any order.
    """

    def __init__(self, executor: "ProcessExecutor", worker: int):
        super().__init__()
        self._executor = executor
        self._worker = worker

    def result(self, timeout=None):
        if not self.done():
            self._executor._drain_until(self._worker, self)
        return super().result(timeout)

    def exception(self, timeout=None):
        if not self.done():
            self._executor._drain_until(self._worker, self)
        return super().exception(timeout)


def _cleanup(conns, procs) -> None:
    """Finalizer: stop workers, close sockets, reap local processes."""
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


class ProcessExecutor:
    """One worker process per worker, every message a framed socket frame.

    Parameters
    ----------
    workers:
        Pool size; with ``hosts`` it may be ``None`` and must otherwise
        equal the number of addresses.
    start_method:
        ``"fork"``, ``"spawn"`` or ``"forkserver"`` for a local pool;
        default is fork where the platform offers it (nothing pickled),
        else spawn (the host factory and everything it captures must
        then pickle).
    hosts:
        Addresses of pre-started ``repro worker`` listeners, one worker
        per address (``host:port`` or a unix socket path).  The host
        factory travels pickled in the ``__init__`` handshake.
    connect_timeout:
        Seconds to keep retrying each ``hosts`` address.

    Futures are lazy: replies are drained from a worker's socket in FIFO
    order when ``result()`` is first called.  A worker that died fails
    its queued futures, and any later submit to it, with
    :class:`~repro.parallel.executor.WorkerFailure`.
    """

    def __init__(self, workers: int | None = None, *, start_method: str | None = None,
                 hosts: list[str] | None = None, connect_timeout: float = 30.0):
        self.hosts = list(hosts) if hosts else None
        if self.hosts:
            if workers is not None and workers != len(self.hosts):
                raise ExecutorError(
                    f"workers={workers} disagrees with {len(self.hosts)} --hosts addresses")
            try:
                self._addresses = [parse_address(h) for h in self.hosts]
            except TransportError as exc:
                raise ExecutorError(f"--hosts: {exc}") from exc
            workers = len(self.hosts)
        elif workers is None or workers < 1:
            raise ExecutorError("need at least one worker (or a hosts list)")
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        if start_method not in mp.get_all_start_methods():
            raise ExecutorError(
                f"start method {start_method!r} not available on this platform "
                f"(have: {', '.join(mp.get_all_start_methods())})"
            )
        self.workers = int(workers)
        self.start_method = start_method
        self.connect_timeout = float(connect_timeout)
        self._conns: list[FramedConnection] = []
        self._procs: list = []
        self._pending: list[deque] = []
        self._started = False
        self._shutdown = False
        self._finalizer = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self, host_factory) -> None:
        if self._started:
            raise ExecutorError("executor already started")
        try:
            if self.hosts:
                self._dial(host_factory)
            else:
                self._spawn(host_factory)
            for w, conn in enumerate(self._conns):
                msg = conn.recv()
                if msg is CLOSED:
                    raise ExecutorError(f"worker {w} closed during handshake")
                status, value = msg
                if status != "ok":
                    raise WorkerFailure(w, value)
        except BaseException:
            _cleanup(self._conns, self._procs)
            raise
        self._pending = [deque() for _ in range(self.workers)]
        self._started = True
        self._finalizer = weakref.finalize(self, _cleanup, self._conns, self._procs)

    def _spawn(self, host_factory) -> None:
        """Start local workers, each on one end of a socket pair."""
        ctx = mp.get_context(self.start_method)
        for w in range(self.workers):
            host_sock, child_sock = socket.socketpair()
            self._conns.append(FramedConnection(host_sock))
            # a forked child copies every host end opened so far
            inherited = list(self._conns) if self.start_method == "fork" else []
            try:
                proc = ctx.Process(
                    target=_local_worker_main,
                    args=(child_sock, host_factory, inherited),
                    daemon=True,
                    name=f"repro-exec-{w}",
                )
                proc.start()
            finally:
                child_sock.close()
            self._procs.append(proc)

    def _dial(self, host_factory) -> None:
        """Connect to pre-started ``repro worker`` listeners and ship the
        host factory in the ``__init__`` handshake."""
        for w, (spec, (family, address)) in enumerate(zip(self.hosts, self._addresses)):
            deadline = time.monotonic() + self.connect_timeout
            while True:
                sock = socket.socket(family, socket.SOCK_STREAM)
                try:
                    sock.connect(address)
                    break
                except OSError as exc:
                    sock.close()
                    if time.monotonic() >= deadline:
                        raise ExecutorError(
                            f"cannot reach worker {w} at {spec!r} "
                            f"within {self.connect_timeout}s: {exc}") from exc
                    time.sleep(0.05)
            self._conns.append(FramedConnection(sock))
            self._conns[-1].send(("__init__", {"worker": w, "factory": host_factory}))

    # -- dispatch -----------------------------------------------------------------

    def submit(self, worker: int, cmd: str, payload: object = None) -> Future:
        if not self._started or self._shutdown:
            raise ExecutorError("executor not started (or shut down)")
        try:
            self._conns[worker].send((cmd, payload))
        except TransportError as exc:
            # the worker is gone: resolve what it answered before it
            # died, fail everything else queued on it, and fail this
            # command's future the same way
            pending = self._pending[worker]
            if pending:
                self._drain_until(worker, pending[-1])
            fut = Future()
            fut.set_exception(WorkerFailure(worker, f"worker process died: {exc}"))
            return fut
        fut = _ChannelFuture(self, worker)
        self._pending[worker].append(fut)
        return fut

    def _drain_until(self, worker: int, fut: _ChannelFuture) -> None:
        """Receive replies (FIFO per worker) until `fut` is resolved."""
        pending = self._pending[worker]
        while not fut.done():
            if not pending:  # pragma: no cover - internal invariant
                raise ExecutorError("future already drained but not done")
            try:
                msg = self._conns[worker].recv()
            except TransportError as exc:
                self._fail_pending(worker, f"worker process died: {exc}")
                return
            if msg is CLOSED:
                self._fail_pending(worker, "worker process died: connection closed")
                return
            status, value = msg
            head = pending.popleft()
            if status == "error":
                head.set_exception(WorkerFailure(worker, value))
            else:
                head.set_result(value)

    def _fail_pending(self, worker: int, detail: str) -> None:
        """Fail every future queued on a dead worker."""
        pending = self._pending[worker]
        while pending:
            pending.popleft().set_exception(WorkerFailure(worker, detail))

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
        bytes on the wire.  The model is named after what it measured:
        ``measured-hosts`` or ``measured-<start method>``.
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
                self.submit(0, "__ping__", blob).result()
                rtt = time.perf_counter() - t0
                samples.append((conn.bytes_sent - sent0, rtt / 2.0))
        label = "hosts" if self.hosts else self.start_method
        return fit_network_model(samples, name=f"measured-{label}")

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _cleanup(self._conns, self._procs)
