"""Shared machinery of the end-to-end benchmark.

Everything here is outside the program under test: environment and
precondition checks, the host fingerprint, the resource-leak audit,
peak-RSS sampling, cold-start setup probes, the span tracer that wraps
public entry points from the outside, and the result line.

Paths: the benchmark runs from the root of a source checkout and keeps
everything it writes under ``.perfbench/`` there (C-extension cache,
per-run scratch directories, traces, the digest record).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CEXT_CACHE = STATE / "cext"
SCRATCH = STATE / "tmp"
TRACES = STATE / "traces"
DIGESTS = STATE / "digests.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Generous ceiling for one cold-start probe (interpreter start, imports,
#: input generation, solver build, first force evaluation).
PROBE_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """A precondition failed; the benchmark exits without a result."""


# ---------------------------------------------------------------------------
# environment and preconditions
# ---------------------------------------------------------------------------


def prepare_env() -> dict:
    """Point imports and the C-extension cache into this checkout.

    Returns the environment for subprocesses (server, probes).  Raises
    :class:`BenchError` when the checkout holds no ``src/repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC} (expected src/repro)")
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_CEXT_CACHE"] = str(CEXT_CACHE)
    os.environ.pop("REPRO_NO_CEXT", None)
    os.environ.pop("REPRO_COMPILED_STRATEGY", None)
    for d in (CEXT_CACHE, SCRATCH, TRACES):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_compiled_backend() -> float:
    """Fail loudly unless the compiled backend runs its C strategy here,
    and build the shared object into the benchmark's own cache.

    Returns the seconds the warm-up took (0-ish when already cached), so
    that no timed setup ever includes a one-time compile.
    """
    from repro.backends import BackendUnavailableError, cext, resolve
    from repro.backends.compiled import pick_strategy

    try:
        resolve("compiled", fallback=False)
    except BackendUnavailableError as exc:
        raise BenchError(f"compiled backend unavailable: {exc}") from exc
    if pick_strategy() != "cext":
        raise BenchError("compiled backend would not use the C strategy (cext)")
    t0 = time.perf_counter()
    try:
        cext.build()
        cext.load()
    except cext.CextBuildError as exc:
        raise BenchError(str(exc)) from exc
    return time.perf_counter() - t0


def check_compiled(potential) -> None:
    """The built solver really runs the C kernel (no numpy fallback)."""
    kernel = getattr(potential, "kernel", None)
    if getattr(potential, "backend_name", None) != "compiled" or \
            getattr(kernel, "strategy", None) != "cext":
        raise BenchError(
            f"solver runs backend {getattr(potential, 'backend_name', None)!r} "
            f"strategy {getattr(kernel, 'strategy', None)!r}, not compiled/cext"
        )


def host_fingerprint() -> dict:
    """What the numbers were measured on."""
    import numpy as np
    from repro.backends import cext

    cc = cext.find_compiler()
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": cext._compiler_identity(cc) if cc else None,
    }


# ---------------------------------------------------------------------------
# processes, memory and leaks
# ---------------------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    """Live (or unreaped) descendant pids of `pid`, from /proc."""
    out: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process whose parent exits first is then re-parented to this one
    instead of to init, so :func:`end_processes` can still wait for it.
    Best effort: elsewhere only direct children are waited for.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def end_processes(timeout: float = 10.0) -> list[str]:
    """Stop every process this one started, and wait for each to end.

    Stops the stdlib's shared-memory resource tracker (a helper that
    would otherwise outlive this interpreter by a moment, orphaned),
    then waits for every remaining descendant; what is still alive after
    `timeout` seconds is killed.  Returns a line per killed process.
    Safe to call more than once.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    multiprocessing.active_children()
    killed: list[str] = []
    if _wait_descendants(timeout):
        return killed
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
        killed.append(f"process {pid} killed at exit: {cmd[:120]}")
    _wait_descendants(timeout)
    return killed


def _wait_descendants(timeout: float) -> bool:
    """Reap ended children until no descendant is left (True) or
    `timeout` seconds have passed (False)."""
    deadline = time.monotonic() + timeout
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid == 0:
                break
        if not descendants(os.getpid()):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant (MiB).

    Sampled while the workers/server are still alive; forked workers
    share copy-on-write pages with the host, which this sum counts once
    per process.
    """
    pids = [os.getpid(), *descendants(os.getpid())]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class LeakAudit:
    """Resources a run must give back: processes, shared memory, paths.

    Construct before the run; :meth:`check` lists every leak found after
    it (each one counts as a failed operation).
    """

    def __init__(self):
        self._shm = _shm_names()

    def check(self, paths=()) -> list[str]:
        import multiprocessing
        from multiprocessing import resource_tracker

        multiprocessing.active_children()  # reaps finished pool workers
        # the stdlib's shared-memory resource tracker is one helper per
        # interpreter that lives until this process exits, not a per-run
        # resource
        tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
        leaks = []
        for pid in descendants(os.getpid()):
            if pid == tracker:
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmd = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
            except OSError:
                cmd = "?"
            leaks.append(f"process {pid} still alive or unreaped: {cmd[:120]}")
        for name in sorted(_shm_names() - self._shm):
            leaks.append(f"/dev/shm segment left behind: {name}")
        for p in paths:
            if os.path.lexists(p):
                leaks.append(f"path left behind: {p}")
        return leaks


@contextmanager
def scratch_dir(tag: str):
    """A per-run scratch directory under ``.perfbench/tmp``.

    Yields a holder with ``path``, ``expected`` and ``strays``; on exit
    records as strays the entries not named in ``expected`` and removes
    the directory.  Usage::

        with scratch_dir("md") as sd:
            ... write under sd.path ...
            sd.expected = {"run.ckpt", ...}
        sd.strays  # leaked temp files
    """
    holder = _Scratch(SCRATCH / f"{tag}-{os.getpid()}-{time.monotonic_ns()}")
    holder.path.mkdir(parents=True)
    try:
        yield holder
    finally:
        holder.strays = sorted(
            str(p.relative_to(ROOT)) for p in holder.path.iterdir()
            if p.name not in holder.expected
        )
        shutil.rmtree(holder.path, ignore_errors=True)


class _Scratch:
    def __init__(self, path: Path):
        self.path = path
        self.expected: set[str] = set()
        self.strays: list[str] = []


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line from `proc` within `timeout`, else ``""``."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + timeout
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0:
            return ""
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            return ""
        chunk = os.read(fd, 1)
        if not chunk:
            return ""
        buf += chunk
    return buf.decode().strip()


def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> bool:
    """Wait for `proc` (already told to stop); kill on timeout.

    Returns True when it ended on its own.
    """
    try:
        proc.wait(timeout=timeout)
        clean = True
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        clean = False
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return clean


def probe_setup(workload: str, seed: int, env: dict, *, small: bool = False) -> tuple[float, str]:
    """Time one cold start of `workload` in a fresh interpreter.

    The clock runs from just before the interpreter is launched until
    the probe reports its first force evaluation done; returns
    ``(seconds, first-force digest)``.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    if small:
        cmd.append("--small")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = read_line(proc, PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        err = proc.stderr.read().decode(errors="replace")
        stop_process(proc)
        raise BenchError(f"setup probe for {workload} failed: {line!r}\n{err[-2000:]}")
    clean = stop_process(proc, timeout=PROBE_TIMEOUT_S)
    if not clean or proc.returncode != 0:
        raise BenchError(f"setup probe for {workload} exited with {proc.returncode}")
    return elapsed, line.split()[1]


# ---------------------------------------------------------------------------
# checks and statistics
# ---------------------------------------------------------------------------


def digest_arrays(*arrays) -> str:
    """sha256 over the raw bytes of the arrays (bitwise identity)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(a).cast("B") if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()[:32]


def check_recorded_digest(key: str, digest: str) -> bool:
    """Compare against (or record) the digest an earlier run of this
    checkout saw for the same workload, seed and step."""
    try:
        record = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        record = {}
    seen = record.get(key)
    if seen is None:
        record[key] = digest
        tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, DIGESTS)
        return True
    return seen == digest


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# span tracer
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start, end, parent, op, lane, index]``: ``parent``
    is the index of the enclosing span on the same thread (``None`` at
    top level), ``op`` the step or request id current on that thread.
    Spans stay in memory; :meth:`write_chrome` writes them once, as
    Chrome trace-event JSON.  :meth:`wrap` patches a public attribute
    (class method, instance method or module function) and
    :meth:`restore` undoes every patch.
    """

    _MISSING = object()

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_op(self, op, lane: str = "main") -> None:
        self._local.op = op
        self._local.lane = lane

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
                   getattr(self._local, "op", None), getattr(self._local, "lane", "main"),
                   len(self.spans)]
            self.spans.append(rec)
        stack.append(rec[6])
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, *, parent=None, op=None,
            lane: str = "main") -> None:
        """Record a span measured elsewhere (e.g. worker-side timers)."""
        with self._lock:
            self.spans.append([name, start, end, parent, op, lane, len(self.spans)])

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(out, rec)
            return out

        self._patches.append((owner, attr, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, before = self._patches.pop()
            if before is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

    def adopt(self, root: str) -> None:
        """Parent every top-level span under the `root` span of the same
        op and lane (steps are recorded when they end, after their
        children)."""
        roots = {(s[4], s[5]): s[6] for s in self.spans if s[0] == root}
        for s in self.spans:
            if s[3] is None and s[0] != root and (s[4], s[5]) in roots:
                s[3] = roots[(s[4], s[5])]

    # -- reading --------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per-name self time: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[2] is not None:
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child[i]
        return out

    def self_time_line(self) -> str:
        """Self time per span name, largest first, for the run log."""
        ranked = sorted(self.self_times().items(), key=lambda kv: -kv[1])
        return "self time: " + ", ".join(f"{name} {t:.3f} s" for name, t in ranked)

    def write_chrome(self, path: Path, meta: dict) -> None:
        base = min((s[1] for s in self.spans), default=0.0)
        lanes: dict[str, int] = {}
        events = []
        for name, t0, t1, parent, op, lane, i in self.spans:
            if t1 is None:
                continue
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": os.getpid(), "tid": lanes.setdefault(lane, len(lanes)),
                "args": {"id": i, "parent": parent, "op": op},
            })
        for lane, tid in lanes.items():
            events.append({"name": "thread_name", "ph": "M", "pid": os.getpid(),
                           "tid": tid, "args": {"name": lane}})
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                   "otherData": meta}))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------


def metric_table() -> dict[str, dict[str, dict]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from
    BENCHMARK.json — the one place metric names and units are defined."""
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_FILE.name}: {exc}") from exc
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def result_line(*, correct: bool, attempted: int, failed: int, values: dict,
                kind: str) -> str:
    """The final JSON line; `values` must cover exactly the metrics of
    `kind` (``end_to_end`` or ``per_layer``)."""
    table = metric_table()[kind]
    missing = sorted(set(table) - set(values))
    extra = sorted(set(values) - set(table))
    if missing or extra:
        raise BenchError(f"metric set mismatch for {kind}: missing {missing}, extra {extra}")
    metrics = {name: {"value": float(values[name]), "unit": table[name]["unit"]}
               for name in table}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def log(msg: str) -> None:
    print(msg, flush=True)
