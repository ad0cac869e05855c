"""The ``serve-fc-sweep`` workload: a finite-difference force-constant
sweep through a ``repro serve`` subprocess.

The input is a 1728-atom diamond Si cell disordered by a seeded 0.2 A
jitter.  Seeded atoms are displaced by +-0.01 A along each axis, one
request per displacement (six per atom), and the requests go to a
``repro serve --unix`` process from two closed-loop client connections:
each client sends its next request only after the previous reply, as a
batch caller does.  The server runs in its own process because the
client and an embedded server would contend for one interpreter lock.

Every response is checked bitwise against a direct
:class:`~repro.runtime.SolverSession` replay of the same requests.  The
traced mode wraps the client's codec entry points and replays each
request through ``decode_payload`` -> ``validate_request`` ->
``SolverPool.evaluate`` -> ``encode_payload`` in this process to time
the server-side stages; the timed runs keep the real subprocess.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import threading
import time

from harness import (
    ROOT,
    TRACES,
    BenchError,
    LeakAudit,
    Tracer,
    digest_arrays,
    log,
    median,
    peak_rss_mb,
    percentile,
    probe_setup,
    read_line,
    scratch_dir,
    stop_process,
)

NAME = "serve-fc-sweep"
CELLS = 6
SMALL_CELLS = 3
DISORDER_A = 0.2
DELTA_A = 0.01
CLIENTS = 2
SKIN = 1.0
PROBES = 7
SERVER_START_TIMEOUT_S = 120.0
#: An MD step advances 1 fs; ``md_ns_per_day`` on this workload is the
#: sweep's evaluation rate in that unit.
DT_PS = 0.001


def solver_dict() -> dict:
    from repro.runtime import SolverSpec

    return SolverSpec(potential="tersoff", mode="Opt-D", cache=True,
                      backend="compiled").to_dict()


def make_inputs(seed: int, small: bool = False):
    """``(base cell, displacement plan)``, derived only from `seed`.

    The plan lists ``(atom, axis, sign)`` for seeded atoms in a seeded
    order, six displacements per atom.
    """
    import numpy as np
    from repro.md.lattice import diamond_lattice, perturbed

    s_dis, s_pick = (int(v) for v in np.random.SeedSequence([seed, 23]).generate_state(2))
    cells = SMALL_CELLS if small else CELLS
    base = perturbed(diamond_lattice(cells, cells, cells), DISORDER_A, seed=s_dis)
    atoms = np.random.default_rng(s_pick).permutation(base.n)
    plan = [(int(a), axis, sign) for a in atoms for axis in range(3) for sign in (1, -1)]
    return base, plan


def request_system(base, plan, k: int):
    atom, axis, sign = plan[k % len(plan)]
    system = base.copy()
    system.x[atom, axis] += sign * DELTA_A
    return system


def response_digest(forces, energy: float, virial: float) -> str:
    import numpy as np

    return digest_arrays(np.ascontiguousarray(forces, dtype=np.float64),
                         np.array([energy, virial], dtype=np.float64))


class Server:
    """A ``repro serve --unix`` subprocess in a scratch directory."""

    def __init__(self, sdir, env: dict):
        sock = sdir.path / "serve.sock"
        # relative to the checkout root (the cwd of both processes):
        # AF_UNIX paths are limited to ~107 bytes
        self.address = os.path.relpath(sock, ROOT)
        self.stderr_path = sdir.path / "serve.stderr"
        sdir.expected.add(self.stderr_path.name)
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--unix", self.address,
                 "--skin", str(SKIN)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err)
        line = read_line(self.proc, SERVER_START_TIMEOUT_S)
        if not line.startswith("serving on"):
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}; "
                             f"{self.stderr_path.read_text()[-2000:]}")

    def stop(self) -> bool:
        """SIGINT (the CLI's clean shutdown) and reap; True if clean."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        clean = stop_process(self.proc)
        return clean and self.proc.returncode == 0

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(errors="replace")


def warm_up(address: str, base) -> str:
    """The first force evaluation: the undisplaced cell builds the
    session, its neighbor list and its staging."""
    from repro.serve import ServeClient

    with ServeClient(address) as client:
        out = client.evaluate(solver_dict(), base)
    return response_digest(out["forces"], out["energy"], out["virial"])


def server_counters(address: str) -> dict:
    from repro.serve import ServeClient

    with ServeClient(address) as client:
        st = client.stats()
    return {"batches": st["server"]["batches"],
            "fused": st["server"]["fused_requests"],
            "session_hits": st["pool"]["session_hits"]}


def sweep(address: str, base, plan, *, seconds: float | None = None,
          count: int | None = None, tracer: Tracer | None = None) -> dict:
    """Closed loop from CLIENTS connections over requests 0, 1, ...

    Stops issuing after `seconds` (in-flight requests finish) or after
    `count` requests.  Returns per-request latency and response digest,
    the errors, the number issued and the wall time.
    """
    from repro.serve import ServeClient, ServeError

    spec = solver_dict()
    lock = threading.Lock()
    issued = [0]
    results: dict[int, tuple[float, str]] = {}
    errors: list[tuple[int, object]] = []
    t_start = time.perf_counter()
    stop_at = None if seconds is None else t_start + seconds

    def client_loop(lane: str) -> None:
        with ServeClient(address, timeout=60.0) as client:
            while True:
                with lock:
                    k = issued[0]
                    if (count is not None and k >= count) or \
                            (stop_at is not None and time.perf_counter() >= stop_at):
                        return
                    issued[0] = k + 1
                system = request_system(base, plan, k)
                if tracer is not None:
                    tracer.set_op(k, lane)
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = client.evaluate(spec, system)
                    else:
                        with tracer.span("request"):
                            out = client.evaluate(spec, system)
                except ServeError as exc:
                    with lock:
                        errors.append((k, exc.status))
                    continue
                except (OSError, http.client.HTTPException) as exc:
                    with lock:
                        errors.append((k, repr(exc)))
                    continue
                latency = time.perf_counter() - t0
                digest = response_digest(out["forces"], out["energy"], out["virial"])
                with lock:
                    results[k] = (latency, digest)

    threads = [threading.Thread(target=client_loop, args=(f"client{i}",), daemon=True)
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    return {"issued": issued[0], "results": results, "errors": errors, "wall": wall}


def direct_digests(base, plan, ks) -> tuple[str, dict[int, str]]:
    """The reference: the same request sequence on a local
    :class:`SolverSession` (warm-up first, as the server saw it)."""
    from repro.runtime import SolverSession, SolverSpec
    from repro.runtime.pool import copy_forces

    sess = SolverSession(SolverSpec.from_dict(solver_dict()), skin=SKIN)
    res = sess.evaluate(base)
    warm = response_digest(copy_forces(res), float(res.energy), float(res.virial))
    out = {}
    for k in sorted(ks):
        res = sess.evaluate(request_system(base, plan, k))
        out[k] = response_digest(copy_forces(res), float(res.energy), float(res.virial))
    return warm, out


def check_responses(warm: str, results: dict, reference: tuple[str, dict]) -> tuple[bool, str]:
    ref_warm, ref = reference
    bad = [k for k, (_, d) in results.items() if ref.get(k) != d]
    if warm != ref_warm:
        bad.append("warm-up")
    if bad:
        return False, (f"{len(bad)} of {len(results) + 1} responses differ from the direct "
                       f"SolverSession replay (first: {bad[:5]})")
    return True, (f"all {len(results) + 1} responses bitwise equal to a direct "
                  "SolverSession replay")


def _failures(sw: dict) -> tuple[int, int]:
    """(non-200 or transport errors, requests that never completed)."""
    unfinished = sw["issued"] - len(sw["results"]) - len(sw["errors"])
    return len(sw["errors"]), unfinished


def _server_log_check(server: Server) -> tuple[bool, str]:
    text = server.stderr_text()
    if "falling back" in text:
        return False, "server fell back from the compiled backend: " + text[-500:]
    return True, "server ran the compiled backend without warnings"


# ---------------------------------------------------------------------------
# timed mode
# ---------------------------------------------------------------------------


def timed(seed: int, seconds: float, env: dict, *, small: bool = False):
    """End-to-end metrics; returns ``(checks, attempted, failed, values)``."""
    from repro.md.units import ns_per_day

    audit = LeakAudit()
    probes = [probe_setup(NAME, seed, env, small=small) for _ in range(PROBES)]
    with scratch_dir(NAME) as sd:
        t0 = time.perf_counter()
        server = Server(sd, env)
        try:
            base, plan = make_inputs(seed, small)
            warm = warm_up(server.address, base)
            main_setup = time.perf_counter() - t0
            sw = sweep(server.address, base, plan, seconds=seconds)
            rss = peak_rss_mb()
        finally:
            clean = server.stop()
        log_check = _server_log_check(server)
    leaks = audit.check([sd.path]) + [f"stray file {p}" for p in sd.strays]
    if not clean:
        leaks.append("server did not shut down cleanly")
    reference = direct_digests(base, plan, sw["results"])
    errors, unfinished = _failures(sw)
    done = len(sw["results"])
    lat = [v[0] for v in sw["results"].values()]
    checks = [
        check_responses(warm, sw["results"], reference),
        (all(d == warm for _, d in probes),
         f"first response identical in {len(probes)} cold starts and the run"),
        (errors == 0 and unfinished == 0,
         f"{errors} failed and {unfinished} unfinished of {sw['issued']} requests"),
        log_check,
        (not leaks, "no leaked processes, /dev/shm segments, sockets or paths"
         + ("" if not leaks else ": " + "; ".join(leaks))),
    ]
    log(f"{NAME}: {done} of {sw['issued']} requests in {sw['wall']:.3f} s from {CLIENTS} "
        f"clients; p50/p95 over {len(lat)} samples; setup probes "
        f"{[round(s, 3) for s, _ in probes]} s, in-process setup {main_setup:.3f} s")
    values = {
        "setup_s": median([s for s, _ in probes]),
        "md_ns_per_day": ns_per_day(DT_PS, done / sw["wall"]),
        "serve_evals_per_s": done / sw["wall"],
        "serve_latency_p50_ms": percentile(lat, 50) * 1e3,
        "serve_latency_p95_ms": percentile(lat, 95) * 1e3,
        "peak_rss_mb": rss,
    }
    return checks, sw["issued"], errors + unfinished + len(leaks), values


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------


def _install_client(tracer: Tracer, sizes: dict) -> None:
    import repro.serve.client as client_mod

    def on_encode(body, rec):
        if rec[3] is not None:  # request bodies only, inside a "request" span
            sizes["request"] += len(body)

    tracer.wrap(client_mod, "system_payload", "serve.encode")
    tracer.wrap(client_mod, "encode_payload", "serve.encode", on_result=on_encode)
    tracer.wrap(client_mod, "decode_payload", "serve.client_decode")


def replay_layers(base, plan, count: int, tracer: Tracer) -> dict:
    """Time the server-side stages of requests 0..count-1 in-process:
    decode -> validate -> pool evaluate -> response encode."""
    from repro.core.pipeline import InteractionCache
    from repro.md.neighbor import NeighborList
    from repro.runtime import SolverPool, SolverSpec
    from repro.runtime.pool import copy_forces
    from repro.serve import encode_payload, system_payload, validate_request
    from repro.serve.protocol import JSON_CONTENT_TYPE, SERVE_SCHEMA_VERSION, decode_payload

    spec = solver_dict()
    pool = SolverPool(skin=SKIN)

    def body(system) -> bytes:
        return encode_payload({"schema": SERVE_SCHEMA_VERSION, "solver": spec,
                               "tenant": "default", "system": system_payload(system)})

    def serve_one(data: bytes) -> bytes:
        with tracer.span("serve.decode"):
            payload = decode_payload(data, JSON_CONTENT_TYPE)
        with tracer.span("serve.validate"):
            solver, system, tenant = validate_request(payload, skin=SKIN)
        with tracer.span("pool.evaluate"):
            result = pool.evaluate(solver, system, tenant=tenant)
        with tracer.span("serve.encode"):
            return encode_payload({
                "schema": SERVE_SCHEMA_VERSION, "energy": float(result.energy),
                "virial": float(result.virial), "forces": copy_forces(result).tolist(),
                "n": int(system.n), "batch": {"index": 0, "size": 1}})

    solver = SolverSpec.from_dict(spec)
    pool.evaluate(solver, base)  # warm-up, as the server saw it
    session = pool.session(solver)
    stats0 = session.potential.cache_stats.as_dict()
    counts = {"calls": 0, "pairs": 0, "triplets": 0, "response_bytes": 0}

    def on_kernel(res, rec):
        counts["calls"] += 1
        counts["pairs"] += res.stats.get("pairs_in_cutoff", 0)
        counts["triplets"] += res.stats.get("triples", 0)

    tracer.wrap(NeighborList, "ensure", "neighbor")
    tracer.wrap(NeighborList, "build", "neighbor.build")
    tracer.wrap(InteractionCache, "prepare", "prepare")
    tracer.wrap(session.potential.kernel, "evaluate", "kernel", on_result=on_kernel)
    try:
        for k in range(count):
            data = body(request_system(base, plan, k))
            tracer.set_op(k, "replay")
            with tracer.span("replay.request"):
                counts["response_bytes"] += len(serve_one(data))
    finally:
        tracer.restore()
    stats1 = session.potential.cache_stats.as_dict()
    counts["cache"] = {k: stats1[k] - stats0[k] for k in ("hits", "misses", "invalidations")}
    counts["entries_per_atom"] = session.neigh.n_pairs / base.n
    return counts


def traced(seed: int, seconds: float, env: dict, *, small: bool = False):
    """Per-layer metrics; returns ``(checks, attempted, failed, values)``."""
    audit = LeakAudit()
    tracer = Tracer()
    sizes = {"request": 0}
    with scratch_dir(NAME + "-traced") as sd:
        server = Server(sd, env)
        try:
            base, plan = make_inputs(seed, small)
            warm = warm_up(server.address, base)
            plain = sweep(server.address, base, plan, seconds=seconds / 2)
            n = plain["issued"]
            c0 = server_counters(server.address)
            _install_client(tracer, sizes)
            try:
                sw = sweep(server.address, base, plan, count=n, tracer=tracer)
            finally:
                tracer.restore()
            c1 = server_counters(server.address)
        finally:
            clean = server.stop()
        log_check = _server_log_check(server)
    leaks = audit.check([sd.path]) + [f"stray file {p}" for p in sd.strays]
    if not clean:
        leaks.append("server did not shut down cleanly")
    layers = replay_layers(base, plan, n, tracer)
    reference = direct_digests(base, plan, range(n))

    tracer.adopt("request")
    tracer.adopt("replay.request")
    trace_path = TRACES / f"{NAME}-seed{seed}.json"
    tracer.write_chrome(trace_path, {"workload": NAME, "seed": seed, "requests": n})

    done = len(sw["results"])
    per = max(done, 1)
    lat_mean_ms = 1e3 * sum(v[0] for v in sw["results"].values()) / per
    ms = {name: 1e3 * tracer.total(name) / per
          for name in ("serve.encode", "serve.client_decode", "serve.decode",
                       "serve.validate", "pool.evaluate")}
    encode_ms = ms["serve.encode"]  # client request encode + replayed response encode
    decode_ms = ms["serve.decode"] + ms["serve.client_decode"]
    timed_ms = encode_ms + decode_ms + ms["serve.validate"] + ms["pool.evaluate"]
    wire_queue_ms = lat_mean_ms - timed_ms
    cache = layers["cache"]
    cache_calls = sum(cache.values())
    batches = c1["batches"] - c0["batches"]
    kcalls = max(layers["calls"], 1)
    rejected = sum(1 for _, status in plain["errors"] + sw["errors"] if status == 429)
    values = {
        "neighbor.builds": tracer.count("neighbor.build"),
        "neighbor.busy_s": tracer.total("neighbor") / per,
        "neighbor.entries_per_atom": layers["entries_per_atom"],
        "prepare.busy_s": tracer.total("prepare") / per,
        "prepare.cache_hits": cache["hits"],
        "prepare.cache_misses": cache["misses"],
        "prepare.cache_invalidations": cache["invalidations"],
        "prepare.hit_ratio": cache["hits"] / cache_calls if cache_calls else 0.0,
        "kernel.busy_s": tracer.total("kernel") / per,
        "kernel.pairs_per_call": layers["pairs"] / kcalls,
        "kernel.triplets_per_call": layers["triplets"] / kcalls,
        "integrate.busy_s": 0.0,
        "state.busy_s": 0.0,
        "state.bytes_written": 0,
        "state.records": 0,
        "engine.compute_s": 0.0,
        "engine.comm_s": 0.0,
        "engine.reduce_s": 0.0,
        "engine.bytes_forward_per_step": 0.0,
        "engine.bytes_reverse_per_step": 0.0,
        "engine.imbalance": 0.0,
        "pool.evaluate_ms": ms["pool.evaluate"],
        "pool.session_hits": c1["session_hits"] - c0["session_hits"],
        "serve.encode_ms": encode_ms,
        "serve.decode_ms": decode_ms,
        "serve.validate_ms": ms["serve.validate"],
        "serve.request_bytes": sizes["request"] / per,
        "serve.response_bytes": layers["response_bytes"] / max(n, 1),
        "serve.wire_queue_ms": wire_queue_ms,
        "serve.batch_size_mean": (c1["fused"] - c0["fused"]) / batches if batches else 0.0,
        "serve.rejected_429": rejected,
        "residual_share": wire_queue_ms / lat_mean_ms if lat_mean_ms else 0.0,
        "trace_overhead_share": sw["wall"] / plain["wall"] - 1.0,
    }
    failures = [_failures(plain), _failures(sw)]
    errors = sum(e for e, _ in failures)
    unfinished = sum(u for _, u in failures)
    checks = [
        check_responses(warm, plain["results"], reference),
        check_responses(warm, sw["results"], reference),
        (errors == 0 and unfinished == 0,
         f"{errors} failed and {unfinished} unfinished of {plain['issued'] + sw['issued']} requests"),
        log_check,
        (not leaks, "no leaked processes, /dev/shm segments, sockets or paths"
         + ("" if not leaks else ": " + "; ".join(leaks))),
    ]
    log(f"{NAME} traced: {n} requests, traced {sw['wall']:.3f} s vs plain "
        f"{plain['wall']:.3f} s, {len(tracer.spans)} spans -> {trace_path.name}")
    log(tracer.self_time_line())
    log(f"request split (mean {lat_mean_ms:.2f} ms): encode {encode_ms:.2f}, decode "
        f"{decode_ms:.2f}, validate {ms['serve.validate']:.2f}, pool {ms['pool.evaluate']:.2f}, "
        f"wire+queue {wire_queue_ms:.2f} ms")
    return checks, plain["issued"] + sw["issued"], errors + unfinished + len(leaks), values


def probe(seed: int, small: bool, env: dict) -> None:
    """Cold-start body of ``probe.py``: server up, inputs, first request."""
    with scratch_dir(NAME + "-probe") as sd:
        server = Server(sd, env)
        try:
            base, _ = make_inputs(seed, small)
            print(f"READY {warm_up(server.address, base)}", flush=True)
        finally:
            clean = server.stop()
    if not clean or sd.strays:
        raise BenchError(f"probe server did not shut down cleanly (strays {sd.strays})")
