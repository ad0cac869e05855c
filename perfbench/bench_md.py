"""The MD workloads: whole ``Simulation.run`` calls as a user runs them.

``md-crystal``
    Serial Tersoff Opt-D on the compiled backend, an 8000-atom perfect
    diamond lattice at 1000 K, NVE, 1 fs, 1 A skin, with trajectory,
    telemetry and checkpoint sinks on (as ``repro run`` sets them up).
    The interaction cache hits every step and the list is rarely
    rebuilt, so the kernel and the staging hit path dominate.
``md-melt-2w``
    The same solver on the lattice perturbed by 0.3 A at 3000 K, two
    workers under the default executor, no sinks.  The cache misses
    almost every step and the list is rebuilt every ~10 steps, so the
    staging miss path, the neighbor build and the parallel engine
    dominate.

Everything is driven through the public API (``repro.runtime``, the
``repro.state`` sinks); the traced mode wraps the layers' public entry
points from here and, on the parallel workload, reads the worker-side
stages from the ``EngineStep.timers`` that ``ParallelEngine.compute``
returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from harness import (
    TRACES,
    BenchError,
    LeakAudit,
    Tracer,
    check_compiled,
    check_recorded_digest,
    digest_arrays,
    log,
    median,
    peak_rss_mb,
    percentile,
    probe_setup,
    scratch_dir,
)

SKIN = 1.0
#: Steps per ``Simulation.run`` call; the timed loop checks the clock
#: between calls.
CHUNK = 10
#: The final-state digest is taken at this step (a fixed prefix of every
#: run, so it is comparable across runs of different length).  Peak RSS
#: is sampled here too: after a neighbor rebuild the allocator keeps
#: freed staging arrays resident, so a later peak would depend on how
#: many rebuilds a seed happens to trigger (1 to 20 in a run of the
#: crystal) rather than on what the program needs.
DIGEST_STEP = 20
#: NVE total-energy drift allowed over a run, in eV per atom.  Measured
#: drift at 1 fs is ~1e-4 (crystal, 1000 K) and ~2e-3 (melt, 3000 K).
DRIFT_BOUND_EV_PER_ATOM = 1e-2
#: Cold-start probes per timed run; ``setup_s`` is their median.
PROBES = 7
#: Lattice cells per edge in the self-test (512 atoms).
SMALL_CELLS = 4


@dataclass(frozen=True)
class MDWorkload:
    name: str
    cells: int
    temperature: float
    perturb: float
    workers: int | None
    sinks: bool


WORKLOADS = {
    "md-crystal": MDWorkload("md-crystal", 10, 1000.0, 0.0, None, True),
    "md-melt-2w": MDWorkload("md-melt-2w", 10, 3000.0, 0.3, 2, False),
}

SINK_FILES = ("run.rtrj", "run.telemetry.jsonl", "run.ckpt")


def solver_spec():
    from repro.runtime import SolverSpec

    return SolverSpec(potential="tersoff", mode="Opt-D", cache=True, backend="compiled")


def make_system(wl: MDWorkload, seed: int, small: bool = False):
    """The workload's input, derived only from `seed`."""
    import numpy as np
    from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities

    s_pert, s_vel = (int(v) for v in np.random.SeedSequence([seed, 11]).generate_state(2))
    cells = SMALL_CELLS if small else wl.cells
    system = diamond_lattice(cells, cells, cells)
    if wl.perturb:
        system = perturbed(system, wl.perturb, seed=s_pert)
    seeded_velocities(system, wl.temperature, seed=s_vel)
    return system


class MDRun:
    """A built simulation plus its sinks, ready after the first force
    evaluation (the end of setup)."""

    def __init__(self, wl: MDWorkload, seed: int, *, small: bool = False,
                 sdir=None, executor: str | None = None):
        from repro.runtime import RunSpec, build_simulation

        self.wl = wl
        self.system = make_system(wl, seed, small)
        self.spec = RunSpec(solver=solver_spec(), workers=wl.workers,
                            executor=executor, skin=SKIN)
        self.sim = build_simulation(self.spec, self.system)
        self.sinks: list = []
        try:
            check_compiled(self.sim.potential)
            if wl.sinks and sdir is not None:
                self._open_sinks(sdir)
            self.sim.compute_forces()
        except BaseException:
            self.close()
            raise

    def _open_sinks(self, sdir) -> None:
        from repro.state import BinaryTrajectory, Checkpointer, TelemetrySink

        meta = self.spec.to_dict()
        traj, telem, ckpt = (sdir.path / name for name in SINK_FILES)
        # slow steps: checkpoints (1%) plus rebuilds (0 to 2.5%, by seed)
        # stay below 5%, so p95 lands on the trajectory-frame steps (10%)
        # for every seed instead of jumping between the two modes
        self.sinks = [
            BinaryTrajectory(traj, every=10),
            TelemetrySink(telem, every=1, meta=meta),
            Checkpointer(ckpt, every=100, user_meta={"run_spec": meta}),
        ]
        sdir.expected.update(SINK_FILES)

    def state_digest(self) -> str:
        s = self.sim.system
        return digest_arrays(s.x, s.v, s.f)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        self.sim.close()


def _sink_callback(sink, tracer):
    # a plain function, not the sink itself: Simulation.run would call
    # the sink's finalize at the end of every chunk; it runs once, below
    if tracer is None:
        return lambda sim, step: sink(sim, step)

    def traced(sim, step):
        with tracer.span("state"):
            sink(sim, step)
    return traced


def advance(run: MDRun, *, seconds: float | None = None, steps: int | None = None,
            tracer: Tracer | None = None) -> dict:
    """Step until `seconds` have passed (checked every CHUNK steps, and
    never before DIGEST_STEP) or exactly `steps` steps; then finalize and
    close the sinks.

    Returns steps, wall seconds (sinks included), per-step seconds, the
    worst total-energy drift per atom and the digest at DIGEST_STEP.
    """
    sim = run.sim
    marks: list[float] = []
    out = {"digest": None, "rss": None}

    def stamp(sim_, step):
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.add("step", marks[-2], marks[-1], op=step)
            tracer.set_op(step + 1)
        if step == DIGEST_STEP:
            out["digest"] = run.state_digest()
            out["rss"] = peak_rss_mb()

    callbacks = [_sink_callback(s, tracer) for s in run.sinks] + [stamp]
    energies: list[float] = []
    done = 0
    if tracer is not None:
        tracer.set_op(sim.step_index + 1)
    t0 = time.perf_counter()
    marks.append(t0)
    while True:
        n = CHUNK if steps is None else min(CHUNK, steps - done)
        if n <= 0:
            break
        res = sim.run(n, thermo_every=n, callback=callbacks)
        energies.extend(t.e_total for t in res.thermo)
        done += n
        if steps is None and done >= DIGEST_STEP and time.perf_counter() - t0 >= seconds:
            break
    for sink in run.sinks:
        if tracer is None:
            sink.finalize(sim)
        else:
            with tracer.span("state"):
                sink.finalize(sim)
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    wall = time.perf_counter() - t0
    e0 = energies[0]
    drift = max(abs(e - e0) for e in energies) / sim.system.n
    out.update(steps=done, wall=wall,
               step_s=[b - a for a, b in zip(marks, marks[1:])],
               drift=drift)
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_drift(drift: float) -> tuple[bool, str]:
    ok = drift == drift and drift <= DRIFT_BOUND_EV_PER_ATOM
    return ok, f"NVE drift {drift:.3e} eV/atom (bound {DRIFT_BOUND_EV_PER_ATOM:g})"


def check_digests(wl: MDWorkload, seed: int, small: bool, digests: list) -> tuple[bool, str]:
    """Every run of this seed reached the same state at DIGEST_STEP,
    here and in earlier runs of this checkout."""
    if any(d is None for d in digests) or len(set(digests)) != 1:
        return False, f"step-{DIGEST_STEP} digests differ: {digests}"
    key = f"{wl.name}:{'small' if small else 'full'}:seed{seed}:step{DIGEST_STEP}"
    if not check_recorded_digest(key, digests[0]):
        return False, f"step-{DIGEST_STEP} digest {digests[0]} differs from the recorded one"
    return True, f"step-{DIGEST_STEP} digest {digests[0]} identical across {len(digests)} runs"


def replay_digest(wl: MDWorkload, seed: int, small: bool, executor: str | None = None) -> str:
    """A fresh run of DIGEST_STEP steps from the same seed (no sinks)."""
    run = MDRun(wl, seed, small=small, executor=executor)
    try:
        out = advance(run, steps=DIGEST_STEP)
    finally:
        run.close()
    return out["digest"]


# ---------------------------------------------------------------------------
# timed mode
# ---------------------------------------------------------------------------


def timed(wl: MDWorkload, seed: int, seconds: float, env: dict, *, small: bool = False):
    """End-to-end metrics; returns ``(checks, attempted, failed, values)``."""
    from repro.md.units import ns_per_day

    audit = LeakAudit()
    probes = [probe_setup(wl.name, seed, env, small=small) for _ in range(PROBES)]
    with scratch_dir(wl.name) as sd:
        t0 = time.perf_counter()
        run = MDRun(wl, seed, small=small, sdir=sd)
        main_setup = time.perf_counter() - t0
        first = run.state_digest()
        try:
            out = advance(run, seconds=seconds)
            dt = run.sim.dt
        finally:
            run.close()
    replay = replay_digest(wl, seed, small)
    leaks = audit.check([sd.path]) + [f"stray file {p}" for p in sd.strays]

    checks = [
        check_drift(out["drift"]),
        check_digests(wl, seed, small, [out["digest"], replay]),
        (all(d == first for _, d in probes),
         f"first-force digest identical in {len(probes)} cold starts and the run"),
        (not leaks, "no leaked processes, /dev/shm segments or paths"
         + ("" if not leaks else ": " + "; ".join(leaks))),
    ]
    steps = out["steps"]
    wall = out["wall"]
    log(f"{wl.name}: {steps} steps in {wall:.3f} s, p50/p95 over {len(out['step_s'])} "
        f"steps; setup probes {[round(s, 3) for s, _ in probes]} s, in-process setup "
        f"{main_setup:.3f} s")
    values = {
        "setup_s": median([s for s, _ in probes]),
        "md_ns_per_day": ns_per_day(dt, steps / wall),
        "serve_evals_per_s": steps / wall,
        "serve_latency_p50_ms": percentile(out["step_s"], 50) * 1e3,
        "serve_latency_p95_ms": percentile(out["step_s"], 95) * 1e3,
        "peak_rss_mb": out["rss"],
    }
    return checks, steps, len(leaks), values


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------


def _install_serial(tracer: Tracer, run: MDRun, counts: dict) -> None:
    from repro.core.pipeline import InteractionCache
    from repro.md.neighbor import NeighborList

    sim = run.sim

    def on_kernel(res, rec):
        counts["calls"] += 1
        counts["pairs"] += res.stats.get("pairs_in_cutoff", 0)
        counts["triplets"] += res.stats.get("triples", 0)

    tracer.wrap(sim, "compute_forces", "force")
    tracer.wrap(NeighborList, "ensure", "neighbor")
    tracer.wrap(NeighborList, "build", "neighbor.build")
    tracer.wrap(InteractionCache, "prepare", "prepare")
    tracer.wrap(sim.potential.kernel, "evaluate", "kernel", on_result=on_kernel)
    tracer.wrap(sim.integrator, "initial_integrate", "integrate")
    tracer.wrap(sim.integrator, "final_integrate", "integrate")
    for sink in run.sinks:
        if hasattr(sink, "save"):  # the Checkpointer rewrites one file per save
            def on_save(_res, _rec, path=sink.path):
                counts["state_bytes"] += path.stat().st_size
            tracer.wrap(sink, "save", "state.checkpoint", on_result=on_save)


_ENGINE_LAYERS = (("decompose_s", "neighbor.decompose"), ("neighbor_s", "neighbor"),
                  ("staging_s", "prepare"), ("warmup_s", "kernel.warmup"),
                  ("kernel_s", "kernel"), ("comm_s", "engine.comm"),
                  ("reduce_s", "engine.reduce"))


def _install_parallel(tracer: Tracer, run: MDRun, steps: list) -> None:
    sim = run.sim

    def on_step(step, rec):
        steps.append({
            "timers": dict(step.timers),
            "rank_total_s": [r["total_s"] for r in step.per_rank],
            "pairs": sum(r.get("pairs_in_cutoff") or 0 for r in step.per_rank),
            "rebuilt": step.any_rebuilt,
            "bytes_forward": step.bytes_forward,
            "bytes_reverse": step.bytes_reverse,
        })
        # worker-side stages as child spans, laid end to end from the
        # start of the call (their real order interleaves across workers)
        t, parent = rec[1], rec[6]
        for key, name in _ENGINE_LAYERS:
            d = step.timers.get(key, 0.0)
            if d > 0.0:
                tracer.add(name, t, t + d, parent=parent, op=rec[4], lane=rec[5])
                t += d

    tracer.wrap(sim, "compute_forces", "force")
    tracer.wrap(sim.engine, "compute", "engine.compute", on_result=on_step)
    tracer.wrap(sim.integrator, "initial_integrate", "integrate")
    tracer.wrap(sim.integrator, "final_integrate", "integrate")


def _serial_stats(system) -> tuple[float, int]:
    """List entries per atom and triplets of one serial evaluation."""
    from repro.md.neighbor import NeighborList, NeighborSettings

    spec = solver_spec()
    pot = spec.build()
    nl = NeighborList(NeighborSettings(cutoff=spec.cutoff(), skin=SKIN, full=True))
    nl.build(system.x, system.box)
    res = pot.compute(system, nl)
    return nl.n_pairs / system.n, int(res.stats.get("triples", 0))


def _cache_counts(run: MDRun) -> dict:
    if run.sim.engine is not None:
        c = run.sim.engine.cache_summary() or {}
    else:
        c = run.sim.potential.cache_stats.as_dict()
    return {k: int(c.get(k, 0)) for k in ("hits", "misses", "invalidations")}


def traced(wl: MDWorkload, seed: int, seconds: float, env: dict, *, small: bool = False):
    """Per-layer metrics; returns ``(checks, attempted, failed, values)``."""
    audit = LeakAudit()
    with scratch_dir(wl.name + "-plain") as sd_u:
        run = MDRun(wl, seed, small=small, sdir=sd_u)
        try:
            plain = advance(run, seconds=seconds / 2)
        finally:
            run.close()
    n_steps = plain["steps"]

    tracer = Tracer()
    counts = {"calls": 0, "pairs": 0, "triplets": 0, "state_bytes": 0}
    engine_steps: list[dict] = []
    with scratch_dir(wl.name + "-traced") as sd_t:
        run = MDRun(wl, seed, small=small, sdir=sd_t)
        try:
            cache0 = _cache_counts(run)
            builds0 = run.sim.neigh.n_builds
            if run.sim.engine is None:
                _install_serial(tracer, run, counts)
            else:
                _install_parallel(tracer, run, engine_steps)
            try:
                out = advance(run, steps=n_steps, tracer=tracer)
            finally:
                tracer.restore()
            cache1 = _cache_counts(run)
            for sink in run.sinks:
                path = getattr(sink, "path", None)
                if path is not None and not hasattr(sink, "save"):
                    counts["state_bytes"] += path.stat().st_size
            records = sum(getattr(s, attr, 0) for s in run.sinks
                          for attr in ("frames_written", "records_written", "checkpoints_written"))
            builds = run.sim.neigh.n_builds - builds0
            final = run.sim.system.copy()
            serial_entries = run.sim.neigh.n_pairs / final.n if run.sim.engine is None else None
        finally:
            run.close()
    leaks = audit.check([sd_u.path, sd_t.path]) + [
        f"stray file {p}" for p in sd_u.strays + sd_t.strays]

    tracer.adopt("step")
    TRACES.mkdir(parents=True, exist_ok=True)
    trace_path = TRACES / f"{wl.name}-seed{seed}.json"
    tracer.write_chrome(trace_path, {"workload": wl.name, "seed": seed, "steps": n_steps})

    n = max(n_steps, 1)
    wall = out["wall"]
    if engine_steps:
        def tsum(key):
            return sum(s["timers"].get(key, 0.0) for s in engine_steps)
        neighbor = tsum("decompose_s") + tsum("neighbor_s")
        prepare = tsum("staging_s")
        kernel = tsum("kernel_s") + tsum("warmup_s")
        comm, reduce_ = tsum("comm_s"), tsum("reduce_s")
        builds = sum(1 for s in engine_steps if s["rebuilt"])
        entries, triplets = _serial_stats(final)
        pairs_per_call = sum(s["pairs"] for s in engine_steps) / len(engine_steps)
        triplets_per_call = float(triplets)
        imbalance = sum(max(s["rank_total_s"]) / (sum(s["rank_total_s"]) / len(s["rank_total_s"]))
                        for s in engine_steps) / len(engine_steps)
        engine = {
            "engine.compute_s": tracer.total("engine.compute") / n,
            "engine.comm_s": comm / n,
            "engine.reduce_s": reduce_ / n,
            "engine.bytes_forward_per_step": sum(s["bytes_forward"] for s in engine_steps) / n,
            "engine.bytes_reverse_per_step": sum(s["bytes_reverse"] for s in engine_steps) / n,
            "engine.imbalance": imbalance,
        }
    else:
        neighbor = tracer.total("neighbor")
        prepare = tracer.total("prepare")
        kernel = tracer.total("kernel")
        comm = reduce_ = 0.0
        entries = serial_entries
        calls = max(counts["calls"], 1)
        pairs_per_call = counts["pairs"] / calls
        triplets_per_call = counts["triplets"] / calls
        engine = {k: 0.0 for k in ("engine.compute_s", "engine.comm_s", "engine.reduce_s",
                                   "engine.bytes_forward_per_step",
                                   "engine.bytes_reverse_per_step", "engine.imbalance")}
    integrate = tracer.total("integrate")
    state = tracer.total("state")
    covered = neighbor + prepare + kernel + integrate + state + comm + reduce_
    cache_delta = {k: cache1[k] - cache0[k] for k in cache0}
    cache_calls = sum(cache_delta.values())

    values = {
        "neighbor.builds": builds,
        "neighbor.busy_s": neighbor / n,
        "neighbor.entries_per_atom": entries,
        "prepare.busy_s": prepare / n,
        "prepare.cache_hits": cache_delta["hits"],
        "prepare.cache_misses": cache_delta["misses"],
        "prepare.cache_invalidations": cache_delta["invalidations"],
        "prepare.hit_ratio": cache_delta["hits"] / cache_calls if cache_calls else 0.0,
        "kernel.busy_s": kernel / n,
        "kernel.pairs_per_call": pairs_per_call,
        "kernel.triplets_per_call": triplets_per_call,
        "integrate.busy_s": integrate / n,
        "state.busy_s": state / n,
        "state.bytes_written": counts["state_bytes"],
        "state.records": records,
        **engine,
        "pool.evaluate_ms": 0.0,
        "pool.session_hits": 0,
        "serve.encode_ms": 0.0,
        "serve.decode_ms": 0.0,
        "serve.validate_ms": 0.0,
        "serve.request_bytes": 0,
        "serve.response_bytes": 0,
        "serve.wire_queue_ms": 0.0,
        "serve.batch_size_mean": 0.0,
        "serve.rejected_429": 0,
        "residual_share": (wall - covered) / wall,
        "trace_overhead_share": wall / plain["wall"] - 1.0,
    }
    checks = [
        check_drift(plain["drift"]),
        check_drift(out["drift"]),
        check_digests(wl, seed, small, [plain["digest"], out["digest"]]),
        (not leaks, "no leaked processes, /dev/shm segments or paths"
         + ("" if not leaks else ": " + "; ".join(leaks))),
    ]
    log(f"{wl.name} traced: {n_steps} steps, traced {wall:.3f} s vs plain "
        f"{plain['wall']:.3f} s, {len(tracer.spans)} spans -> {trace_path.name}")
    log(tracer.self_time_line())
    log("layer split: " + ", ".join(
        f"{k} {100 * v / wall:.1f}%" for k, v in (
            ("neighbor", neighbor), ("prepare", prepare), ("kernel", kernel),
            ("integrate", integrate), ("state", state), ("comm", comm),
            ("reduce", reduce_), ("residual", wall - covered))))
    return checks, 2 * n_steps, len(leaks), values


def probe(wl: MDWorkload, seed: int, small: bool) -> None:
    """Cold-start body of ``probe.py``: set up, report, tear down."""
    with scratch_dir(wl.name + "-probe") as sd:
        run = MDRun(wl, seed, small=small, sdir=sd)
        try:
            print(f"READY {run.state_digest()}", flush=True)
        finally:
            run.close()
    if sd.strays:
        raise BenchError(f"probe left stray files: {sd.strays}")
