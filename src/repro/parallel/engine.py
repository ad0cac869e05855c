"""Parallel execution engine for the decomposed Tersoff path.

The paper's evaluation (Sec. VI, Figs. 5/8/9) and its journal follow-up
make multi-threaded strong scaling the headline claim; this module is
the repository's real (not modeled) counterpart: a persistent worker
pool (threads or worker processes, see
:mod:`repro.parallel.executor`) that executes the ranks of a
:class:`~repro.parallel.decomposition.DomainDecomposition`
concurrently.

Architecture
------------
- **One pool per engine, alive across MD steps.**  Workers are forked
  (or spawned) once; each worker owns, for every rank assigned to it, a
  long-lived local :class:`~repro.md.neighbor.NeighborList` and its own
  potential instance — so the PR-2 interaction cache and workspace
  persist across steps and cache hits survive parallel execution.
- **One ghost-only data plane.**  The host gathers each rank's
  owned+ghost positions (``local_idx`` rows, typically a small multiple
  of ``n/ranks``) into the ``"step"`` payload, and each rank returns
  only its local force slab in the reply — never the full ``(n, 3)``
  arrays.  This is the same on every executor, as it is for LAMMPS'
  MPI ranks whether or not they share a node: in-process executors
  pass the blocks by reference, the process executor frames them over
  sockets, local and remote workers alike.
- **Deterministic reduction.**  The host merges per-rank force blocks
  with :meth:`DomainDecomposition.reduce_forces` (fixed rank order,
  input-order scatters) and sums rank energies in rank order, so for a
  fixed decomposition the result is **bitwise identical** for any
  worker count — including ``workers=1`` versus the sequential
  ``DomainDecomposition.compute_forces`` path (tested).
- **Decomposition lifecycle.**  The decomposition (and with it every
  rank's owned/ghost sets) is rebuilt when any atom has moved more than
  half the skin since it was built — the same criterion that triggers
  neighbor-list rebuilds — and the new index sets are shipped to the
  workers; between rebuilds only positions flow.

Failure containment: a worker exception (or a dead worker) is caught,
reported with its traceback, and surfaced on the host as
:class:`WorkerCrash`; the pool is then shut down with no worker process
left behind (tested).
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import hot_path
from repro.core.pipeline import Workspace
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.potential import Potential
from repro.parallel.comm import CommRecord
from repro.parallel.decomposition import DomainDecomposition, blank_ghost_rows
from repro.parallel.executor import (
    EngineExecutor,
    ExecutorError,
    WorkerFailure,
    make_executor,
)


class EngineError(RuntimeError):
    """The engine is unusable (bad configuration or closed pool)."""


class WorkerCrash(EngineError):
    """A worker raised during a step; carries the remote traceback."""

    def __init__(self, worker: int, remote_traceback: str):
        self.worker = worker
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {worker} crashed during a parallel step\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )


@dataclass
class _RankState:
    """One rank's long-lived state inside a worker process."""

    rank: int
    local_idx: np.ndarray
    n_owned: int
    system: AtomSystem
    neigh: NeighborList
    potential: Potential
    force_rebuild: bool = True


@hot_path(reason="per-worker per-step evaluation; reuses persistent lists/caches")
def _step_ranks(states: dict, box: Box, xblocks: dict) -> list[dict]:
    """Evaluate every rank owned by this worker.

    ``xblocks[rank]`` is the rank's owned+ghost position block from the
    step payload, copied elementwise into the rank's persistent position
    array.  Reuses the persistent neighbor list via the skin criterion
    (rebuild + ghost-row blanking only when needed, or when a new
    decomposition forced it), runs the potential, and returns the local
    force block in the rank's stats dict for the reply.
    """
    out = []
    for rank in sorted(states):
        st = states[rank]
        t0 = time.perf_counter()
        st.system.x[...] = xblocks[rank]
        if st.force_rebuild:
            st.neigh.build(st.system.x, box)
            rebuilt = True
            st.force_rebuild = False
        else:
            rebuilt = st.neigh.ensure(st.system.x, box)
        if rebuilt:
            blank_ghost_rows(st.neigh, st.n_owned)
        t1 = time.perf_counter()
        res = st.potential.compute(st.system, st.neigh)
        t2 = time.perf_counter()
        timing = res.stats.get("timing", {})
        staging = min(max(float(timing.get("staging_s", 0.0)), 0.0), t2 - t1)
        warmup = min(max(float(timing.get("warmup_s", 0.0)), 0.0), (t2 - t1) - staging)
        info = {
            "rank": rank,
            "energy": res.energy,
            "virial": res.virial,
            "n_local": res.forces.shape[0],
            "rebuilt": rebuilt,
            "neighbor_s": t1 - t0,
            "staging_s": staging,
            "warmup_s": warmup,
            "kernel_s": (t2 - t1) - staging - warmup,
            "total_s": t2 - t0,
            "cache": res.stats.get("cache"),
            "pairs_in_cutoff": res.stats.get("pairs_in_cutoff"),
            # the force slab travels back in the reply.  Safe without a
            # copy: the host reduces it (or the pool transmits it) before
            # this rank's workspace is touched again.
            "forces": res.forces,
        }
        out.append(info)
    return out


class WorkerHost:
    """One worker's long-lived state, commands served via :meth:`handle`.

    This is the executor-agnostic half of the worker loop: it owns the
    per-rank states and knows nothing about threads, processes or sockets —
    :mod:`repro.parallel.executor` supplies those.  With the
    :class:`~repro.parallel.executor.SerialExecutor` these hosts simply
    live in the engine's own process.
    """

    def __init__(
        self,
        box: Box,
        mass: np.ndarray,
        species: tuple,
        potential: Potential,
        settings: NeighborSettings,
    ):
        self.box = box
        self.mass = mass
        self.species = species
        self.potential = potential
        self.settings = settings
        self.states: dict[int, _RankState] = {}

    def handle(self, cmd: str, payload):
        if cmd == "ranks":
            return self._set_ranks(payload)
        if cmd == "step":
            return _step_ranks(self.states, self.box, payload["x"])
        if cmd == "listrefs":
            # checkpoint support: each rank's last list-build positions,
            # so a restart can rebuild the *same* list
            refs = {}
            for rank, st in self.states.items():
                xr = st.neigh._x_ref
                refs[rank] = None if xr is None else xr.copy()
            return refs
        if cmd == "warm":
            return self._warm(payload)
        raise ValueError(f"unknown command {cmd!r}")

    def _set_ranks(self, payloads: list[dict]) -> None:
        # new decomposition generation: refresh topology but keep each
        # rank's potential (and its interaction cache / workspace)
        # alive across generations.
        for payload in payloads:
            rank = payload["rank"]
            local_idx = payload["local_idx"]
            prev = self.states.get(rank)
            self.states[rank] = _RankState(
                rank=rank,
                local_idx=local_idx,
                n_owned=payload["n_owned"],
                system=AtomSystem(
                    box=self.box,
                    x=np.zeros((local_idx.shape[0], 3), dtype=np.float64),
                    type=payload["types"],
                    mass=self.mass,
                    species=self.species,
                ),
                neigh=prev.neigh if prev is not None else NeighborList(self.settings),
                potential=prev.potential if prev is not None
                else copy.deepcopy(self.potential),
            )
        for rank in [r for r in self.states if r not in {p["rank"] for p in payloads}]:
            del self.states[rank]

    def _warm(self, payloads: list[dict]) -> None:
        # restart support: rebuild each rank's list at its checkpointed
        # reference positions (not the current ones) so topology, pair
        # order and future rebuild decisions match the uninterrupted
        # run bitwise.
        for payload in payloads:
            st = self.states[payload["rank"]]
            st.neigh.build(payload["x_ref"], self.box)
            blank_ghost_rows(st.neigh, st.n_owned)
            st.force_rebuild = False


@dataclass
class _HostFactory:
    """Picklable recipe an executor uses to build one :class:`WorkerHost`.

    Spawn-method pools pickle this into each worker; everything captured
    here (box, masses, the template potential, neighbor settings) must
    therefore pickle — the same contract the engine always had.
    """

    box: Box
    mass: np.ndarray
    species: tuple
    potential: Potential
    settings: NeighborSettings

    def __call__(self) -> WorkerHost:
        return WorkerHost(self.box, self.mass, self.species,
                          self.potential, self.settings)


@dataclass
class EngineStep:
    """Result of one parallel force evaluation.

    ``forces`` is a workspace view owned by the engine, valid until the
    next :meth:`ParallelEngine.compute` call — copy it to keep it.
    ``timers`` holds measured seconds: ``comm_s`` (position staging,
    dispatch and synchronization wait), ``reduce_s`` (host rank-order
    reduction), ``decompose_s`` (decomposition rebuild, when one
    happened) and the busiest worker's ``neighbor_s`` / ``staging_s`` /
    ``kernel_s`` critical-path components.

    Traffic accounting (bytes of position/force payload this step):
    ``bytes_forward`` is the ghost-region position rows moved to the
    workers, ``bytes_reverse`` the local force slabs that came back, and
    ``bytes_forward_full`` the closed-form cost of broadcasting the full
    ``(n, 3)`` positions to every worker (``workers * n * 24``), which
    the ghost-only plane is measured against.  ``bytes_wire`` is the
    ``(sent, received)`` socket byte delta for this step when the
    executor exposes a wire (framing overhead included), else ``None``.
    ``comm`` is the step's *measured* :class:`CommRecord` (forward and
    reverse stages split from ``comm_s``).
    """

    energy: float
    forces: np.ndarray
    timers: dict[str, float]
    per_rank: list[dict] = field(default_factory=list)
    generation: int = 0
    redecomposed: bool = False
    any_rebuilt: bool = False
    virial: float = 0.0
    bytes_forward: int = 0
    bytes_reverse: int = 0
    bytes_forward_full: int = 0
    bytes_wire: "tuple[int, int] | None" = None
    comm: "CommRecord | None" = None


class ParallelEngine:
    """Persistent worker pool executing decomposition ranks concurrently.

    Parameters
    ----------
    system:
        The global system.  The engine keeps a reference: decomposition
        rebuilds read its current ``type`` array; positions are passed
        explicitly to :meth:`compute`.
    potential:
        Template potential; each worker holds one private copy per
        assigned rank (so interaction caches never alias).  Must be
        picklable for the ``"spawn"``/``"forkserver"`` executors and
        for ``repro worker`` hosts.
    workers:
        Number of workers (clamped to ``ranks``).
    ranks:
        Decomposition size (default: ``workers``).  The physics result
        depends only on ``ranks`` (and ``sort``), never on ``workers``.
    neighbor:
        Neighbor settings for the rank-local lists; defaults to the
        potential cutoff with skin 1.0.  ``full`` is forced — the
        decomposed i-loop restriction requires full lists.
    sort:
        Morton-order rank-local atoms (see :class:`DomainDecomposition`).
        Off by default: with ``sort=False`` and ``ranks=1`` the local
        ordering matches the single-domain serial path exactly, so the
        engine result is bitwise identical to it; sorting permutes the
        accumulation order (a locality optimization, not a physics
        change).
    grid:
        Explicit process grid (default: LAMMPS-style near-cubic).
    executor:
        Execution backend: ``"serial"`` (in-process, no subprocesses),
        ``"thread"`` (persistent thread per worker; real overlap with
        the GIL-releasing compiled kernel), ``"fork"`` / ``"spawn"`` /
        ``"forkserver"`` (process pool with that start method),
        ``"process"`` (process pool, platform default method), or a
        ready :class:`EngineExecutor` instance — e.g. a
        :class:`~repro.parallel.transport.ProcessExecutor` connected to
        ``repro worker`` listeners on other hosts.  Default: process
        pool via fork where available.
        The physics is bitwise identical across executors — they only
        move where the rank evaluations run.
    """

    def __init__(
        self,
        system: AtomSystem,
        potential: Potential,
        *,
        workers: int,
        ranks: int | None = None,
        neighbor: NeighborSettings | None = None,
        sort: bool = False,
        grid: tuple[int, int, int] | None = None,
        executor: "str | EngineExecutor | None" = None,
    ):
        if workers < 1:
            raise EngineError("need at least one worker")
        ranks = workers if ranks is None else int(ranks)
        if ranks < 1:
            raise EngineError("need at least one rank")
        self.system = system
        self.potential = potential
        self.ranks = ranks
        self.workers = min(int(workers), ranks)
        self.sort = bool(sort)
        self.grid = grid
        if neighbor is None:
            neighbor = NeighborSettings(cutoff=potential.cutoff, skin=1.0, full=True)
        if not neighbor.full:
            neighbor = NeighborSettings(cutoff=neighbor.cutoff, skin=neighbor.skin, full=True)
        self.settings = neighbor
        self._ws = Workspace()
        self._dd: DomainDecomposition | None = None
        self._x_ref: np.ndarray | None = None
        self.generation = 0
        self.steps = 0
        self.rebuild_steps = 0
        # telemetry only: rebuilt by the first compute() after restore,
        # deliberately outside the checkpoint contract
        self.last_step: EngineStep | None = None  # repro-lint: disable=KD001
        # measured traffic telemetry, same contract as last_step
        self.comm_total = CommRecord()  # repro-lint: disable=KD001
        self._comm_samples: list = []  # repro-lint: disable=KD001
        self._closed = False

        try:
            self._exec = make_executor(executor, workers=self.workers)
        except ExecutorError as exc:
            raise EngineError(str(exc)) from exc
        # a ready-made executor fixes the pool size; follow it (still
        # never more submit targets than ranks)
        self.workers = min(self._exec.workers, ranks)
        self._exec.start(_HostFactory(
            box=system.box, mass=system.mass.copy(), species=system.species,
            potential=potential, settings=self.settings,
        ))
        self._local_rows = 0  # repro-lint: disable=KD001
        self._wire_prev = (0, 0)  # repro-lint: disable=KD001

    # -- decomposition lifecycle --------------------------------------------------

    def _worker_of(self, rank: int) -> int:
        return rank % self.workers

    def _needs_decompose(self, x: np.ndarray) -> bool:
        if self._dd is None or self._x_ref is None:
            return True
        if x.shape != self._x_ref.shape:
            return True
        if self.settings.skin == 0.0:
            return True
        d = self.system.box.minimum_image(x - self._x_ref)
        max_disp2 = float(np.max(np.einsum("ij,ij->i", d, d))) if x.shape[0] else 0.0
        return max_disp2 > (0.5 * self.settings.skin) ** 2

    def _decompose(self, x: np.ndarray) -> None:
        """Rebuild the decomposition at `x` and ship the new index sets."""
        snapshot = AtomSystem(
            box=self.system.box,
            x=np.array(x, dtype=np.float64, copy=True),
            type=self.system.type.copy(),
            mass=self.system.mass.copy(),
            species=self.system.species,
        )
        self._dd = DomainDecomposition(
            snapshot, self.ranks, halo=self.settings.list_cutoff,
            grid=self.grid, sort=self.sort,
        )
        self._x_ref = snapshot.x
        self.generation += 1
        # total owned+ghost rows across ranks: the per-step ghost-only
        # traffic is this many position (forward) and force (reverse) rows
        self._local_rows = sum(d.local_idx.shape[0] for d in self._dd.domains)
        payloads: list[list[dict]] = [[] for _ in range(self.workers)]
        for dom in self._dd.domains:
            payloads[self._worker_of(dom.rank)].append({
                "rank": dom.rank,
                "local_idx": dom.local_idx,
                "n_owned": dom.n_owned,
                "types": dom.local_system.type,
            })
        self._dispatch("ranks", payloads)

    def _dispatch(self, cmd: str, payloads: list | None = None) -> list:
        """Send `cmd` to every worker, collect replies in worker order."""
        futs = [
            self._exec.submit(w, cmd, None if payloads is None else payloads[w])
            for w in range(self.workers)
        ]
        return [self._result(w, fut) for w, fut in enumerate(futs)]

    def _result(self, worker: int, fut):
        try:
            return fut.result()
        except WorkerFailure as exc:
            self.close()
            raise WorkerCrash(exc.worker, exc.remote_traceback) from exc

    # -- the hot loop -------------------------------------------------------------

    @hot_path(reason="per-step parallel force evaluation; host side of the data plane")
    def compute(self, x: np.ndarray) -> EngineStep:
        """One parallel force evaluation at global positions `x`."""
        if self._closed:
            raise EngineError("engine is closed")
        t0 = time.perf_counter()
        redecomposed = self._needs_decompose(x)
        if redecomposed:
            self._decompose(x)
        t1 = time.perf_counter()
        # ghost-only payload: each worker gets just the position rows its
        # ranks own (plus ghosts), keyed by rank
        blocks: list[dict] = [{} for _ in range(self.workers)]
        for dom in self._dd.domains:
            blocks[self._worker_of(dom.rank)][dom.rank] = np.take(x, dom.local_idx, axis=0)
        futs = [self._exec.submit(w, "step", {"x": blocks[w]}) for w in range(self.workers)]
        t2 = time.perf_counter()
        per_worker = [self._result(w, fut) for w, fut in enumerate(futs)]
        t3 = time.perf_counter()
        per_rank = sorted(itertools.chain.from_iterable(per_worker), key=lambda r: r["rank"])
        # fixed rank-order reduction of the owned-force slabs from the
        # replies — the determinism contract: same association as the
        # sequential DomainDecomposition path.
        energy = 0.0
        virial = 0.0
        for info in per_rank:
            energy += info["energy"]
            virial += info["virial"]
        forces = self._dd.reduce_forces(
            [info.pop("forces") for info in per_rank],
            out=self._ws.buf("forces", (self.system.n, 3), np.float64),
        )
        t4 = time.perf_counter()

        worker_totals = [sum(r["total_s"] for r in ranks) for ranks in per_worker]
        busiest = int(np.argmax(worker_totals)) if worker_totals else 0
        busy = per_worker[busiest] if per_worker else []
        wait_s = t3 - t2
        busy_total = worker_totals[busiest] if worker_totals else 0.0
        # dispatch + synchronization overhead = everything in the
        # dispatch/collect window that was not the busiest worker's
        # compute.  With the serial executor the compute happens inside
        # the submit calls (t2 - t1), so the formula must look at the
        # whole window before subtracting, not clamp per phase.
        timers = {
            "decompose_s": t1 - t0,
            "comm_s": max((t2 - t1) + wait_s - busy_total, 0.0),
            "reduce_s": t4 - t3,
            "neighbor_s": sum(r["neighbor_s"] for r in busy),
            "staging_s": sum(r["staging_s"] for r in busy),
            "warmup_s": sum(r.get("warmup_s", 0.0) for r in busy),
            "kernel_s": sum(r["kernel_s"] for r in busy),
            "wait_s": wait_s,
            "busy_s": busy_total,
        }
        any_rebuilt = any(r["rebuilt"] for r in per_rank)
        self.steps += 1
        if any_rebuilt:
            self.rebuild_steps += 1

        # -- measured traffic accounting --
        bytes_full = self.workers * self.system.n * 24  # full (n,3) float64 broadcast
        bytes_forward = bytes_reverse = self._local_rows * 24
        bytes_wire = None
        wire_fn = getattr(self._exec, "wire_bytes", None)
        if wire_fn is not None:
            cur = wire_fn()
            bytes_wire = (cur[0] - self._wire_prev[0], cur[1] - self._wire_prev[1])
            self._wire_prev = cur
        # split the measured comm window: the staging/dispatch phase
        # (t1..t2) is forward traffic, the remainder is collection
        comm_s = timers["comm_s"]
        fwd_s = min(max(t2 - t1, 0.0), comm_s)
        comm = CommRecord()
        comm.add_measured(bytes_forward, fwd_s, stage="forward")
        comm.add_measured(bytes_reverse, comm_s - fwd_s, stage="reverse")
        self.comm_total.add_measured(bytes_forward, fwd_s, stage="forward")
        self.comm_total.add_measured(bytes_reverse, comm_s - fwd_s, stage="reverse")
        self._comm_samples.append((bytes_forward + bytes_reverse, comm_s))

        step = EngineStep(
            energy=energy,
            forces=forces,
            timers=timers,
            per_rank=per_rank,
            generation=self.generation,
            redecomposed=redecomposed,
            any_rebuilt=any_rebuilt,
            virial=virial,
            bytes_forward=bytes_forward,
            bytes_reverse=bytes_reverse,
            bytes_forward_full=bytes_full,
            bytes_wire=bytes_wire,
            comm=comm,
        )
        self.last_step = step
        return step

    # -- checkpoint/restart -------------------------------------------------------

    def get_state(self) -> dict | None:
        """Checkpointable decomposition + per-rank neighbor-list state.

        ``None`` before the first :meth:`compute` (nothing to restore).
        The state pins the positions the decomposition and every rank's
        neighbor list were built at — both are deterministic functions
        of those positions, so :meth:`restore_state` reconstructs them
        bitwise instead of shipping the arrays themselves.
        """
        if self._closed:
            raise EngineError("engine is closed")
        if self._dd is None:
            return None
        rank_refs: dict[int, np.ndarray | None] = {}
        for refs in self._dispatch("listrefs"):
            rank_refs.update(refs)
        return {
            "ranks": self.ranks,
            "sort": self.sort,
            "generation": self.generation,
            "steps": self.steps,
            "rebuild_steps": self.rebuild_steps,
            "x_ref": self._x_ref.copy(),
            "rank_refs": rank_refs,
        }

    def restore_state(self, state: dict) -> None:
        """Warm-start from a :meth:`get_state` snapshot.

        Rebuilds the decomposition at the checkpointed reference
        positions and has each worker rebuild its rank lists at their
        checkpointed build positions, so the next :meth:`compute` sees
        exactly the state the uninterrupted run had — same domains,
        same list topology, same pending rebuild criteria.
        """
        if self._closed:
            raise EngineError("engine is closed")
        if int(state["ranks"]) != self.ranks:
            raise EngineError(
                f"checkpoint was taken with ranks={state['ranks']}, engine has ranks={self.ranks}"
            )
        if bool(state["sort"]) != self.sort:
            raise EngineError("checkpoint/engine disagree on domain sorting")
        self._decompose(np.ascontiguousarray(state["x_ref"], dtype=np.float64))
        payloads: list[list[dict]] = [[] for _ in range(self.workers)]
        for rank, x_ref in state["rank_refs"].items():
            if x_ref is None:
                continue
            payloads[self._worker_of(int(rank))].append(
                {"rank": int(rank), "x_ref": np.ascontiguousarray(x_ref, dtype=np.float64)}
            )
        self._dispatch("warm", payloads)
        self.generation = int(state["generation"])
        self.steps = int(state["steps"])
        self.rebuild_steps = int(state["rebuild_steps"])

    # -- observability ------------------------------------------------------------

    def cache_summary(self) -> dict | None:
        """Aggregated per-rank interaction-cache counters (or ``None``)."""
        if self.last_step is None:
            return None
        caches = [r.get("cache") for r in self.last_step.per_rank]
        if not caches or any(c is None or not c.get("enabled", False) for c in caches):
            return None
        agg = {"enabled": True, "hits": 0, "misses": 0, "invalidations": 0,
               "list_version": 0, "last_event": caches[-1].get("last_event", "")}
        for c in caches:
            agg["hits"] += c.get("hits", 0)
            agg["misses"] += c.get("misses", 0)
            agg["invalidations"] += c.get("invalidations", 0)
            agg["list_version"] = max(agg["list_version"], c.get("list_version", 0))
        return agg

    def calibrated_network(self, *, name: str | None = None):
        """Alpha-beta :class:`~repro.perf.network.NetworkModel` fitted to
        this engine's *measured* per-step exchanges.

        Every :meth:`compute` contributes one ``(bytes, seconds)``
        sample; the executor's own calibration (e.g.
        :meth:`~repro.parallel.transport.ProcessExecutor.calibrate`)
        probes the raw fabric instead — this fit sees the end-to-end
        data plane including staging.  ``None`` until a step with a
        positive comm time has been measured.
        """
        from repro.perf.network import fit_network_model

        samples = [s for s in self._comm_samples if s[1] > 0.0]
        if not samples:
            return None
        if name is None:
            name = f"measured-{type(self._exec).__name__}"
        return fit_network_model(samples, name=name)

    def workload_summary(self) -> dict:
        """Structural decomposition summary plus measured execution data.

        Extends :meth:`DomainDecomposition.workload_summary` with the
        last step's measured per-rank seconds, the measured imbalance
        (busiest rank over mean) and the strong-scaling efficiency
        (total rank compute time over ``workers x`` synchronization
        wall — 1.0 means perfectly packed workers, lower means idle
        lanes, the Fig. 9 quantity measured instead of modeled).
        """
        if self._dd is None:
            raise EngineError("no decomposition yet; call compute() first")
        summary = self._dd.workload_summary()
        summary.update({
            "ranks": self.ranks,
            "workers": self.workers,
            "generations": self.generation,
            "steps": self.steps,
            "rebuild_steps": self.rebuild_steps,
        })
        if self.last_step is not None:
            rank_s = [r["total_s"] for r in self.last_step.per_rank]
            # the synchronization wall: host wait for process executors,
            # the busiest worker's busy time when the work ran inline
            # (serial executor, where wait is ~0 by construction)
            wall = max(self.last_step.timers["wait_s"], self.last_step.timers["busy_s"])
            summary.update({
                "rank_seconds": rank_s,
                "imbalance_measured": float(max(rank_s) / max(np.mean(rank_s), 1e-300)),
                "parallel_efficiency": float(sum(rank_s) / max(self.workers * wall, 1e-300)),
            })
        return summary

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the executor down.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._exec.shutdown()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
