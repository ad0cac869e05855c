"""The ``repro.state`` binary checkpoint format: bitwise resume.

A checkpoint captures *everything* that determines the future of a
:class:`~repro.md.simulation.Simulation`:

- the atom arrays (positions, velocities, forces, types, masses, tags)
  and the box, bit-exact via :func:`repro.state.format.pack_arrays`;
- the integrator step counter and timestep;
- the thermostat, including the exact Langevin RNG stream position;
- the :class:`~repro.md.neighbor.NeighborList` CSR arrays *and* the
  reference positions of its last build — restart must make the same
  rebuild decisions at the same steps, with the same pair ordering,
  or accumulation order (and therefore the last ULP) drifts;
- the :class:`~repro.md.simulation.StageTimers` and
  :class:`~repro.core.pipeline.workspace.CacheStats` accumulators, so
  telemetry is continuous across a restart;
- on the parallel path, the :class:`~repro.parallel.engine.
  ParallelEngine` rank configuration plus the decomposition's and
  every rank list's build positions (see
  :meth:`~repro.parallel.engine.ParallelEngine.get_state`).

The interaction cache is deliberately *not* serialized: a cold cache
is exact by construction (hits only ever reuse arrays the cold path
recomputes to identical values — the PR-2/PR-5 contract), so resume
warms it on the first step without perturbing a single bit.

File layout::

    8 bytes   magic  b"REPROCK1"
    frame 1   JSON metadata  (schema version, scalars, config)
    frame 2   array block    (pack_arrays manifest + raw buffers)

Writes go to a temporary sibling and are published with ``os.replace``,
so a checkpoint file is either the complete old state or the complete
new state — never a torn mix, even under SIGKILL.

Versioning: ``schema_version`` is bumped on incompatible layout
changes and rejected on mismatch with a clear error; *unknown* JSON
fields and array names are tolerated (forward-compatible additions
within a schema version are allowed to land without a bump).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.integrate import Langevin, NoseHoover, VelocityRescale
from repro.md.neighbor import NeighborSettings
from repro.md.potential import Potential
from repro.state.format import (
    StateFormatError,
    pack_arrays,
    pack_json,
    read_frame,
    unpack_arrays,
    unpack_json,
    write_frame,
)

CHECKPOINT_MAGIC = b"REPROCK1"
CHECKPOINT_SCHEMA_VERSION = 1

_THERMOSTAT_KINDS = {
    "langevin": Langevin,
    "nose_hoover": NoseHoover,
    "velocity_rescale": VelocityRescale,
}

_REQUIRED_ARRAYS = ("x", "v", "f", "type", "mass", "tag", "box_lo", "box_hi",
                    "neigh_neighbors", "neigh_offsets")


class CheckpointError(StateFormatError):
    """The file is not a loadable/restorable repro.state checkpoint."""


def _thermostat_state(thermostat) -> dict | None:
    if thermostat is None:
        return None
    state = getattr(thermostat, "state_dict", None)
    if state is None:
        raise CheckpointError(
            f"thermostat {type(thermostat).__name__} has no state_dict(); cannot checkpoint"
        )
    return state()


def _thermostat_from_state(state: dict | None):
    if state is None:
        return None
    kind = state.get("kind")
    cls = _THERMOSTAT_KINDS.get(kind)
    if cls is None:
        raise CheckpointError(f"unknown thermostat kind {kind!r} in checkpoint")
    return cls.from_state(state)


class Checkpoint:
    """A loaded checkpoint: validated metadata + bit-exact arrays."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray], path: Path | None = None):
        self.meta = meta
        self.arrays = arrays
        self.path = path

    @property
    def step_index(self) -> int:
        return int(self.meta["step_index"])

    @property
    def user_meta(self) -> dict:
        return self.meta.get("user_meta") or {}

    @property
    def parallel(self) -> bool:
        return self.meta.get("engine") is not None

    def run_spec(self):
        """The pinned :class:`~repro.runtime.spec.RunSpec`, or ``None``.

        New checkpoints carry the full spec under
        ``user_meta["run_spec"]`` — potential, mode, cache, backend,
        executor, workers/ranks/sort, hosts and skin all round-trip,
        so ``--restart-from`` reproduces the original configuration
        instead of silently falling back to CLI defaults.  Legacy
        checkpoints (pre-runtime ``user_meta["run_config"]``) are
        upgraded on read: the solver fields come from ``run_config``,
        the topology from the engine metadata and the skin from the
        neighbor settings.  Returns ``None`` when no configuration was
        pinned at all (checkpoints written through the library API with
        no user_meta).

        Raises :class:`CheckpointError` when a pinned spec is present
        but unreadable (unknown schema version, malformed fields).
        """
        from repro.runtime.spec import RunSpec, SolverSpec, SpecError

        um = self.user_meta
        engine = self.meta.get("engine") or {}
        try:
            if "run_spec" in um:
                return RunSpec.from_dict(um["run_spec"])
            legacy = um.get("run_config")
            if legacy is None:
                return None
            solver = SolverSpec(
                potential=legacy.get("potential", "tersoff"),
                mode=legacy.get("mode", "Opt-M"),
                cache=bool(legacy.get("cache", True)),
                backend=legacy.get("backend"),
            )
            return RunSpec(
                solver=solver,
                workers=engine.get("workers"),
                ranks=engine.get("ranks"),
                sort=bool(engine.get("sort", False)),
                skin=float(self.meta["neighbor"]["skin"]),
            )
        except SpecError as exc:
            raise CheckpointError(f"checkpoint pins an unreadable run spec: {exc}") from exc

    def system(self) -> AtomSystem:
        """Reconstruct the :class:`AtomSystem` (bit-exact arrays).

        Arrays are copied: a restored simulation mutates its system in
        place, and one loaded :class:`Checkpoint` must support several
        independent restores (e.g. the restart-equivalence battery).
        """
        a = self.arrays
        box = Box(a["box_lo"], a["box_hi"], tuple(self.meta["box_periodic"]))
        return AtomSystem(
            box=box,
            x=a["x"].copy(), v=a["v"].copy(), f=a["f"].copy(),
            type=a["type"].copy(), mass=a["mass"].copy(),
            species=tuple(self.meta["species"]),
            tag=a["tag"].copy(),
        )


def save_checkpoint(sim, path, *, user_meta: dict | None = None) -> Path:
    """Write `sim`'s full state to `path` (atomically).

    Safe to call between steps — including from a run callback — on
    both the serial and the parallel (``workers=``) path.  ``user_meta``
    is an arbitrary JSON-able dict stored verbatim (the CLI stashes the
    potential configuration there so ``--restart-from`` can rebuild it).
    """
    system = sim.system
    arrays: dict[str, np.ndarray] = {
        "x": system.x, "v": system.v, "f": system.f,
        "type": system.type, "mass": system.mass, "tag": system.tag,
        "box_lo": system.box.lo, "box_hi": system.box.hi,
    }
    neigh_state = sim.neigh.get_state()
    arrays["neigh_neighbors"] = neigh_state["neighbors"]
    arrays["neigh_offsets"] = neigh_state["offsets"]
    if neigh_state["x_ref"] is not None:
        arrays["neigh_x_ref"] = neigh_state["x_ref"]

    engine_meta = None
    if sim.engine is not None:
        estate = sim.engine.get_state()
        engine_meta = {
            "ranks": sim.engine.ranks,
            "workers": sim.engine.workers,
            "sort": sim.engine.sort,
            "warm": estate is not None,
        }
        if estate is not None:
            engine_meta.update({
                "generation": estate["generation"],
                "steps": estate["steps"],
                "rebuild_steps": estate["rebuild_steps"],
                "warm_ranks": sorted(
                    int(r) for r, xr in estate["rank_refs"].items() if xr is not None
                ),
            })
            arrays["engine_x_ref"] = estate["x_ref"]
            for rank, x_ref in estate["rank_refs"].items():
                if x_ref is not None:
                    arrays[f"engine_rank_{int(rank)}_x_ref"] = x_ref

    cache_stats = getattr(sim.potential, "cache_stats", None)
    meta = {
        "format": "repro.state",
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "step_index": sim.step_index,
        # the restored run must NOT re-evaluate forces at resume: the
        # checkpointed f carries post-force modifiers (Langevin kicks)
        # exactly as the uninterrupted run's next step would see them
        "last_energy": None if sim.last_result is None else float(sim.last_result.energy),
        "dt": sim.dt,
        "species": list(system.species),
        "box_periodic": list(system.box.periodic),
        "neighbor": {
            "cutoff": sim.neigh.settings.cutoff,
            "skin": sim.neigh.settings.skin,
            "full": sim.neigh.settings.full,
            "n_builds": neigh_state["n_builds"],
            "version": neigh_state["version"],
        },
        "thermostat": _thermostat_state(sim.thermostat),
        "timers": {k: v for k, v in sim.timers.as_dict().items() if k != "total"},
        "cache_stats": None if cache_stats is None else cache_stats.as_dict(),
        "engine": engine_meta,
        "user_meta": user_meta or {},
    }

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_frame(fh, pack_json(meta))
        write_frame(fh, pack_arrays(arrays))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; raises :class:`CheckpointError`
    (a :class:`ValueError`) with a specific message on any defect."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if len(magic) < len(CHECKPOINT_MAGIC):
            raise CheckpointError(f"{path}: file too short for a checkpoint header")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"{path}: bad magic {magic!r} (expected {CHECKPOINT_MAGIC!r})"
            )
        try:
            meta_payload = read_frame(fh)
            array_payload = read_frame(fh)
        except StateFormatError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        if meta_payload is None or array_payload is None:
            raise CheckpointError(f"{path}: checkpoint is missing its frames")
    meta = unpack_json(meta_payload)
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_SCHEMA_VERSION}); "
            "re-create the checkpoint with a matching build"
        )
    try:
        arrays = unpack_arrays(array_payload)
    except StateFormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    missing = [name for name in _REQUIRED_ARRAYS if name not in arrays]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing arrays {missing}")
    for key in ("step_index", "dt", "species", "box_periodic", "neighbor"):
        if key not in meta:
            raise CheckpointError(f"{path}: checkpoint metadata is missing {key!r}")
    return Checkpoint(meta, arrays, path)


def restore_simulation(
    ck: Checkpoint,
    potential: Potential,
    *,
    workers: int | None = None,
    executor=None,
):
    """Rebuild a :class:`~repro.md.simulation.Simulation` from `ck`.

    The caller supplies the potential (checkpoints store *state*, not
    code; the CLI reconstructs the potential from ``user_meta``).  For
    a parallel checkpoint, ``workers`` may differ from the original
    worker count — physics depends only on the checkpointed ``ranks``
    — but a serial checkpoint cannot be resumed parallel (or vice
    versa): rank-local neighbor lists order their pairs differently
    from the global list, which would break the bitwise contract.
    """
    from repro.md.simulation import Simulation

    meta = ck.meta
    system = ck.system()
    nmeta = meta["neighbor"]
    settings = NeighborSettings(
        cutoff=float(nmeta["cutoff"]), skin=float(nmeta["skin"]), full=bool(nmeta["full"])
    )
    thermostat = _thermostat_from_state(meta.get("thermostat"))
    engine_meta = meta.get("engine")
    if engine_meta is None:
        if workers is not None:
            raise CheckpointError(
                "checkpoint was taken from a serial run; resuming with workers= "
                "would change neighbor-list pair ordering and break bitwise resume"
            )
        sim = Simulation(
            system, potential, neighbor=settings, dt=float(meta["dt"]), thermostat=thermostat
        )
    else:
        sim = Simulation(
            system, potential, neighbor=settings, dt=float(meta["dt"]), thermostat=thermostat,
            workers=int(engine_meta["workers"]) if workers is None else int(workers),
            ranks=int(engine_meta["ranks"]),
            sort=bool(engine_meta["sort"]),
            executor=executor,
        )
        if engine_meta.get("warm"):
            rank_refs: dict[int, np.ndarray | None] = {
                rank: ck.arrays[f"engine_rank_{rank}_x_ref"].copy()
                for rank in engine_meta["warm_ranks"]
            }
            sim.engine.restore_state({
                "ranks": engine_meta["ranks"],
                "sort": engine_meta["sort"],
                "generation": engine_meta["generation"],
                "steps": engine_meta["steps"],
                "rebuild_steps": engine_meta["rebuild_steps"],
                "x_ref": ck.arrays["engine_x_ref"].copy(),
                "rank_refs": rank_refs,
            })

    neigh_x_ref = ck.arrays.get("neigh_x_ref")
    sim.neigh.set_state(
        {
            "neighbors": ck.arrays["neigh_neighbors"].copy(),
            "offsets": ck.arrays["neigh_offsets"].copy(),
            "n_builds": nmeta["n_builds"],
            "version": nmeta["version"],
            "x_ref": None if neigh_x_ref is None else neigh_x_ref.copy(),
        },
        system.box,
    )
    sim.step_index = ck.step_index
    last_energy = meta.get("last_energy")
    if last_energy is not None:
        # resume with the checkpointed forces (which include any
        # post-force thermostat modification) instead of recomputing:
        # bitwise-identical to the uninterrupted run's loop state
        from repro.md.potential import ForceResult

        sim.last_result = ForceResult(
            energy=float(last_energy), forces=sim.system.f, stats={"restored": True}
        )
    for stage, seconds in meta.get("timers", {}).items():
        if hasattr(sim.timers, stage):
            setattr(sim.timers, stage, float(seconds))
    stats_meta = meta.get("cache_stats")
    cache_stats = getattr(potential, "cache_stats", None)
    if stats_meta is not None and cache_stats is not None:
        cache_stats.hits = int(stats_meta["hits"])
        cache_stats.misses = int(stats_meta["misses"])
        cache_stats.invalidations = int(stats_meta["invalidations"])
        cache_stats.last_event = str(stats_meta["last_event"])
    return sim


class Checkpointer:
    """Periodic checkpoint run-callback::

        ckpt = Checkpointer("run.ckpt", every=100, user_meta=config)
        sim.run(2000, callback=[traj, ckpt])

    Writes every ``every`` steps plus once at run end (so a completed
    run always leaves a resumable file); each write is atomic, so a
    kill mid-write leaves the previous checkpoint intact.
    """

    def __init__(self, path, *, every: int, user_meta: dict | None = None):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.user_meta = user_meta
        self.checkpoints_written = 0
        self.last_step_written: int | None = None

    def save(self, sim) -> None:
        save_checkpoint(sim, self.path, user_meta=self.user_meta)
        self.checkpoints_written += 1
        self.last_step_written = sim.step_index

    def __call__(self, sim, step: int) -> None:
        if step % self.every == 0:
            self.save(sim)

    def finalize(self, sim) -> None:
        if self.last_step_written != sim.step_index:
            self.save(sim)
