"""The parallel execution engine.

The contract under test (DESIGN.md §9): for a fixed decomposition
(ranks/grid/sort) the engine's energy and forces are **bitwise
identical** to the sequential rank-by-rank evaluation for *any* worker
count, across precisions and species; per-worker interaction caches
survive neighbor rebuilds; and the pool shuts down cleanly — including
on worker crash — without orphaning worker processes or ``/dev/shm``
entries.
"""

import copy
import glob

import numpy as np
import pytest

from repro.core.sw import StillingerWeberProduction, sw_silicon
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffProduction
from repro.md.pair_lj_vectorized import LennardJonesVectorized
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities, zincblende_sic
from repro.md.neighbor import NeighborSettings
from repro.md.potential import Potential
from repro.md.simulation import Simulation
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.engine import EngineError, ParallelEngine, WorkerCrash

SKIN = 1.0


def si_system():
    return perturbed(diamond_lattice(4, 4, 4), 0.05, seed=3)  # 512 atoms


def sequential_reference(system, potential, xs, *, ranks, sort=False):
    """Replay positions `xs` through the sequential decomposition path
    with the engine's redecomposition criterion (moved > skin/2 since
    the decomposition was built).  Returns [(energy, forces), ...]."""
    pot = copy.deepcopy(potential)
    settings = NeighborSettings(cutoff=potential.cutoff, skin=SKIN, full=True)
    dd, x_ref = None, None
    out = []
    for x in xs:
        if dd is None:
            redo = True
        else:
            d = system.box.minimum_image(x - x_ref)
            redo = float(np.max(np.einsum("ij,ij->i", d, d))) > (0.5 * SKIN) ** 2
        if redo:
            snap = system.copy()
            snap.x[:] = x
            dd = DomainDecomposition(snap, ranks, halo=settings.list_cutoff, sort=sort)
            x_ref = x.copy()
        else:
            dd.refresh_positions(x)
        energy, forces, _ = dd.compute_forces(pot, skin=SKIN)
        out.append((energy, forces.copy()))
    return out


def drift_sequence(system, rng_seed=9):
    """Positions for 5 steps: tiny jitter, then one > skin/2 kick."""
    rng = np.random.default_rng(rng_seed)
    xs = [system.x.copy()]
    for _ in range(2):
        xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
    kicked = xs[-1].copy()
    kicked[7] += np.array([0.6, 0.0, 0.0])  # > skin/2 = 0.5
    xs.append(kicked)
    xs.append(kicked + rng.normal(scale=1e-3, size=kicked.shape))
    return xs


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_si_all_precisions(self, workers, precision):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), precision=precision, cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)
            assert eng.generation == 2  # initial + the kicked step

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sic_multispecies(self, workers):
        system = perturbed(zincblende_sic(2, 2, 2), 0.10, seed=17)
        pot = TersoffProduction(tersoff_sic(), precision="double", cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sw_bitwise(self, workers):
        """The pipeline's other multi-body kernel runs through the
        engine unchanged: SW forces are bitwise those of the
        sequential rank-by-rank evaluation."""
        system = si_system()
        pot = StillingerWeberProduction(sw_silicon(), precision="mixed", cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lj_bitwise(self, workers):
        """Scheme-(1a) unfiltered kernels (vectorized LJ) also
        decompose bitwise."""
        system = si_system()
        pot = LennardJonesVectorized(0.07, 2.0951, 4.2, cache=True)
        xs = drift_sequence(system)
        ref = sequential_reference(system, pot, xs, ranks=4)
        with ParallelEngine(system, pot, workers=workers, ranks=4) as eng:
            for x, (e_ref, f_ref) in zip(xs, ref):
                step = eng.compute(x)
                assert step.energy == e_ref
                assert np.array_equal(step.forces, f_ref)

    def test_sorted_decomposition_bitwise_across_workers(self):
        """sort=True changes the physics association, but still
        identically for every worker count."""
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        ref = sequential_reference(system, pot, [system.x], ranks=4, sort=True)[0]
        for workers in (1, 2):
            with ParallelEngine(system, pot, workers=workers, ranks=4, sort=True) as eng:
                step = eng.compute(system.x)
                assert step.energy == ref[0]
                assert np.array_equal(step.forces, ref[1])

    def test_spawn_start_method_bitwise(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        e_ref, f_ref = sequential_reference(system, pot, [system.x], ranks=2)[0]
        with ParallelEngine(system, pot, workers=2, ranks=2, executor="spawn") as eng:
            step = eng.compute(system.x)
            assert step.energy == e_ref
            assert np.array_equal(step.forces, f_ref)


class TestCachePersistence:
    def test_hits_survive_three_rebuilds(self):
        """Per-worker caches persist across ≥3 neighbor rebuilds, and
        the cached engine stays bitwise identical to a cache-off one."""
        system = si_system()
        rng = np.random.default_rng(21)
        xs = [system.x.copy()]
        for kick in range(3):  # 3 redecomposition/rebuild rounds
            for _ in range(2):  # hit steps between rebuilds
                xs.append(xs[-1] + rng.normal(scale=5e-4, size=xs[-1].shape))
            kicked = xs[-1].copy()
            kicked[kick] += np.array([0.0, 0.6, 0.0])
            xs.append(kicked)
        for _ in range(2):  # hit steps after the final rebuild
            xs.append(xs[-1] + rng.normal(scale=5e-4, size=xs[-1].shape))
        pot_on = TersoffProduction(tersoff_si(), cache=True)
        pot_off = TersoffProduction(tersoff_si(), cache=False)
        with ParallelEngine(system, pot_on, workers=2, ranks=4) as eng, \
                ParallelEngine(system, pot_off, workers=2, ranks=4) as bare:
            hits_after_rebuild = []
            for x in xs:
                step = eng.compute(x)
                ref = bare.compute(x)
                assert step.energy == ref.energy
                assert np.array_equal(step.forces, ref.forces)
                if step.redecomposed:
                    hits_after_rebuild.append(eng.cache_summary()["hits"])
            assert eng.generation >= 4  # initial + 3 kicks
            cache = eng.cache_summary()
            assert cache["enabled"] and cache["hits"] > 0
            # hits kept accumulating after every rebuild round
            assert cache["hits"] > hits_after_rebuild[-1]

    def test_rebuild_steps_counted(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system, pot, workers=1, ranks=2) as eng:
            eng.compute(system.x)
            eng.compute(system.x + 1e-5)
            assert eng.rebuild_steps == 1
            assert eng.steps == 2


class ExplodingPotential(Potential):
    """Raises on the second compute call (module-level: spawn-safe)."""

    cutoff = 3.2
    needs_full_list = True

    def __init__(self):
        self.calls = 0

    def compute(self, system, neigh):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("kaboom")
        from repro.md.potential import ForceResult

        return ForceResult(energy=0.0, forces=np.zeros((system.n, 3), dtype=np.float64))


def shm_entries():
    return set(glob.glob("/dev/shm/repro_exec*"))


class TestLifecycle:
    def test_worker_crash_raises_and_cleans_up(self):
        system = si_system()
        shm_before = shm_entries()
        eng = ParallelEngine(system, ExplodingPotential(), workers=2, ranks=2)
        eng.compute(system.x)
        with pytest.raises(WorkerCrash, match="kaboom"):
            eng.compute(system.x + 0.6)  # forces redecomp + fresh compute
        assert eng.closed
        for proc in eng._exec._procs:
            assert not proc.is_alive()
        assert shm_entries() <= shm_before  # nothing orphaned in /dev/shm
        with pytest.raises(EngineError):
            eng.compute(system.x)

    def test_close_is_idempotent_and_unlinks(self):
        system = si_system()
        shm_before = shm_entries()
        eng = ParallelEngine(system, TersoffProduction(tersoff_si()), workers=2, ranks=2)
        eng.compute(system.x)
        eng.close()
        eng.close()
        assert shm_entries() <= shm_before
        for proc in eng._exec._procs:
            assert not proc.is_alive()

    def test_workers_clamped_to_ranks(self):
        system = si_system()
        with ParallelEngine(system, TersoffProduction(tersoff_si()), workers=8, ranks=2) as eng:
            assert eng.workers == 2

    def test_rejects_bad_args(self):
        system = si_system()
        with pytest.raises(EngineError):
            ParallelEngine(system, TersoffProduction(tersoff_si()), workers=0)


class TestSimulationIntegration:
    def test_workers1_ranks1_bitwise_vs_serial_trajectory(self):
        def make():
            s = diamond_lattice(3, 3, 3)
            seeded_velocities(s, 600.0, seed=11)
            return s, TersoffProduction(tersoff_si(), cache=True)

        s1, p1 = make()
        Simulation(s1, p1).run(5)
        s2, p2 = make()
        with Simulation(s2, p2, workers=1, ranks=1) as sim2:
            sim2.run(5)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.v, s2.v)
        assert np.array_equal(s1.f, s2.f)

    def test_trajectory_independent_of_worker_count(self):
        def run(workers):
            s = diamond_lattice(3, 3, 3)
            seeded_velocities(s, 600.0, seed=4)
            with Simulation(s, TersoffProduction(tersoff_si()), workers=workers,
                            ranks=2) as sim:
                sim.run(5)
            return s

        s1, s2 = run(1), run(2)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.f, s2.f)

    def test_timers_and_summary(self):
        s = diamond_lattice(3, 3, 3)
        seeded_velocities(s, 300.0, seed=5)
        with Simulation(s, TersoffProduction(tersoff_si()), workers=2, ranks=2) as sim:
            result = sim.run(3)
            assert sim.timers.comm > 0.0
            assert sim.timers.reduce > 0.0
            td = result.timers.as_dict()
            assert "reduce" in td and td["total"] == pytest.approx(result.timers.total)
            assert "reduce" in result.timers.breakdown()
            summary = sim.workload_summary()
            for key in ("imbalance_measured", "parallel_efficiency", "rank_seconds",
                        "workers", "ranks", "generations", "locality_adjacent_A"):
                assert key in summary
            assert summary["imbalance_measured"] >= 1.0
            assert len(summary["rank_seconds"]) == 2
            par = sim.last_result.stats["parallel"]
            assert par["workers"] == 2 and par["ranks"] == 2

    def test_serial_simulation_unchanged(self):
        s = diamond_lattice(3, 3, 3)
        sim = Simulation(s, TersoffProduction(tersoff_si()))
        assert sim.engine is None
        assert sim.workload_summary() is None
        sim.close()  # no-op


class TestDecompositionSatellites:
    def test_persistent_lists_reused_across_calls(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si())
        dd = DomainDecomposition(system, 4, halo=pot.cutoff + SKIN)
        dd.compute_forces(pot, skin=SKIN)
        dd.compute_forces(pot, skin=SKIN)
        assert set(dd._lists) == {0, 1, 2, 3}
        assert all(nl.n_builds == 1 for nl in dd._lists.values())

    def test_morton_sort_improves_locality_of_shuffled_input(self):
        base = perturbed(diamond_lattice(4, 4, 4), 0.05, seed=3)
        perm = np.random.default_rng(0).permutation(base.n)
        from repro.md.atoms import AtomSystem

        shuffled = AtomSystem(box=base.box, x=base.x[perm], type=base.type[perm],
                              mass=base.mass, species=base.species)
        halo = 4.2
        plain = DomainDecomposition(shuffled, 4, halo=halo, sort=False)
        sorted_dd = DomainDecomposition(shuffled, 4, halo=halo, sort=True)
        a_plain = plain.workload_summary()["locality_adjacent_A"]
        a_sorted = sorted_dd.workload_summary()["locality_adjacent_A"]
        assert a_sorted < a_plain
        assert sorted_dd.workload_summary()["sorted"] is True

    def test_sort_is_order_canonical(self):
        """Morton order is independent of the input permutation."""
        base = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=3)
        perm = np.random.default_rng(1).permutation(base.n)
        from repro.md.atoms import AtomSystem

        shuffled = AtomSystem(box=base.box, x=base.x[perm], type=base.type[perm],
                              mass=base.mass, species=base.species)
        dd1 = DomainDecomposition(base, 2, halo=4.2, sort=True)
        dd2 = DomainDecomposition(shuffled, 2, halo=4.2, sort=True)
        for d1, d2 in zip(dd1.domains, dd2.domains):
            assert np.array_equal(d1.local_system.x, d2.local_system.x)


class TestGhostOnlyDataPlane:
    """Satellite: the engine ships only ghost-region slabs, and the
    byte accounting proves it."""

    def test_forward_bytes_reduced_at_least_2x(self):
        # the halo-bytes bench contract: at 2048 atoms / 8 ranks the
        # ghost-only plane moves less than half the full broadcast
        system = perturbed(diamond_lattice(4, 4, 16), 0.05, seed=3)  # 2048
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system.copy(), pot, workers=8, ranks=8,
                            executor="serial") as eng:
            step = eng.compute(system.x)
            assert step.bytes_forward_full == 8 * system.n * 24
            assert step.bytes_forward < step.bytes_forward_full
            assert step.bytes_forward_full / step.bytes_forward >= 2.0

    def test_step_carries_measured_comm_record(self):
        system = si_system()
        pot = TersoffProduction(tersoff_si(), cache=True)
        with ParallelEngine(system, pot, workers=2, ranks=2) as eng:
            step = eng.compute(system.x)
            assert step.comm is not None
            assert step.comm.messages == 2  # forward + reverse
            assert step.comm.bytes == step.bytes_forward + step.bytes_reverse
            assert step.comm.measured_time_s >= 0.0
            assert set(step.comm.by_stage) == {"forward", "reverse"}
            # the process executor counts its socket bytes, framing included
            sent, received = step.bytes_wire
            assert sent > step.bytes_forward > 0
            assert received > step.bytes_reverse > 0
            assert eng.comm_total.messages == 2
