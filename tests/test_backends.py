"""The compute-backend registry and the compiled/numpy equivalence contract.

The contract under test (DESIGN.md §12): the ``compiled`` Tersoff
kernel consumes the exact staging arrays the numpy kernel stages and
must agree with it to documented per-field bounds — energy to a couple
of ULPs, per-atom energies and the scalar virial to small ULP counts,
forces and the virial tensor to tight *relative* bounds (elementwise
ULP is meaningless there: near-cancelling force components legitimately
differ by many ULPs at ~1e-11 relative error).  The registry must fall
back to numpy gracefully (one warning per process), and the numpy
default must be bitwise-unchanged by the backends package existing.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import build_list
from repro import backends
from repro.backends.base import BackendUnavailableError, ComputeBackend, UnknownBackendError
from repro.core.tersoff.parameters import tersoff_si, tersoff_sic
from repro.core.tersoff.production import TersoffKernel, TersoffProduction
from repro.md.lattice import diamond_lattice, perturbed, zincblende_sic
from repro.vector.precision import Precision

REPO_ROOT = Path(__file__).resolve().parent.parent

COMPILED_AVAILABLE = backends.is_available("compiled")
needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled backend unavailable (no C toolchain)"
)

# ---- documented equivalence bounds (DESIGN.md §12, measured with margin) ----
ENERGY_ULP = 4          # measured 0
PERATOM_ULP = 64        # measured 2 (Si), 13 (SiC multi-species)
VIRIAL_ULP = 32         # measured 7
TENSOR_MAXREL = 1e-13   # measured 6.4e-15
FORCES_MAXREL = 1e-10   # measured 1.1e-11 (relative to the max force magnitude)


def ulp_diff(a, b):
    """Elementwise ULP distance between two float64 arrays.

    Uses the monotone int64 mapping of IEEE-754 doubles: adjacent
    representable values differ by exactly 1.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    ia = a.view(np.int64).copy()
    ib = b.view(np.int64).copy()
    ia[ia < 0] = np.int64(-(2**63)) - ia[ia < 0] - 1
    ib[ib < 0] = np.int64(-(2**63)) - ib[ib < 0] - 1
    return np.abs(ia - ib)


def maxrel(a, b):
    """Max elementwise deviation relative to the largest magnitude in `b`."""
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / scale)


def si_workload(cells=2, seed=5):
    params = tersoff_si()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.12, seed=seed)
    return params, system, build_list(system, params.max_cutoff)


def sic_workload(seed=9):
    params = tersoff_sic()
    system = perturbed(zincblende_sic(2, 2, 2), 0.10, seed=seed)
    return params, system, build_list(system, params.max_cutoff)


def assert_equivalent(res_c, res_n):
    """The documented compiled-vs-numpy bounds, field by field."""
    assert int(ulp_diff(res_c.energy, res_n.energy)[0]) <= ENERGY_ULP
    assert int(np.max(ulp_diff(res_c.stats["per_atom_energy"],
                               res_n.stats["per_atom_energy"]))) <= PERATOM_ULP
    assert int(ulp_diff(res_c.virial, res_n.virial)[0]) <= VIRIAL_ULP
    assert maxrel(res_c.stats["virial_tensor"], res_n.stats["virial_tensor"]) <= TENSOR_MAXREL
    assert maxrel(res_c.forces, res_n.forces) <= FORCES_MAXREL


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_names(self):
        assert "numpy" in backends.names()
        assert "compiled" in backends.names()

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            backends.get("fortran")
        with pytest.raises(UnknownBackendError):
            backends.resolve("fortran")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register(backends.get("numpy"))

    def test_default_is_numpy(self):
        assert backends.get_default() == "numpy"
        assert backends.resolve(None).name == "numpy"

    def test_set_default_validates(self):
        with pytest.raises(UnknownBackendError):
            backends.set_default("cuda")
        assert backends.get_default() == "numpy"

    def test_available_probes_every_backend(self):
        avail = backends.available()
        assert set(avail) == set(backends.names())
        assert avail["numpy"] is None  # always usable

    def test_fallback_warns_once_then_stays_quiet(self):
        broken = ComputeBackend(
            name="test-broken",
            description="always unavailable (test)",
            probe=lambda: "no hardware",
            make_tersoff_kernel=lambda p, pr: None,
        )
        backends.register(broken)
        try:
            with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
                assert backends.resolve("test-broken").name == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert backends.resolve("test-broken").name == "numpy"
        finally:
            backends._REGISTRY.pop("test-broken", None)
            backends._FALLBACK_WARNED.discard("test-broken")

    def test_strict_resolution_raises_instead(self):
        broken = ComputeBackend(
            name="test-strict",
            description="always unavailable (test)",
            probe=lambda: "no hardware",
            make_tersoff_kernel=lambda p, pr: None,
        )
        backends.register(broken)
        try:
            with pytest.raises(BackendUnavailableError, match="no hardware"):
                backends.resolve("test-strict", fallback=False)
        finally:
            backends._REGISTRY.pop("test-strict", None)

    def test_compiled_unavailable_env_gate(self):
        """REPRO_NO_CEXT must leave compiled probed-unavailable
        and --backend compiled degrading to numpy with a warning (fresh
        process: the cext module caches its probe result)."""
        code = (
            "import warnings, repro.backends as b\n"
            "from repro.core.tersoff.parameters import tersoff_si\n"
            "from repro.core.tersoff.production import TersoffProduction\n"
            "assert b.available()['compiled'] is not None\n"
            "with warnings.catch_warnings(record=True) as w:\n"
            "    warnings.simplefilter('always')\n"
            "    pot = TersoffProduction(tersoff_si(), backend='compiled')\n"
            "assert pot.backend_name == 'numpy', pot.backend_name\n"
            "assert any('falling back' in str(x.message) for x in w)\n"
            "print('OK')\n"
        )
        env = {"REPRO_NO_CEXT": "1", "PYTHONPATH": str(REPO_ROOT / "src")}
        import os

        env = {**os.environ, **env}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "OK"


class TestDefaultPathUnchanged:
    def test_default_backend_is_numpy_kernel(self, si_params):
        pot = TersoffProduction(si_params)
        assert pot.backend_name == "numpy"
        assert type(pot.kernel) is TersoffKernel

    def test_explicit_numpy_is_bitwise_default(self, si_params, si_lattice_222, si_neigh_222):
        r0 = TersoffProduction(si_params).compute(si_lattice_222, si_neigh_222)
        r1 = TersoffProduction(si_params, backend="numpy").compute(si_lattice_222, si_neigh_222)
        assert r0.energy == r1.energy
        assert np.array_equal(r0.forces, r1.forces)
        assert r0.virial == r1.virial


# ------------------------------------------------------------- equivalence


@needs_compiled
class TestCompiledEquivalence:
    @pytest.mark.parametrize("cache", [True, False])
    def test_si_double(self, cache):
        params, system, neigh = si_workload()
        rn = TersoffProduction(params, cache=cache).compute(system, neigh)
        rc = TersoffProduction(params, cache=cache, backend="compiled").compute(system, neigh)
        assert rc.stats["backend"]["name"] == "compiled"
        assert_equivalent(rc, rn)

    @pytest.mark.parametrize("cache", [True, False])
    def test_sic_multispecies(self, cache):
        params, system, neigh = sic_workload()
        rn = TersoffProduction(params, cache=cache).compute(system, neigh)
        rc = TersoffProduction(params, cache=cache, backend="compiled").compute(system, neigh)
        assert_equivalent(rc, rn)

    def test_across_rebuild_boundaries(self):
        """Bounds must hold on cache hits AND on restaged topologies."""
        params, system, neigh = si_workload()
        pn = TersoffProduction(params, cache=True)
        pc = TersoffProduction(params, cache=True, backend="compiled")
        rng = np.random.default_rng(17)
        for step in range(4):
            assert_equivalent(pc.compute(system, neigh), pn.compute(system, neigh))
            if step % 2 == 0:
                system.x += 0.02 * rng.standard_normal(system.x.shape)  # cache hit
            else:
                system.x += 0.6 * rng.standard_normal(system.x.shape)   # forces rebuild
            neigh.ensure(system.x, system.box)
        assert pc.cache_stats.hits > 0
        assert pc.cache_stats.invalidations >= 1

    @pytest.mark.parametrize("precision", ["single", "mixed"])
    def test_reduced_precision_tracks_numpy(self, precision):
        """float32 compute paths reorder rounding; bounds are relative."""
        params, system, neigh = si_workload()
        rn = TersoffProduction(params, precision=precision).compute(system, neigh)
        rc = TersoffProduction(params, precision=precision,
                               backend="compiled").compute(system, neigh)
        assert abs(rc.energy - rn.energy) / abs(rn.energy) < 1e-5
        assert maxrel(rc.forces, rn.forces) < 1e-3

    def test_stats_contract_parity(self):
        params, system, neigh = si_workload()
        rn = TersoffProduction(params).compute(system, neigh)
        rc = TersoffProduction(params, backend="compiled").compute(system, neigh)
        assert rc.stats["pairs_in_cutoff"] == rn.stats["pairs_in_cutoff"]
        assert rc.stats["triples"] == rn.stats["triples"]
        assert rc.stats["cache"]["enabled"] == rn.stats["cache"]["enabled"]

    def test_warmup_reported_once(self):
        params, system, neigh = si_workload()
        pot = TersoffProduction(params, backend="compiled")
        first = pot.compute(system, neigh)
        assert first.stats["timing"].get("warmup_s", 0.0) >= 0.0
        assert "warmup_s" in first.stats["timing"]
        again = pot.compute(system, neigh)
        assert "warmup_s" not in again.stats["timing"]


@needs_compiled
class TestStressAccumulation:
    def test_kernel_virial_terms_bitwise_equal_einsum(self):
        """The C kernel accumulates the three virial outer-product sums
        element-by-element in input order — exactly numpy's einsum
        contraction order — so the assembled stress is bitwise equal to
        the numpy backend's reduction on identical inputs."""
        from repro.core.pipeline.cache import InteractionCache

        params, system, neigh = si_workload()
        pot = TersoffProduction(params, backend="compiled")
        if pot.backend_name != "compiled":
            pytest.skip("compiled backend fell back")
        kernel = pot.kernel
        st = InteractionCache().prepare(system, neigh, kernel)
        kernel.evaluate(st, system.n)
        buf = st.gathers["compiled"]
        pd = st.pairs.d
        tp, tk = st.tri.tri_pair, st.tri.tri_k
        assert np.array_equal(buf["stress_p"], np.einsum("ia,ib->ab", pd, buf["fvec"]))
        assert np.array_equal(buf["stress_j"], np.einsum("ia,ib->ab", pd[tp], buf["fj"]))
        assert np.array_equal(buf["stress_k"],
                              np.einsum("ia,ib->ab", st.kcand.d[tk], buf["fk"]))


class TestInterpretedOracle:
    def test_python_loops_match_numpy(self):
        """The interpreted loop body is the readable oracle for what the
        C/JIT kernels implement; it must meet the same bounds."""
        from repro.backends.compiled import CompiledTersoffKernel
        from repro.core.pipeline.pipeline import StagedPipeline

        params, system, neigh = si_workload()
        kernel = CompiledTersoffKernel(params, Precision.parse("double"), strategy="python")
        rc = StagedPipeline(kernel, cache=True).run(system, neigh)
        rn = TersoffProduction(params).compute(system, neigh)
        assert_equivalent(rc, rn)


# ------------------------------------------------- engine × compiled backend


@needs_compiled
class TestEngineWithCompiledBackend:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_across_worker_counts(self, workers):
        """Physics depends only on ranks; compiled workers must agree
        bitwise with compiled workers=1 for the same decomposition."""
        from repro.parallel.engine import ParallelEngine

        params, system, _ = si_workload(cells=3)

        def run(w):
            pot = TersoffProduction(params, backend="compiled")
            with ParallelEngine(system.copy(), pot, workers=w, ranks=4) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        e1, f1 = run(1)
        ew, fw = run(workers)
        assert e1 == ew
        assert np.array_equal(f1, fw)

    def test_serial_executor_matches_process(self):
        from repro.parallel.engine import ParallelEngine

        params, system, _ = si_workload(cells=3)

        def run(executor):
            pot = TersoffProduction(params, backend="compiled")
            with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                                executor=executor) as eng:
                step = eng.compute(system.x)
                return step.energy, step.forces.copy()

        es, fs = run("serial")
        ep, fp = run(None)
        assert es == ep
        assert np.array_equal(fs, fp)


# ------------------------------------------------------------------- hygiene


class TestLintClean:
    def test_new_modules_lint_clean(self):
        """KA001–KA005 over the backends package and the executor, with
        no baseline allowance: new hot-path code starts clean."""
        from repro.analysis.engine import run_lint

        res = run_lint(
            [
                REPO_ROOT / "src" / "repro" / "backends",
                REPO_ROOT / "src" / "repro" / "parallel" / "executor.py",
            ],
            root=REPO_ROOT,
        )
        assert res.errors == []
        assert res.findings == [], [f"{f.path}:{f.line} {f.rule} {f.message}" for f in res.findings]
