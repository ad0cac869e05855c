"""The ``compiled`` backend: Tersoff's computational part off the interpreter.

:class:`CompiledTersoffKernel` subclasses the numpy
:class:`~repro.core.tersoff.production.TersoffKernel` and replaces only
``evaluate`` — the staging contract (filter, triplet expansion,
parameter gathers, `InteractionCache`/`Workspace` reuse) is inherited
verbatim, so cache hits, rebuild boundaries and multi-species staging
behave identically across backends by construction.

Two strategies:

- ``cext``  — the C kernel in ``_tersoff.c``, built at first use with
  the host toolchain (see :mod:`repro.backends.cext`);
- ``python`` — :func:`repro.backends.loops.tersoff_eval_loops`, the
  interpreted loop body; test-only oracle, selectable via
  ``REPRO_COMPILED_STRATEGY=python``.

Per-staging buffers (packed parameter blocks, scratch, outputs) are
allocated once in ``build_staging`` — the cache-miss path — so steady-
state stepping does no allocation beyond what the numpy kernel itself
does.  Elementwise math runs in the compute dtype inside the kernel;
energy, stress and the accumulate-dtype round-through stay in numpy on
the kernel's per-element outputs, reusing the exact reduction code of
the numpy backend (same pairwise-summation behaviour, same einsum).

Engine preparation (the C build/load) happens lazily on the first
``evaluate`` of each kernel instance and is reported as
``timing.warmup_s`` so `StageTimers` can attribute it to the
``warmup`` stage instead of polluting ``pair``/kernel medians.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import hot_path
from repro.backends import cext
from repro.backends.base import BackendUnavailableError
from repro.backends.loops import tersoff_eval_loops
from repro.core.pipeline import PairData, Staging
from repro.core.tersoff.kernels import PROD_PAIR_FIELDS, PROD_TRIPLET_FIELDS
from repro.core.tersoff.production import TersoffKernel
from repro.md.potential import ForceResult

STRATEGIES = ("cext", "python")


def pick_strategy() -> str:
    """Choose the best available strategy (or honour the env override)."""
    forced = os.environ.get("REPRO_COMPILED_STRATEGY")
    if forced:
        if forced not in STRATEGIES:
            raise ValueError(
                f"REPRO_COMPILED_STRATEGY={forced!r}; expected one of {STRATEGIES}"
            )
        return forced
    reason = cext.probe()
    if reason is None:
        return "cext"
    raise BackendUnavailableError(f"compiled backend needs a C toolchain: {reason}")


class CompiledTersoffKernel(TersoffKernel):
    """Tersoff computational part dispatched to compiled machine code.

    Holds no ctypes state itself — engine handles live in module
    caches — so instances deepcopy/pickle cleanly into parallel-engine
    workers; each worker process re-ensures its own engine (a disk-cache
    hit after the first build).
    """

    def __init__(self, params, precision, strategy: str | None = None):
        super().__init__(params, precision)
        self.strategy = strategy if strategy is not None else pick_strategy()
        self._warmed = False

    # ---- staging: inherit, then pack the compiled-call buffers ----------

    def build_staging(self, pairs: PairData, kcand: PairData) -> Staging:
        st = super().build_staging(pairs, kcand)
        cd = self.precision.compute_dtype
        P = pairs.n_pairs
        T = st.tri.n_triplets
        n = pairs.n_atoms

        pp = st.gathers["pair_p"]
        tpars = st.gathers["tri_p"]
        pp_block = np.empty((len(PROD_PAIR_FIELDS), P), dtype=cd)
        for row, field in enumerate(PROD_PAIR_FIELDS):
            pp_block[row] = pp[field]
        tp_block = np.empty((len(PROD_TRIPLET_FIELDS), T), dtype=cd)
        for row, field in enumerate(PROD_TRIPLET_FIELDS):
            tp_block[row] = tpars[field]

        st.gathers["compiled"] = {
            "pp": pp_block,
            "tp": tp_block,
            "mt": np.ascontiguousarray(st.gathers["m_t"], dtype=np.float64),
            "ii": np.ascontiguousarray(pairs.i_idx, dtype=np.int64),
            "jj": np.ascontiguousarray(pairs.j_idx, dtype=np.int64),
            "kjj": np.ascontiguousarray(kcand.j_idx, dtype=np.int64),
            "tpi": np.ascontiguousarray(st.tri.tri_pair, dtype=np.int64),
            "tki": np.ascontiguousarray(st.tri.tri_k, dtype=np.int64),
            # scratch (contents are per-call; allocation is per-staging)
            "zeta": np.empty(P, dtype=np.float64),
            "tscr": np.empty((T, 8), dtype=cd),
            "pref": np.empty(P, dtype=cd),
            "fi": np.empty((T, 3), dtype=np.float64),
            "sbuf": np.empty((n, 3), dtype=np.float64),
            # outputs
            "e_pair": np.empty(P, dtype=cd),
            "fvec": np.empty((P, 3), dtype=np.float64),
            "fj": np.empty((T, 3), dtype=np.float64),
            "fk": np.empty((T, 3), dtype=np.float64),
            "forces": np.empty((n, 3), dtype=np.float64),
            "peratom": np.empty(n, dtype=np.float64),
            "stress_p": np.empty((3, 3), dtype=np.float64),
            "stress_j": np.empty((3, 3), dtype=np.float64),
            "stress_k": np.empty((3, 3), dtype=np.float64),
        }
        return st

    # ---- engine preparation (the warmup cost) ---------------------------

    def _ensure_engine(self) -> None:
        if self.strategy == "cext":
            cext.load()

    # ---- the compiled computational part --------------------------------

    @hot_path(reason="computational part of every force call (compiled backend)")
    def evaluate(self, st: Staging, n: int) -> ForceResult:
        pairs, kcand, tri = st.pairs, st.kcand, st.tri
        P = pairs.n_pairs
        if P == 0:
            # empty-system early return: identical to the numpy backend
            return super().evaluate(st, n)
        T = tri.n_triplets
        cd = self.precision.compute_dtype
        ad = self.precision.accum_dtype
        buf = st.gathers["compiled"]

        warmup_s = None
        if not self._warmed:
            t0 = time.perf_counter()
            # one-time warmup (guarded by _warmed), timed and reported
            # separately; never on the steady-state path
            self._ensure_engine()  # repro-lint: disable=KA003
            warmup_s = time.perf_counter() - t0
            self._warmed = True

        if self.strategy == "cext":
            fn = cext.load()["f64" if np.dtype(cd) == np.float64 else "f32"]
            fn(
                P, T, n,
                pairs.d.ctypes.data, pairs.r.ctypes.data,
                buf["ii"].ctypes.data, buf["jj"].ctypes.data,
                kcand.d.ctypes.data, kcand.r.ctypes.data, buf["kjj"].ctypes.data,
                buf["tpi"].ctypes.data, buf["tki"].ctypes.data,
                buf["pp"].ctypes.data, buf["tp"].ctypes.data, buf["mt"].ctypes.data,
                buf["zeta"].ctypes.data, buf["tscr"].ctypes.data, buf["pref"].ctypes.data,
                buf["fi"].ctypes.data, buf["sbuf"].ctypes.data,
                buf["e_pair"].ctypes.data, buf["fvec"].ctypes.data,
                buf["fj"].ctypes.data, buf["fk"].ctypes.data,
                buf["forces"].ctypes.data, buf["peratom"].ctypes.data,
                buf["stress_p"].ctypes.data, buf["stress_j"].ctypes.data,
                buf["stress_k"].ctypes.data,
            )
        else:
            tersoff_eval_loops(
                pairs.d.astype(cd, copy=False), pairs.r.astype(cd, copy=False),
                buf["ii"], buf["jj"],
                kcand.d.astype(cd, copy=False), kcand.r.astype(cd, copy=False),
                buf["kjj"], buf["tpi"], buf["tki"],
                buf["pp"], buf["tp"], buf["mt"],
                buf["zeta"], buf["tscr"], buf["pref"], buf["fi"], buf["sbuf"],
                buf["e_pair"], buf["fvec"], buf["fj"], buf["fk"],
                buf["forces"], buf["peratom"],
                buf["stress_p"], buf["stress_j"], buf["stress_k"],
            )

        # ---- reductions: energy via numpy's pairwise sum on the kernel's
        # per-pair output; stress assembled from the kernel-accumulated
        # virial terms (per-element accumulation order matches the numpy
        # backend's einsum — verified bitwise in tests/test_backends.py) ----
        energy = float(np.sum(buf["e_pair"].astype(ad, copy=False)))
        stress = buf["stress_p"] - buf["stress_j"] - buf["stress_k"]
        virial = float(np.trace(stress))

        stats = {
            "pairs_in_cutoff": P,
            "triples": T,
            "list_entries": pairs.n_list_entries,
            "filter_efficiency": pairs.filter_efficiency,
            "virial_tensor": 0.5 * (stress + stress.T),
            "per_atom_energy": buf["peratom"].copy(),
            "backend": {"name": "compiled", "strategy": self.strategy},
        }
        if warmup_s is not None:
            stats["timing"] = {"warmup_s": warmup_s}
        # accumulate dtype discipline: round through ad if single precision —
        # the float64 re-cast is the ForceResult ABI, not a promotion leak
        forces = buf["forces"].astype(ad).astype(np.float64)  # repro-lint: disable=KA002
        return ForceResult(energy=energy, forces=forces, virial=virial, stats=stats)
