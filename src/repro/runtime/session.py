"""Spec → live objects: the one construction path for solvers and runs.

Everything that used to thread ``(potential, mode, cache, backend,
workers, ranks, executor, ...)`` keywords by hand — the CLI run/bench
paths, checkpoint restart, the bench suite, the serve service — now
builds through :func:`build_potential` / :func:`build_simulation` from
a declarative :class:`~repro.runtime.spec.SolverSpec` /
:class:`~repro.runtime.spec.RunSpec`.

The construction here is *definitive*: a spec serialized, restored and
rebuilt produces a solver whose forces are bitwise identical to the
original (asserted in ``tests/test_runtime_spec.py``).
"""

from __future__ import annotations

from repro.runtime.spec import RunSpec, SolverSpec


def build_potential(spec: SolverSpec, *, params=None):
    """Construct the potential a :class:`SolverSpec` describes.

    ``params`` optionally overrides the named parameter set with an
    explicit parameter object (the bench suite reuses cached params);
    by default :meth:`SolverSpec.build_params` resolves it.

    Returns the potential; its neighbor cutoff is
    :meth:`SolverSpec.cutoff`.
    """
    params = spec.build_params() if params is None else params
    if spec.potential == "sw":
        from repro.core.sw import StillingerWeberProduction, StillingerWeberReference

        if spec.mode == "Ref":
            return StillingerWeberReference(params)
        return StillingerWeberProduction(
            params, precision=spec.precision, cache=spec.cache
        )
    if spec.mode == "Ref":
        from repro.core.tersoff.reference import TersoffReference

        return TersoffReference(params)
    from repro.core.tersoff.production import TersoffProduction

    return TersoffProduction(
        params, precision=spec.precision, cache=spec.cache, backend=spec.backend
    )


def build_simulation(
    run: RunSpec,
    system,
    *,
    potential=None,
    dt: float | None = None,
    thermostat=None,
):
    """Construct a :class:`~repro.md.simulation.Simulation` from a
    :class:`RunSpec`.

    ``potential`` optionally injects an already-built (possibly
    wrapped, e.g. sanitized) potential; by default the run's solver
    spec is built.  Executor resolution — hosts mode or
    plain names — happens through :meth:`RunSpec.build_executor`.
    """
    from repro.md.neighbor import NeighborSettings
    from repro.md.simulation import Simulation

    spec = run.solver
    params = spec.build_params()
    if potential is None:
        potential = build_potential(spec, params=params)
    executor, workers = run.build_executor()
    kwargs: dict = {}
    if dt is not None:
        kwargs["dt"] = dt
    return Simulation(
        system,
        potential,
        neighbor=NeighborSettings(cutoff=spec.cutoff(params), skin=run.skin),
        thermostat=thermostat,
        workers=workers,
        ranks=run.ranks,
        sort=run.sort,
        executor=executor,
        **kwargs,
    )


def restore_run(run: RunSpec, checkpoint, *, potential=None):
    """Rebuild a simulation from a checkpoint under a :class:`RunSpec`.

    The checkpoint carries the *state* (atoms, lists, RNG streams); the
    run spec carries the *configuration* (solver, executor, workers).
    Physics is pinned by the checkpointed ranks — only execution knobs
    from `run` apply.
    """
    from repro.state.checkpoint import restore_simulation

    if potential is None:
        potential = build_potential(run.solver)
    executor, workers = run.build_executor()
    return restore_simulation(
        checkpoint, potential, workers=workers, executor=executor
    )


def spec_from_potential_kwargs(
    potential: str, mode: str, cache: bool, backend: str | None
) -> SolverSpec:
    """Adapter for legacy ``(potential, mode, cache, backend)`` tuples
    (the pre-runtime checkpoint ``user_meta`` layout)."""
    return SolverSpec(potential=potential, mode=mode, cache=bool(cache), backend=backend)
