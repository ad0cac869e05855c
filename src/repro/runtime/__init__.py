"""``repro.runtime`` — the single source of truth for "what solver, how".

Before this package, the solver/run configuration lived in four
hand-rolled copies: :func:`repro.core.schemes.make_solver` keyword
threading, the ``repro run`` / ``repro bench`` CLI flag plumbing, the
checkpoint ``user_meta`` pinning in :mod:`repro.state.checkpoint`, and
the :mod:`repro.perf.suite` case constructors.  Every new knob (PR-5
``cache=``, PR-7 ``backend=``/``executor=``) had to be patched into
each copy separately, and the restart path silently dropped whatever
the copies disagreed on.

Now there is one declarative, schema-versioned description:

:class:`SolverSpec`
    *What* computes forces — potential family, execution mode
    (precision), parameter set, interaction cache, compute backend.
:class:`RunSpec`
    *How* it runs — a :class:`SolverSpec` plus execution topology
    (workers/ranks/sort), executor/hosts selection and the
    neighbor skin.

Both serialize to canonical JSON-able dicts (:meth:`SolverSpec.to_dict`)
and restore bitwise-equivalent solvers (:meth:`SolverSpec.build`); the
checkpoint layer, the CLI, the bench suite and the ``repro serve``
evaluation service (:mod:`repro.serve`) all construct through here.

:class:`SolverPool` keeps *warm* solver sessions — potential plus
step-persistent :class:`~repro.core.pipeline.InteractionCache` and
``Workspace`` — alive across independent evaluation requests, keyed by
(tenant, spec), with LRU eviction.  This is what makes the serve path
fast: the PR-2/5 caches survive between requests.
"""

from repro.runtime.pool import PoolStats, SolverPool, SolverSession
from repro.runtime.session import build_potential, build_simulation
from repro.runtime.spec import (
    RUNTIME_SCHEMA_VERSION,
    RunSpec,
    SolverSpec,
    SpecError,
)

__all__ = [
    "RUNTIME_SCHEMA_VERSION",
    "PoolStats",
    "RunSpec",
    "SolverPool",
    "SolverSession",
    "SolverSpec",
    "SpecError",
    "build_potential",
    "build_simulation",
]
