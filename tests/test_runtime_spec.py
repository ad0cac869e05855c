"""The runtime session layer: spec round-trips, bitwise construction,
forward compatibility, and the CLI flag adapter."""

import argparse
import json

import numpy as np
import pytest

from repro import backends
from repro.core.schemes import make_solver
from repro.md.lattice import diamond_lattice, perturbed
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.runtime import (
    RUNTIME_SCHEMA_VERSION,
    RunSpec,
    SolverSpec,
    SpecError,
    build_potential,
)


def _workload(spec, cells=2, seed=1):
    params = spec.build_params()
    system = perturbed(diamond_lattice(cells, cells, cells), 0.1, seed=seed)
    neigh = NeighborList(NeighborSettings(cutoff=spec.cutoff(params), skin=1.0))
    neigh.build(system.x, system.box)
    return params, system, neigh


ALL_MODES = ["Ref", "Opt-D", "Opt-S", "Opt-M"]


class TestSolverSpecRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("cache", [True, False])
    def test_dict_round_trip_is_identity(self, mode, cache):
        if mode == "Ref":
            spec = SolverSpec(potential="tersoff", mode=mode)
        else:
            spec = SolverSpec(potential="tersoff", mode=mode, cache=cache)
        again = SolverSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_json_round_trip_via_wire(self):
        spec = SolverSpec(potential="sw", mode="Opt-S", cache=False)
        wire = json.loads(spec.canonical_json())
        assert SolverSpec.from_dict(wire) == spec

    def test_canonical_json_is_stable_identity(self):
        a = SolverSpec(mode="Opt-D")
        b = SolverSpec(mode="Opt-D")
        c = SolverSpec(mode="Opt-S")
        assert a.key() == b.key()
        assert a.key() != c.key()

    @pytest.mark.parametrize("mode", ["Opt-D", "Opt-S", "Opt-M"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_rebuilt_spec_is_bitwise(self, mode, cache):
        """A spec serialized, restored and rebuilt produces bitwise
        identical forces — across cache on/off and every precision."""
        spec = SolverSpec(potential="tersoff", mode=mode, cache=cache)
        params, system, neigh = _workload(spec)
        ref = spec.build(params=params).compute(system, neigh)
        again = SolverSpec.from_dict(json.loads(spec.canonical_json()))
        res = again.build(params=params).compute(system, neigh)
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)

    @pytest.mark.parametrize("mode", ["Ref", "Opt-M"])
    def test_build_matches_make_solver(self, mode):
        """The runtime path and the legacy scheme-selection entry point
        construct the same solver (make_solver now delegates)."""
        spec = SolverSpec(potential="tersoff", mode=mode)
        params, system, neigh = _workload(spec)
        a = build_potential(spec, params=params).compute(system, neigh)
        b = make_solver(params, mode).compute(system, neigh)
        assert a.energy == b.energy
        assert np.array_equal(a.forces, b.forces)

    def test_backend_spec_is_bitwise_when_available(self):
        if not backends.is_available("compiled"):
            pytest.skip("compiled backend unavailable")
        spec = SolverSpec(mode="Opt-D", backend="compiled")
        params, system, neigh = _workload(spec)
        ref = SolverSpec(mode="Opt-D", backend="numpy").build(params=params)
        got = SolverSpec.from_dict(spec.to_dict()).build(params=params)
        a = ref.compute(system, neigh)
        b = got.compute(system, neigh)
        assert np.allclose(a.forces, b.forces, atol=1e-10)

    def test_sw_round_trip_bitwise(self):
        spec = SolverSpec(potential="sw", mode="Opt-D")
        params, system, neigh = _workload(spec)
        ref = spec.build(params=params).compute(system, neigh)
        res = SolverSpec.from_dict(spec.to_dict()).build(params=params).compute(
            system, neigh
        )
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)


class TestSpecValidation:
    def test_unknown_schema_version_rejected(self):
        data = SolverSpec().to_dict()
        data["schema"] = RUNTIME_SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="schema version"):
            SolverSpec.from_dict(data)

    def test_missing_schema_version_rejected(self):
        data = SolverSpec().to_dict()
        del data["schema"]
        with pytest.raises(SpecError, match="schema version"):
            SolverSpec.from_dict(data)

    def test_unknown_fields_tolerated(self):
        """Forward compatibility: same-version additions don't break
        old readers."""
        data = SolverSpec(mode="Opt-S").to_dict()
        data["future_knob"] = 42
        assert SolverSpec.from_dict(data) == SolverSpec(mode="Opt-S")

    def test_unknown_potential_rejected(self):
        with pytest.raises(SpecError, match="potential"):
            SolverSpec(potential="eam")

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError, match="mode"):
            SolverSpec(mode="Opt-X")

    def test_backend_on_ref_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            SolverSpec(mode="Ref", backend="numpy")

    def test_backend_on_sw_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            SolverSpec(potential="sw", mode="Opt-D", backend="numpy")

    def test_unknown_params_set_rejected(self):
        with pytest.raises(SpecError, match="params_set"):
            SolverSpec(params_set="Unobtainium")

    def test_run_spec_schema_rejected(self):
        data = RunSpec().to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError, match="schema version"):
            RunSpec.from_dict(data)

    def test_run_spec_conflicting_selectors(self):
        with pytest.raises(SpecError, match="hosts"):
            RunSpec(executor="thread", hosts=("h1", "h2"))

    @pytest.mark.parametrize("name", ["tcp", "unix"])
    def test_socket_executor_names_are_gone(self, name):
        with pytest.raises(SpecError, match="unknown executor"):
            RunSpec(executor=name)


class TestRunSpec:
    def test_round_trip(self):
        run = RunSpec(
            solver=SolverSpec(mode="Opt-S", cache=False),
            workers=4, ranks=8, sort=True, executor="thread", skin=0.5,
        )
        assert RunSpec.from_dict(run.to_dict()) == run
        assert RunSpec.from_dict(json.loads(run.canonical_json())) == run

    def test_hosts_round_trip(self):
        run = RunSpec(hosts=["a:1", "b:2"])
        again = RunSpec.from_dict(run.to_dict())
        assert again.hosts == ("a:1", "b:2")
        assert again == run

    def test_from_args_covers_the_flag_family(self):
        args = argparse.Namespace(
            potential="tersoff", mode="Opt-S", no_cache=True, backend=None,
            workers=2, ranks=4, sort_domains=True, executor="thread",
            hosts=None, skin=2.0,
        )
        run = RunSpec.from_args(args)
        assert run.solver == SolverSpec(mode="Opt-S", cache=False)
        assert (run.workers, run.ranks, run.sort) == (2, 4, True)
        assert run.executor == "thread"
        assert run.skin == 2.0

    def test_from_args_defaults_on_sparse_namespace(self):
        run = RunSpec.from_args(argparse.Namespace())
        assert run == RunSpec()

    def test_from_args_splits_host_strings(self):
        run = RunSpec.from_args(argparse.Namespace(hosts="a:1, b:2,"))
        assert run.hosts == ("a:1", "b:2")

    def test_cli_executor_choices_are_the_spec_names(self):
        from repro.cli import build_parser
        from repro.runtime.spec import EXECUTORS

        parser = build_parser()
        run = parser._subparsers._group_actions[0].choices["run"]
        (action,) = [a for a in run._actions if a.dest == "executor"]
        assert tuple(action.choices) == EXECUTORS
        assert not [a for a in run._actions if a.dest == "transport"]

    def test_with_overrides(self):
        run = RunSpec(workers=2, executor="thread")
        over = run.with_overrides(workers=4, executor=None)
        assert over.workers == 4
        assert over.executor is None
        assert over.solver == run.solver

    def test_build_simulation_matches_direct_construction(self):
        """A RunSpec-built simulation steps bitwise with a hand-wired
        one (the pre-runtime construction path)."""
        from repro.md.lattice import seeded_velocities
        from repro.md.simulation import Simulation

        spec = SolverSpec(mode="Opt-M")
        params = spec.build_params()
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=7)
        seeded_velocities(system, 300.0, seed=7)

        run = RunSpec(solver=spec)
        sim_a = run.build_simulation(system.copy())
        sim_b = Simulation(
            system.copy(), spec.build(params=params),
            neighbor=NeighborSettings(cutoff=spec.cutoff(params), skin=1.0),
        )
        sim_a.run(3)
        sim_b.run(3)
        assert np.array_equal(sim_a.system.x, sim_b.system.x)
        assert np.array_equal(sim_a.system.v, sim_b.system.v)


# exactly what a build that still had the socket-transport knob pinned
# into checkpoints for `repro run --workers 2 --executor tcp` and for
# `repro run --hosts a:1,b:2 --transport tcp`
_SOLVER = {"backend": None, "cache": True, "mode": "Opt-M", "params_set": "default",
           "potential": "tersoff", "schema": 1}
PINNED_EXECUTOR_TCP = {"executor": "tcp", "hosts": None, "ranks": None, "schema": 1,
                       "skin": 1.0, "solver": _SOLVER, "sort": False, "transport": None,
                       "workers": 2}
PINNED_HOSTS_TCP = {"executor": None, "hosts": ["a:1", "b:2"], "ranks": None, "schema": 1,
                    "skin": 1.0, "solver": _SOLVER, "sort": False, "transport": "tcp",
                    "workers": None}


class TestLegacySocketSpecs:
    """Old checkpoints keep restarting: the executor never changes the
    physics, so a pinned socket transport resumes on the process
    executor under the same schema version."""

    @pytest.mark.parametrize("name", ["tcp", "unix"])
    def test_socket_executor_resumes_on_process(self, name):
        run = RunSpec.from_dict({**PINNED_EXECUTOR_TCP, "executor": name})
        assert run.executor == "process"
        assert run.workers == 2 and run.hosts is None
        assert run.solver == SolverSpec()
        assert run.build_executor() == ("process", 2)

    def test_pinned_transport_without_hosts_resumes_on_process(self):
        run = RunSpec.from_dict({**PINNED_EXECUTOR_TCP, "executor": None, "transport": "unix"})
        assert run.executor == "process"

    def test_hosts_with_transport_keep_their_hosts(self):
        run = RunSpec.from_dict(PINNED_HOSTS_TCP)
        assert run.hosts == ("a:1", "b:2")
        assert run.executor is None

    def test_round_trip_drops_the_transport_field(self):
        data = RunSpec.from_dict(PINNED_EXECUTOR_TCP).to_dict()
        assert "transport" not in data
        assert data["schema"] == RUNTIME_SCHEMA_VERSION == 1
        assert RunSpec.from_dict(data).executor == "process"
