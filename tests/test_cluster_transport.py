"""The process executor over real sockets: physics, hosts mode, crashes.

Every worker process — a local child on a socket pair or a pre-started
``repro worker`` listener — speaks the same framed-socket protocol.
The full executor conformance battery lives in ``tests/test_executors.py``;
the contracts under test here are:

0. **Hosts-mode transport** — a process executor dialing two
   ``repro worker`` listeners, both over TCP or both over unix sockets,
   runs each worker in its own process, keeps per-worker FIFO order and
   carries arrays bitwise.
1. **Bitwise physics over the wire** — a 2-rank engine on the process
   executor reproduces the serial executor's energy, forces, and virial
   to the byte, across precisions x cache on/off, through multiple
   redecomposition boundaries, and through a checkpoint/restart cycle;
   so do the thread executor, a spawn pool and a hosts-mode engine
   dialing ``repro worker`` over TCP.
2. **Crash containment** — SIGKILL of one rank surfaces as a typed
   failure, the engine closes, and nothing is orphaned: no socket
   files, no tmpdirs, no open sockets, no worker processes, no
   shared-memory segments.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import repro
from repro.core.tersoff.parameters import tersoff_si
from repro.core.tersoff.production import TersoffProduction
from repro.md.integrate import Langevin
from repro.md.lattice import diamond_lattice, perturbed, seeded_velocities
from repro.md.neighbor import NeighborSettings
from repro.md.simulation import Simulation
from repro.parallel.engine import ParallelEngine, WorkerCrash
from repro.parallel.executor import WorkerFailure
from repro.parallel.transport import ProcessExecutor
from repro.perf.network import fit_network_model
from repro.state import load_checkpoint, restore_simulation, save_checkpoint

SKIN = 1.0


class _EchoHost:
    def handle(self, cmd, payload):
        if cmd == "echo":
            return payload
        if cmd == "pid":
            return os.getpid()
        if cmd == "boom":
            raise RuntimeError("intentional cluster test error")
        raise ValueError(f"unknown command {cmd!r}")


class EchoFactory:
    """Module-level so it pickles across the socket handshake."""

    def __call__(self):
        return _EchoHost()


class FailingFactory:
    def __call__(self):
        raise RuntimeError("factory refused")


def _shm_segments():
    return set(glob.glob("/dev/shm/repro_exec*"))


def _tmp_entries():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-*")))


# ---------------------------------------------------------------------------
# 0. hosts-mode transport, per socket family
# ---------------------------------------------------------------------------


LISTENING = "repro worker listening on "


def start_worker_process(flag, spec):
    """``python -m repro worker <flag> <spec> --once`` in its own process;
    returns the process and the address it reports listening on.  The
    worker imports ``repro`` and this module (to unpickle the host
    factory) from the same places this process does."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", flag, spec, "--once"],
        stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    if not line.startswith(LISTENING):
        proc.kill()
        proc.wait()
        pytest.fail(f"repro worker did not start: {line!r}")
    return proc, line[len(LISTENING):].strip()


@pytest.fixture(params=["tcp", "unix"])
def cluster2(request, tmp_path):
    """A hosts-mode executor on two ``repro worker`` processes listening
    on one socket family."""
    if request.param == "tcp":
        specs = [("--bind", "127.0.0.1:0")] * 2
    else:
        specs = [("--unix", str(tmp_path / f"w{i}.sock")) for i in range(2)]
    procs, addrs = [], []
    try:
        for flag, spec in specs:
            proc, addr = start_worker_process(flag, spec)
            procs.append(proc)
            addrs.append(addr)
        ex = ProcessExecutor(hosts=addrs)
        ex.start(EchoFactory())
        yield ex
        ex.shutdown()
        # a `--once` worker exits when its session ends
        for proc in procs:
            assert proc.wait(timeout=10.0) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestClusterExecutorConformance:
    def test_workers_run_in_other_processes(self, cluster2):
        pids = {cluster2.submit(w, "pid", None).result() for w in range(2)}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_fifo_per_worker(self, cluster2):
        futs = [cluster2.submit(0, "echo", i) for i in range(5)]
        assert [f.result() for f in futs] == list(range(5))

    def test_arrays_roundtrip_bitwise(self, cluster2):
        arr = np.array([np.nan, -0.0, 5e-324, 1.0 / 3.0])
        out = cluster2.submit(0, "echo", arr).result()
        assert out.tobytes() == arr.tobytes()


# ---------------------------------------------------------------------------
# 1. bitwise physics over the wire
# ---------------------------------------------------------------------------


def drift_with_kicks(system, rng_seed=9):
    """Positions with >=3 redecomposition boundaries after the first:
    tiny jitter punctuated by one >skin/2 kick per boundary."""
    rng = np.random.default_rng(rng_seed)
    xs = [system.x.copy()]
    for atom in (7, 23, 41):
        xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
        kicked = xs[-1].copy()
        kicked[atom] += np.array([0.6, 0.0, 0.0])  # > skin/2 = 0.5
        xs.append(kicked)
    xs.append(xs[-1] + rng.normal(scale=1e-3, size=xs[-1].shape))
    return xs


def run_engine(executor, precision, cache, xs, system):
    pot = TersoffProduction(tersoff_si(), precision=precision, cache=cache)
    out = []
    redecompositions = 0
    with ParallelEngine(system.copy(), pot, workers=2, ranks=2,
                        executor=executor) as eng:
        for x in xs:
            step = eng.compute(x)
            out.append((step.energy, step.virial, step.forces.copy()))
            redecompositions += step.redecomposed
    return out, redecompositions


class TestClusterEngineBitwise:
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_serial_vs_localhost_tcp(self, precision, cache):
        system = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=3)
        xs = drift_with_kicks(system)
        ref, n_ref = run_engine("serial", precision, cache, xs, system)
        got, n_got = run_engine(ProcessExecutor(2), precision, cache, xs, system)
        assert n_got == n_ref >= 4  # initial decomposition + 3 kicks
        for (e0, v0, f0), (e1, v1, f1) in zip(ref, got):
            assert e1 == e0
            assert v1 == v0
            assert f1.tobytes() == f0.tobytes()

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize("precision", ["double", "single", "mixed"])
    def test_every_executor_matches_serial(self, precision, cache, worker_listeners):
        """thread, spawn and hosts mode over real TCP framing (two
        ``repro worker`` listeners on loopback) carry the serial
        executor's physics too; fork is the default pool above."""
        system = perturbed(diamond_lattice(3, 3, 3), 0.05, seed=3)
        xs = drift_with_kicks(system)
        ref, n_ref = run_engine("serial", precision, cache, xs, system)
        hosts = ProcessExecutor(hosts=worker_listeners(["127.0.0.1:0", "127.0.0.1:0"]))
        for executor in ("thread", "spawn", hosts):
            got, n_got = run_engine(executor, precision, cache, xs, system)
            assert n_got == n_ref >= 4
            for (e0, v0, f0), (e1, v1, f1) in zip(ref, got):
                assert e1 == e0, executor
                assert v1 == v0, executor
                assert f1.tobytes() == f0.tobytes(), executor

    def test_wire_traffic_is_measured_not_modeled(self):
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        pot = TersoffProduction(tersoff_si())
        with ParallelEngine(system, pot, workers=2, ranks=2,
                            executor=ProcessExecutor(2)) as eng:
            step = eng.compute(system.x)
            # real socket bytes moved in both directions, framing included
            assert step.bytes_wire is not None
            sent, received = step.bytes_wire
            assert sent > step.bytes_forward > 0
            assert received > 0
            # per-step CommRecord carries a measured (wall-clock) time
            assert step.comm is not None
            assert step.comm.measured_time_s > 0.0
            assert eng.comm_total.messages > 0
            assert eng.comm_total.measured_time_s > 0.0
            # enough samples to fit a measured fabric model
            net = eng.calibrated_network()
            assert net.bandwidth_Bps > 0.0
            assert net.latency_s >= 0.0


# restart battery: same regime as tests/test_state_restart.py (rebuilds
# on both sides of the checkpoint), but the ranks live behind sockets
TEMP = 1500.0
DT = 0.002
RESTART_SKIN = 0.1
N_STEPS = 12
K_STEPS = 5


def build_sim(si_params, *, workers=None, ranks=None, executor=None):
    s = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
    seeded_velocities(s, TEMP, seed=11)
    pot = TersoffProduction(si_params)
    return Simulation(
        s,
        pot,
        dt=DT,
        thermostat=Langevin(temperature=TEMP, damping=0.1, dt=DT, seed=7),
        neighbor=NeighborSettings(cutoff=pot.cutoff, skin=RESTART_SKIN, full=True),
        workers=workers,
        ranks=ranks,
        executor=executor,
    )


def assert_bitwise_equal(sim, truth):
    __tracebackhide__ = True
    for name in ("x", "v", "f"):
        a = getattr(sim.system, name)
        b = getattr(truth.system, name)
        assert a.tobytes() == b.tobytes(), f"{name} differs"
    assert sim.last_result.energy == truth.last_result.energy
    assert sim.step_index == truth.step_index
    if sim.thermostat is not None:
        assert (
            sim.thermostat.rng.bit_generator.state
            == truth.thermostat.rng.bit_generator.state
        )


class TestClusterRestartEquivalence:
    def test_restart_over_sockets_is_bitwise(self, si_params, tmp_path):
        # truth: the in-process serial engine, straight through
        with build_sim(si_params, workers=2, ranks=2, executor="serial") as truth:
            truth.run(N_STEPS)

            # run K steps with ranks behind sockets, checkpoint...
            with build_sim(si_params, workers=2, ranks=2, executor="process") as sim:
                sim.run(K_STEPS)
                save_checkpoint(sim, tmp_path / "k.ckpt")

            # ...and resume over sockets too: same trajectory, same bits
            ck = load_checkpoint(tmp_path / "k.ckpt")
            with restore_simulation(
                ck, TersoffProduction(si_params), workers=2, executor="process"
            ) as resumed:
                resumed.run(N_STEPS - K_STEPS)
                assert_bitwise_equal(resumed, truth)


class TestHostsMode:
    def test_prestarted_workers_serve_the_engine(self, worker_listeners, tmp_path):
        # two `repro worker` listeners on unix sockets, one session each
        paths = worker_listeners([str(tmp_path / f"w{i}.sock") for i in range(2)])

        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        with ParallelEngine(system.copy(), TersoffProduction(tersoff_si()),
                            workers=2, ranks=2, executor="serial") as eng:
            ref = eng.compute(system.x)
            ref_energy, ref_forces = ref.energy, ref.forces.copy()

        ex = ProcessExecutor(hosts=paths)
        with ParallelEngine(system.copy(), TersoffProduction(tersoff_si()),
                            workers=2, ranks=2, executor=ex) as eng:
            step = eng.compute(system.x)
            assert step.energy == ref_energy
            assert step.forces.tobytes() == ref_forces.tobytes()

        worker_listeners.join()
        for path in paths:  # `once` sessions unlink their sockets
            assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# 2. crash containment
# ---------------------------------------------------------------------------


class TestCrashContainment:
    def test_kill_one_rank_is_contained(self):
        shm_before = _shm_segments()
        tmp_before = _tmp_entries()
        ex = ProcessExecutor(2)
        ex.start(EchoFactory())

        victim = ex._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)

        # the dead rank surfaces as a typed failure (at send or receive)
        with pytest.raises(WorkerFailure):
            ex.submit(0, "echo", 1).result()
        # the surviving rank keeps serving
        assert ex.submit(1, "echo", "ok").result() == "ok"

        ex.shutdown()
        assert all(not p.is_alive() for p in ex._procs)
        assert all(c._sock.fileno() == -1 for c in ex._conns), "open socket after shutdown"
        assert _tmp_entries() == tmp_before, "orphan socket file or tmpdir"
        assert _shm_segments() == shm_before, "orphan shared memory"

    def test_engine_closes_and_cleans_after_worker_death(self):
        shm_before = _shm_segments()
        tmp_before = _tmp_entries()
        ex = ProcessExecutor(2)
        system = perturbed(diamond_lattice(2, 2, 2), 0.05, seed=3)
        eng = ParallelEngine(system, TersoffProduction(tersoff_si()),
                             workers=2, ranks=2, executor=ex)
        eng.compute(system.x)

        os.kill(ex._procs[1].pid, signal.SIGKILL)
        ex._procs[1].join(timeout=10.0)
        with pytest.raises(WorkerCrash):
            eng.compute(system.x)

        assert eng.closed
        assert all(not p.is_alive() for p in ex._procs)
        assert all(c._sock.fileno() == -1 for c in ex._conns)
        assert _tmp_entries() == tmp_before
        assert _shm_segments() == shm_before

    def test_failed_start_leaves_nothing(self):
        """A host factory that raises fails ``start`` with the remote
        traceback and reaps every worker it had started."""
        ex = ProcessExecutor(2)
        with pytest.raises(WorkerFailure, match="factory refused"):
            ex.start(FailingFactory())
        assert len(ex._procs) == 2
        assert all(not p.is_alive() for p in ex._procs)
        assert all(c._sock.fileno() == -1 for c in ex._conns)


# ---------------------------------------------------------------------------
# calibration: measured alpha-beta fabric models
# ---------------------------------------------------------------------------


class TestNetworkFit:
    def test_exact_alpha_beta_recovery(self):
        alpha, bandwidth = 2e-5, 5e8
        samples = [(n, alpha + n / bandwidth) for n in (1e3, 1e5, 1e6)]
        net = fit_network_model(samples)
        assert net.latency_s == pytest.approx(alpha, rel=1e-6)
        assert net.bandwidth_Bps == pytest.approx(bandwidth, rel=1e-6)

    def test_single_size_degrades_to_throughput(self):
        net = fit_network_model([(1000.0, 1e-3)])
        assert net.latency_s == 0.0
        assert net.bandwidth_Bps == pytest.approx(1e6)

    def test_rejects_unusable_samples(self):
        with pytest.raises(ValueError):
            fit_network_model([(100.0, 0.0), (200.0, -1.0)])

    def test_calibrate_measures_a_positive_fabric(self):
        ex = ProcessExecutor(1)
        ex.start(EchoFactory())
        try:
            net = ex.calibrate(sizes=(1 << 10, 1 << 14), repeats=2)
            assert net.latency_s >= 0.0
            assert net.bandwidth_Bps > 0.0
            assert net.name == f"measured-{ex.start_method}"
        finally:
            ex.shutdown()
