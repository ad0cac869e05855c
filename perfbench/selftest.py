"""Reduced-size self-test of the benchmark (``run.py --self-test``).

1. Runs every workload at reduced size in both modes and prints every
   metric name with its unit and value; each run's checks must pass.
2. Shows that each output check fails on corrupted output: a NaN energy
   drift, one flipped bit in an MD state, one flipped force bit in a
   served response, and a leaked process, shared-memory segment and
   path; and the exit sweep stops an orphaned grandchild.
3. Checks ``md-melt-2w`` bitwise against the serial executor at the same
   ranks.

Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys

import bench_md
import bench_serve
from harness import SCRATCH, LeakAudit, end_processes, log, metric_table, scratch_dir

SMALL_SECONDS = 2.0


def _flip_low_bit(arr, index) -> None:
    """Flip the least significant mantissa bit of one float64 element."""
    arr.reshape(-1).view("<u8")[index] ^= 1


def run_small(env: dict) -> bool:
    import run

    table = metric_table()
    ok = True
    for name in run.WORKLOADS:
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            checks, attempted, failed, values = run.run_workload(
                name, 1, SMALL_SECONDS, trace, env, small=True)
            for good, detail in checks:
                log(f"  check {'ok  ' if good else 'FAIL'} {detail}")
            passed = all(good for good, _ in checks) and failed == 0 and \
                set(values) == set(table[kind])
            ok &= passed
            log(f"{'PASS' if passed else 'FAIL'} {name} {kind}: attempted {attempted}, "
                f"failed {failed}")
            for metric, spec in table[kind].items():
                log(f"    {metric:32s} {values.get(metric, float('nan')):>16.6g} {spec['unit']}")
    return ok


def mutations(env: dict) -> bool:
    """Every output check must reject corrupted output."""
    results = []

    # MD: total-energy drift
    results.append(("drift check rejects a NaN drift",
                    bench_md.check_drift(float("nan"))[0] is False))
    results.append(("drift check rejects a drift above the bound",
                    bench_md.check_drift(10 * bench_md.DRIFT_BOUND_EV_PER_ATOM)[0] is False))

    # MD: state digest, one flipped force bit
    wl = bench_md.WORKLOADS["md-crystal"]
    run = bench_md.MDRun(wl, 1, small=True)
    try:
        bench_md.advance(run, steps=bench_md.DIGEST_STEP)
        good = run.state_digest()
        _flip_low_bit(run.sim.system.f, 0)
        bad = run.state_digest()
    finally:
        run.close()
    results.append(("digest check accepts identical states",
                    bench_md.check_digests(wl, 1, True, [good, good])[0] is True))
    results.append(("digest check rejects one flipped force bit",
                    bench_md.check_digests(wl, 1, True, [good, bad])[0] is False))

    # serve: one flipped force bit in a served response
    base, plan = bench_serve.make_inputs(1, small=True)
    with scratch_dir("selftest-serve") as sd:
        server = bench_serve.Server(sd, env)
        try:
            warm = bench_serve.warm_up(server.address, base)
            from repro.serve import ServeClient

            with ServeClient(server.address) as client:
                out = client.evaluate(bench_serve.solver_dict(),
                                      bench_serve.request_system(base, plan, 0))
        finally:
            server.stop()
    reference = bench_serve.direct_digests(base, plan, [0])
    served = bench_serve.response_digest(out["forces"], out["energy"], out["virial"])
    forces = out["forces"].copy()
    _flip_low_bit(forces, 0)
    flipped = bench_serve.response_digest(forces, out["energy"], out["virial"])
    results.append(("response check accepts the served response",
                    bench_serve.check_responses(warm, {0: (0.0, served)}, reference)[0] is True))
    results.append(("response check rejects one flipped force bit",
                    bench_serve.check_responses(warm, {0: (0.0, flipped)}, reference)[0] is False))

    # leak audit: a live child, a shared-memory segment, a stray path
    from multiprocessing import shared_memory

    audit = LeakAudit()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    shm = shared_memory.SharedMemory(create=True, size=64)
    stray = SCRATCH / "selftest-stray"
    stray.write_text("left behind")
    try:
        leaks = audit.check([stray])
    finally:
        child.kill()
        child.wait()
        shm.close()
        shm.unlink()
        stray.unlink()
    results.append(("leak audit reports a live child process",
                    any(f"process {child.pid}" in leak for leak in leaks)))
    results.append(("leak audit reports a /dev/shm segment",
                    any(shm.name.lstrip("/") in leak for leak in leaks)))
    results.append(("leak audit reports a stray path",
                    any("selftest-stray" in leak for leak in leaks)))
    results.append(("leak audit is clean after cleanup", audit.check([stray]) == []))

    # exit sweep: an orphaned grandchild (its parent has already exited)
    subprocess.run([sys.executable, "-c",
                    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
                    "'import time; time.sleep(60)'])"], check=True)
    killed = end_processes(timeout=1.0)
    results.append(("exit sweep stops an orphaned grandchild",
                    len(killed) == 1 and "time.sleep(60)" in killed[0]))
    results.append(("exit sweep is clean afterwards", end_processes(timeout=1.0) == []))

    for label, passed in results:
        log(f"{'PASS' if passed else 'FAIL'} {label}")
    return all(p for _, p in results)


def melt_vs_serial() -> bool:
    """The default executor and the serial one agree bitwise at 2 ranks."""
    wl = bench_md.WORKLOADS["md-melt-2w"]
    default = bench_md.replay_digest(wl, 1, True)
    serial = bench_md.replay_digest(wl, 1, True, executor="serial")
    passed = default == serial
    log(f"{'PASS' if passed else 'FAIL'} md-melt-2w step-{bench_md.DIGEST_STEP} state: default "
        f"executor {default} vs serial executor {serial}")
    return passed


def main(env: dict) -> int:
    ok = run_small(env)
    ok &= mutations(env)
    ok &= melt_vs_serial()
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
