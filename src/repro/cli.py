"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library, ISA and machine inventory.
``run``
    Run an MD simulation of Tersoff (or SW) silicon and print thermo.
``worker``
    Listen as a cluster worker (``repro run --hosts`` connects to it).
``figure``
    Regenerate one of the paper's figures/tables (fig1..fig9, table1..3).
``sweep``
    The performance-portability sweep (modes x machines).
``bench``
    The wall-clock regression harness: run / baseline / compare / list.
``lint``
    The kernel-contract static analyzer (rules KA001-KA005).
``telemetry``
    Aggregate the JSON-lines telemetry of ``run --telemetry``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args: argparse.Namespace) -> int:
    import multiprocessing

    import repro
    from repro.backends import available, get, get_default
    from repro.perf.machines import host_fingerprint, list_machines
    from repro.runtime.spec import EXECUTORS
    from repro.vector.isa import ISA_REGISTRY

    print(f"repro {repro.__version__} — Tersoff vectorization reproduction (SC'16)")
    print("\ncompute backends:")
    for name, reason in available().items():
        status = "available" if reason is None else f"unavailable: {reason}"
        default = " (default)" if name == get_default() else ""
        print(f"  {name:8s} {status}{default}")
        print(f"           {get(name).description}")
    print("\nexecutors (--executor):")
    methods = multiprocessing.get_all_start_methods()
    print(f"  {', '.join(EXECUTORS)}; start methods on this host: {', '.join(methods)}")
    fp = host_fingerprint()
    print(f"\nhost: {fp.get('processor') or fp.get('arch', '?')} "
          f"({fp.get('cpu_count', '?')} cpus, fingerprint {fp.get('fingerprint_id')})")
    print("\nvector backends:")
    for name, isa in sorted(ISA_REGISTRY.items()):
        feats = []
        if isa.has_native_gather:
            feats.append("gather")
        if isa.has_integer_vector:
            feats.append("int")
        if isa.has_conflict_detection:
            feats.append("cd")
        if isa.has_free_masking:
            feats.append("mask")
        if isa.has_warp_vote:
            feats.append("vote")
        print(f"  {name:8s} W(double)={isa.width_double:<3d} W(single)={isa.width_single:<3d} "
              f"[{', '.join(feats)}]")
    print("\nmodeled machines (Tables I-III):")
    for m in list_machines():
        print(f"  {m.describe()}")
    return 0


def _restart_run_spec(ck, args: argparse.Namespace):
    """The effective :class:`RunSpec` for ``--restart-from``.

    The checkpoint pins the full configuration — solver (potential,
    mode, cache, backend) *and* execution (executor, hosts, workers,
    ranks, sort, skin).  Explicitly-given CLI flags override
    the execution knobs (resuming on different hardware is legitimate);
    the solver always comes from the checkpoint, so the physics cannot
    drift across a restart.
    """
    from repro.runtime.spec import RunSpec

    pinned = ck.run_spec()
    if pinned is None:
        # library-written checkpoint with no pinned config: fall back
        # to the CLI flags wholesale, as before the runtime layer
        return RunSpec.from_args(args)
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.ranks is not None:
        overrides["ranks"] = args.ranks
    if args.executor is not None:
        overrides["executor"] = args.executor
        overrides.setdefault("hosts", None)
    if args.hosts:
        overrides["hosts"] = tuple(
            h.strip() for h in args.hosts.split(",") if h.strip()
        )
        overrides.setdefault("executor", None)
    if args.sort_domains:
        overrides["sort"] = True
    return pinned.with_overrides(**overrides) if overrides else pinned


def _report_comm(sim) -> None:
    """Print the measured-communication line for a parallel run."""
    eng = sim.engine
    if eng is None or not eng.comm_total.messages:
        return
    ct = eng.comm_total
    line = (f"comm: {ct.bytes / 1e6:.2f} MB halo traffic in {ct.messages} messages, "
            f"{ct.measured_time_s * 1e3:.1f} ms measured")
    wire_fn = getattr(eng._exec, "wire_bytes", None)
    if wire_fn is not None and not eng.closed:
        sent, received = wire_fn()
        line += f"; wire {sent / 1e6:.2f} MB out / {received / 1e6:.2f} MB in"
    net = eng.calibrated_network()
    if net is not None:
        line += (f"\ncomm fit ({net.name}): latency {net.latency_s * 1e6:.1f} us, "
                 f"bandwidth {net.bandwidth_Bps / 1e6:.0f} MB/s")
    print(line)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.md.lattice import cells_for_atoms, diamond_lattice, seeded_velocities
    from repro.md.thermo import ThermoSample
    from repro.parallel.executor import ExecutorError
    from repro.runtime.session import build_potential, build_simulation, restore_run
    from repro.runtime.spec import RunSpec, SpecError
    from repro.state import CheckpointError, load_checkpoint

    if args.restart_from:
        # the checkpoint pins the full run spec — solver *and*
        # executor/workers/cache; explicit CLI flags override only the
        # execution knobs (see _restart_run_spec)
        try:
            ck = load_checkpoint(args.restart_from)
        except (OSError, ValueError) as exc:
            print(f"restart: cannot load checkpoint: {exc}", file=sys.stderr)
            return 2
        try:
            run = _restart_run_spec(ck, args)
            pot = build_potential(run.solver)
        except (SpecError, ValueError) as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
        if args.sanitize:
            from repro.analysis.sanitize import SanitizedPotential

            pot = SanitizedPotential(pot)
            print("sanitize: FP faults raise, force results NaN-guarded (debug mode)")
        try:
            sim = restore_run(run, ck, potential=pot)
        except (CheckpointError, ExecutorError) as exc:
            print(f"restart: {exc}", file=sys.stderr)
            return 2
        print(f"restarted from {args.restart_from} at step {sim.step_index} "
              f"({sim.system.n} atoms, {run.solver.potential} ({run.solver.mode}))")
    else:
        try:
            run = RunSpec.from_args(args)
            pot = build_potential(run.solver)
        except (SpecError, ValueError) as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
        if args.sanitize:
            from repro.analysis.sanitize import SanitizedPotential

            pot = SanitizedPotential(pot)
            print("sanitize: FP faults raise, force results NaN-guarded (debug mode)")
        cells = cells_for_atoms(args.atoms)
        system = diamond_lattice(*cells)
        seeded_velocities(system, args.temperature, seed=args.seed)
        try:
            sim = build_simulation(run, system, potential=pot)
        except (SpecError, ValueError, ExecutorError) as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
    callbacks, sinks = _run_sinks(args, run, resume_step=sim.step_index)

    par = ""
    if sim.engine is not None:
        par = f", {sim.engine.workers} workers x {sim.engine.ranks} ranks"
    backend_name = getattr(pot, "backend_name", None)
    be = f", backend {backend_name}" if run.solver.backend is not None and backend_name else ""
    print(f"{sim.system.n} Si atoms, {run.solver.potential} ({run.solver.mode}), "
          f"{args.steps} steps at {args.temperature:.0f} K{par}{be}")
    print(ThermoSample.format_header())
    result = sim.run(args.steps, thermo_every=max(args.steps // 10, 1), callback=callbacks)
    for t in result.thermo:
        print(t.format_row())
    print(f"\n{result.timers.breakdown()}")
    print(f"throughput: {result.ns_per_day(sim.dt):.3f} ns/day "
          f"({result.neighbor_builds} neighbor rebuilds)")
    cache_info = (sim.last_result.stats.get("cache", {}) if sim.last_result else {})
    if cache_info.get("enabled"):
        print(f"interaction cache: {cache_info['hits']} hits, {cache_info['misses']} misses, "
              f"{cache_info['invalidations']} invalidations (list v{cache_info['list_version']})")
    summary = sim.workload_summary()
    if summary is not None:
        print(f"parallel: grid {summary['grid']}, "
              f"imbalance {summary.get('imbalance_measured', summary['imbalance']):.2f}, "
              f"efficiency {summary.get('parallel_efficiency', 0.0):.2f}, "
              f"{summary['generations']} decompositions over {summary['steps']} steps")
    _report_comm(sim)
    for line in _sink_report(sinks):
        print(line)
    for sink in sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    sim.close()
    return 0


def _run_sinks(
    args: argparse.Namespace, run, *, resume_step: int = 0
) -> tuple[list, list]:
    """Build the durability callbacks for ``repro run``.

    `run` is the effective :class:`~repro.runtime.spec.RunSpec`; its
    canonical dict is pinned into checkpoints (``user_meta["run_spec"]``)
    and stamped onto the telemetry stream, so both round-trip the full
    configuration.
    """
    from repro.state import BinaryTrajectory, Checkpointer, TelemetrySink

    resuming = bool(args.restart_from)
    callbacks: list = []
    sinks: list = []
    if args.traj:
        # on resume, frames streamed past the checkpoint are rewound so
        # the appended run continues in strict step order
        traj = BinaryTrajectory(
            args.traj, every=args.traj_every, append=resuming,
            resume_step=resume_step if resuming else None,
        )
        callbacks.append(traj)
        sinks.append(traj)
    if args.telemetry:
        telem = TelemetrySink(
            args.telemetry, every=args.telemetry_every, append=resuming,
            meta=run.to_dict(),
        )
        callbacks.append(telem)
        sinks.append(telem)
    if args.checkpoint_every or args.checkpoint:
        every = args.checkpoint_every or max(args.steps, 1)
        ckpt = Checkpointer(
            args.checkpoint or "run.ckpt", every=every,
            user_meta={"run_spec": run.to_dict()},
        )
        callbacks.append(ckpt)
        sinks.append(ckpt)
    return callbacks, sinks


def _sink_report(sinks: list) -> list[str]:
    lines = []
    for sink in sinks:
        name = type(sink).__name__
        if name == "BinaryTrajectory":
            lines.append(f"trajectory: {sink.frames_written} frames -> {sink.path}")
        elif name == "TelemetrySink":
            lines.append(f"telemetry: {sink.records_written} records -> {sink.path}")
        elif name == "Checkpointer":
            lines.append(f"checkpoint: {sink.checkpoints_written} writes -> {sink.path} "
                         f"(last at step {sink.last_step_written})")
    return lines


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.transport import TransportError, run_worker

    try:
        return run_worker(bind=args.bind, unix=args.unix, once=args.once)
    except TransportError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import EvalServer, ServeConfig

    if args.unix:
        config = ServeConfig(
            unix_path=args.unix,
            max_sessions=args.max_sessions, per_tenant_cap=args.per_tenant_cap,
            skin=args.skin, backlog=args.backlog, batch_max=args.batch_max,
            max_atoms=args.max_atoms,
        )
    else:
        host, _, port = args.bind.rpartition(":")
        try:
            port = int(port)
        except ValueError:
            print(f"serve: bad --bind {args.bind!r} (expected HOST:PORT)",
                  file=sys.stderr)
            return 2
        config = ServeConfig(
            host=host or "127.0.0.1", port=port,
            max_sessions=args.max_sessions, per_tenant_cap=args.per_tenant_cap,
            skin=args.skin, backlog=args.backlog, batch_max=args.batch_max,
            max_atoms=args.max_atoms,
        )
    try:
        server = EvalServer(config)
    except OSError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(f"serving on {server.address} "
          f"(pool {config.max_sessions}, backlog {config.backlog}, "
          f"batch {config.batch_max})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        server.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.md.lattice import diamond_lattice, perturbed
    from repro.runtime import SolverSpec, SpecError
    from repro.serve.loadgen import run_load
    from repro.serve.protocol import system_payload

    try:
        spec = SolverSpec(potential=args.potential, mode=args.mode,
                          cache=not args.no_cache, backend=args.backend)
    except SpecError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    system = perturbed(diamond_lattice(args.cells, args.cells, args.cells),
                       0.1, seed=args.seed)
    result = run_load(
        args.address, spec.to_dict(), system_payload(system),
        requests=args.requests, concurrency=args.concurrency,
        tenant=args.tenant,
    )
    summary = result.summary()
    summary["atoms"] = system.n
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"{summary['requests']} requests ({system.n} atoms), "
              f"{summary['rps']:.1f} req/s over {summary['wall_s']:.2f}s")
        print(f"latency ms: p50 {summary['p50_ms']:.2f}  "
              f"p90 {summary['p90_ms']:.2f}  p99 {summary['p99_ms']:.2f}  "
              f"max {summary['max_ms']:.2f}")
        if summary["errors"]:
            print(f"errors: {summary['errors']}")
    return 0 if not summary["errors"] else 1


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.state.telemetry import render_telemetry_summary, summarize_telemetry

    try:
        summary = summarize_telemetry(args.file)
    except OSError as exc:
        print(f"telemetry summarize: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_telemetry_summary(summary))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import experiments as E

    drivers = {
        "fig1": E.fig1_scheme_mappings,
        "fig2": E.fig2_masking,
        "fig3": E.fig3_precision_validation,
        "fig4": E.fig4_singlethread,
        "fig5": E.fig5_singlenode,
        "fig6": E.fig6_gpu,
        "fig7": E.fig7_xeonphi,
        "fig8": E.fig8_phi_nodes,
        "fig9": E.fig9_strong_scaling,
        "table1": lambda: E.table_rows("I"),
        "table2": lambda: E.table_rows("II"),
        "table3": lambda: E.table_rows("III"),
    }
    if args.which == "all":
        for name, driver in drivers.items():
            print(driver().render())
            print()
        return 0
    if args.which not in drivers:
        print(f"unknown artifact {args.which!r}; choose from {', '.join(drivers)} or 'all'",
              file=sys.stderr)
        return 2
    print(drivers[args.which]().render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import render_validation, run_validation

    checks = run_validation(verbose=args.verbose)
    print(render_validation(checks))
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.tersoff.parameters import tersoff_si
    from repro.core.tersoff.vectorized import TersoffVectorized
    from repro.md.lattice import diamond_lattice, perturbed
    from repro.md.neighbor import NeighborList, NeighborSettings
    from repro.perf.report import render_profile

    params = tersoff_si()
    system = perturbed(diamond_lattice(3, 3, 3), 0.1, seed=6)
    neigh = NeighborList(NeighborSettings(cutoff=params.max_cutoff, skin=1.0))
    neigh.build(system.x, system.box)
    pot = TersoffVectorized(params, isa=args.isa, precision=args.precision, scheme=args.scheme)
    res = pot.compute(system, neigh)
    print(render_profile(res.stats["kernel_stats"], res.stats["isa"],
                         width=res.stats["width"],
                         label=f"{args.precision} scheme {res.stats['scheme']}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.experiments import PAPER_ATOMS, kernel_profile
    from repro.harness.reporting import format_table
    from repro.perf.machines import get_machine
    from repro.perf.model import PerformanceModel

    rows = []
    for name in args.machines:
        machine = get_machine(name)
        model = PerformanceModel(machine)
        row = {"machine": name, "ISA": machine.isa}
        for mode in ("Ref", "Opt-D", "Opt-S", "Opt-M"):
            if machine.isa == "neon" and mode == "Opt-M":
                row[mode] = "n/a"
                continue
            profile = kernel_profile(mode, machine.isa)
            cores = 1 if args.single_thread else machine.cores
            row[mode] = round(model.step_time(profile, PAPER_ATOMS["fig4"], cores=cores).ns_per_day(), 3)
        rows.append(row)
    print(format_table(rows))
    return 0


def _bench_progress(name: str) -> None:
    print(f"  running {name} ...", file=sys.stderr)


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.perf import regress

    try:
        artifact = regress.run_suite(
            smoke=args.smoke, filter=args.filter,
            repeats=args.repeats, warmup=args.warmup, min_time=args.min_time,
            backend=args.backend,
            progress=None if args.quiet else _bench_progress,
        )
    except regress.ArtifactError as exc:
        print(f"bench run: {exc}", file=sys.stderr)
        return 2
    path = regress.write_artifact(artifact, args.out)
    fp = artifact["machine"]
    print(f"wrote {path} ({len(artifact['results'])} cases, "
          f"host {fp['fingerprint_id']}: {fp['processor']})")
    for name, res in sorted(artifact["results"].items()):
        print(f"  {name:32s} median {res['median_s'] * 1e3:9.3f} ms "
              f"(n={res['kept']}, dropped {res['dropped_outliers']})")
    for name, reason in sorted(artifact.get("skipped", {}).items()):
        print(f"  {name:32s} skipped: {reason}")
    return 0


def _cmd_bench_baseline(args: argparse.Namespace) -> int:
    from repro.perf import regress

    try:
        artifact = regress.run_suite(
            smoke=args.smoke, filter=args.filter,
            repeats=args.repeats, warmup=args.warmup, min_time=args.min_time,
            backend=args.backend,
            progress=None if args.quiet else _bench_progress,
        )
    except regress.ArtifactError as exc:
        print(f"bench baseline: {exc}", file=sys.stderr)
        return 2
    out = args.out or (regress.BASELINE_DIR / f"{args.name}.json")
    path = regress.write_artifact(artifact, out)
    print(f"wrote baseline {path} ({len(artifact['results'])} cases)")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.perf import regress

    try:
        baseline = regress.load_artifact(args.baseline)
        if args.current:
            current = regress.load_artifact(args.current)
        else:
            current = regress.run_suite(
                smoke=baseline.get("smoke", False),
                filter=baseline.get("config", {}).get("filter"),
                backend=baseline.get("config", {}).get("backend"),
                repeats=args.repeats, warmup=args.warmup, min_time=args.min_time,
                progress=None if args.quiet else _bench_progress,
            )
        comparison = regress.compare(
            baseline, current,
            fail_tol=args.fail_tol, warn_tol=args.warn_tol, mode=args.mode,
            allow_machine_mismatch=args.allow_machine_mismatch,
        )
    except regress.MachineMismatchError as exc:
        print(f"refusing to compare across hosts: {exc}\n"
              "(re-run with --allow-machine-mismatch to override)", file=sys.stderr)
        return 2
    except regress.ArtifactError as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    print(regress.render_comparison(comparison))
    return comparison.exit_code


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.perf.suite import get_suite

    for case in get_suite(smoke=args.smoke, filter=args.filter):
        flags = [case.tier] + (["smoke"] if case.smoke else [])
        print(f"  {case.name:32s} [{', '.join(flags)}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.spec import EXECUTORS

    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="library / ISA / machine inventory")
    p_info.set_defaults(func=_cmd_info)

    p_run = sub.add_parser("run", help="run an MD simulation")
    p_run.add_argument("--atoms", type=int, default=512)
    p_run.add_argument("--steps", type=int, default=200)
    p_run.add_argument("--temperature", type=float, default=600.0)
    p_run.add_argument("--mode", choices=("Ref", "Opt-D", "Opt-S", "Opt-M"), default="Opt-M")
    p_run.add_argument("--potential", choices=("tersoff", "sw"), default="tersoff")
    p_run.add_argument("--no-cache", action="store_true",
                       help="disable the step-persistent interaction cache "
                            "(results are bit-for-bit identical either way)")
    p_run.add_argument("--backend", choices=("numpy", "compiled"), default=None,
                       help="compute backend for the Tersoff Opt-* production path "
                            "(default: numpy; 'compiled' falls back with a warning "
                            "when no C toolchain is available)")
    p_run.add_argument("--skin", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=2016)
    p_run.add_argument("--workers", type=int, default=None,
                       help="run forces on a persistent pool of N workers")
    p_run.add_argument("--ranks", type=int, default=None,
                       help="domain-decomposition size for --workers (default: workers); "
                            "the physics depends only on ranks, never on workers")
    p_run.add_argument("--sort-domains", action="store_true",
                       help="Morton-order rank-local atoms (locality optimization)")
    p_run.add_argument("--executor", choices=EXECUTORS, default=None,
                       help="execution backend for --workers (default: process pool via "
                            "fork where available; physics is bitwise identical across "
                            "executors)")
    p_run.add_argument("--hosts", default=None, metavar="ADDR,ADDR,...",
                       help="connect to pre-started 'repro worker' listeners "
                            "(host:port for TCP, socket paths for unix sockets); one "
                            "worker per address — the multi-node halo-exchange mode")
    p_run.add_argument("--sanitize", action="store_true",
                       help="debug: raise on FP faults and NaN-guard every force result")
    p_run.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file (default run.ckpt when --checkpoint-every is set)")
    p_run.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="write a bitwise-resumable checkpoint every N steps "
                            "(plus once at run end)")
    p_run.add_argument("--restart-from", default=None, metavar="PATH",
                       help="resume from a checkpoint (bitwise-identical to the "
                            "uninterrupted run); potential config comes from the checkpoint")
    p_run.add_argument("--telemetry", default=None, metavar="PATH",
                       help="write per-step JSON-lines telemetry "
                            "(see 'repro telemetry summarize')")
    p_run.add_argument("--telemetry-every", type=int, default=1, metavar="N",
                       help="telemetry record stride (default 1)")
    p_run.add_argument("--traj", default=None, metavar="PATH",
                       help="stream an append-safe binary trajectory (.rtrj)")
    p_run.add_argument("--traj-every", type=int, default=10, metavar="N",
                       help="trajectory frame stride (default 10)")
    p_run.set_defaults(func=_cmd_run)

    p_worker = sub.add_parser("worker", help="serve engine sessions as a cluster worker")
    p_worker.add_argument("--bind", default=None, metavar="HOST:PORT",
                          help="listen on a TCP address (port 0 picks a free one)")
    p_worker.add_argument("--unix", default=None, metavar="PATH",
                          help="listen on a unix-domain socket path")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after serving one engine session")
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser("serve", help="batched evaluation service (warm solver pool)")
    p_serve.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                         help="TCP listen address (port 0 = ephemeral)")
    p_serve.add_argument("--unix", default=None, metavar="PATH",
                         help="serve on an AF_UNIX socket instead of TCP")
    p_serve.add_argument("--max-sessions", type=int, default=32,
                         help="global warm-session cap (LRU eviction)")
    p_serve.add_argument("--per-tenant-cap", type=int, default=8,
                         help="warm-session cap per tenant")
    p_serve.add_argument("--skin", type=float, default=1.0,
                         help="neighbor skin for serve sessions")
    p_serve.add_argument("--backlog", type=int, default=64,
                         help="bounded queue depth; overflow answers 429")
    p_serve.add_argument("--batch-max", type=int, default=16,
                         help="max requests fused per dispatch")
    p_serve.add_argument("--max-atoms", type=int, default=65536,
                         help="refuse systems above this size (L2)")
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser("loadgen", help="load-generate against a repro serve instance")
    p_load.add_argument("address", help="HOST:PORT or unix socket path")
    p_load.add_argument("--requests", type=int, default=64)
    p_load.add_argument("--concurrency", type=int, default=4)
    p_load.add_argument("--cells", type=int, default=4,
                        help="diamond lattice cells per edge (8*cells^3 atoms)")
    p_load.add_argument("--seed", type=int, default=1)
    p_load.add_argument("--potential", default="tersoff", choices=("tersoff", "sw"))
    p_load.add_argument("--mode", default="Opt-M",
                        choices=("Ref", "Opt-D", "Opt-S", "Opt-M"))
    p_load.add_argument("--no-cache", action="store_true")
    p_load.add_argument("--backend", default=None)
    p_load.add_argument("--tenant", default="default")
    p_load.add_argument("--json", action="store_true", help="machine-readable summary")
    p_load.set_defaults(func=_cmd_loadgen)

    p_fig = sub.add_parser("figure", help="regenerate a paper artifact")
    p_fig.add_argument("which", help="fig1..fig9, table1..table3, or 'all'")
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="performance-portability sweep")
    p_sweep.add_argument("--machines", nargs="+",
                         default=["ARM", "WM", "SB", "HW", "BW", "KNC", "KNL"])
    p_sweep.add_argument("--single-thread", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the correctness battery")
    p_val.add_argument("--verbose", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    p_prof = sub.add_parser("profile", help="cycle profile of the vector kernel")
    p_prof.add_argument("--isa", default="imci")
    p_prof.add_argument("--precision", default="mixed",
                        choices=("double", "single", "mixed"))
    p_prof.add_argument("--scheme", default="auto")
    p_prof.set_defaults(func=_cmd_profile)

    p_bench = sub.add_parser("bench", help="wall-clock regression harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _add_run_args(p):
        p.add_argument("--smoke", action="store_true",
                       help="fast CI-friendly subset of the suite")
        p.add_argument("--filter", default=None,
                       help="only cases whose name contains this substring")
        p.add_argument("--repeats", type=int, default=5)
        p.add_argument("--warmup", type=int, default=1)
        p.add_argument("--min-time", type=float, default=0.5,
                       help="sample each case for at least this many seconds")
        p.add_argument("--backend", choices=("numpy", "compiled"), default=None,
                       help="process-default compute backend for the run "
                            "(cases that pin a backend are unaffected)")
        p.add_argument("--quiet", action="store_true")

    pb_run = bench_sub.add_parser("run", help="run the suite, write BENCH_<timestamp>.json")
    _add_run_args(pb_run)
    pb_run.add_argument("--out", default=None, help="artifact path (default: BENCH_<timestamp>.json)")
    pb_run.set_defaults(func=_cmd_bench_run)

    pb_base = bench_sub.add_parser("baseline",
                                   help="run the suite, write a committed baseline")
    _add_run_args(pb_base)
    pb_base.add_argument("--name", default="default",
                         help="baseline name under benchmarks/baselines/")
    pb_base.add_argument("--out", default=None, help="explicit baseline path")
    pb_base.set_defaults(func=_cmd_bench_baseline)

    pb_cmp = bench_sub.add_parser("compare", help="compare a run against a baseline")
    pb_cmp.add_argument("--baseline", required=True, help="baseline artifact JSON")
    pb_cmp.add_argument("--current", default=None,
                        help="current artifact JSON (default: run the suite now)")
    pb_cmp.add_argument("--mode", choices=("strict", "warn"), default="strict")
    pb_cmp.add_argument("--fail-tol", type=float, default=0.20,
                        help="hard-fail relative slowdown threshold (default 0.20)")
    pb_cmp.add_argument("--warn-tol", type=float, default=0.10,
                        help="warn relative slowdown threshold (default 0.10)")
    pb_cmp.add_argument("--allow-machine-mismatch", action="store_true",
                        help="compare artifacts from different hosts anyway")
    pb_cmp.add_argument("--repeats", type=int, default=5)
    pb_cmp.add_argument("--warmup", type=int, default=1)
    pb_cmp.add_argument("--min-time", type=float, default=0.5,
                        help="sample each case for at least this many seconds")
    pb_cmp.add_argument("--quiet", action="store_true")
    pb_cmp.set_defaults(func=_cmd_bench_compare)

    pb_list = bench_sub.add_parser("list", help="list the curated suite")
    pb_list.add_argument("--smoke", action="store_true")
    pb_list.add_argument("--filter", default=None)
    pb_list.set_defaults(func=_cmd_bench_list)

    p_tel = sub.add_parser("telemetry", help="inspect structured run telemetry")
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    pt_sum = tel_sub.add_parser("summarize", help="aggregate a telemetry JSONL stream")
    pt_sum.add_argument("file", help="telemetry JSONL file written by repro run --telemetry")
    pt_sum.add_argument("--json", action="store_true", help="emit the summary as JSON")
    pt_sum.set_defaults(func=_cmd_telemetry_summarize)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
