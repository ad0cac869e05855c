"""End-to-end benchmark: command-line entry point.

Usage::

    python3 perfbench/run.py --workload md-crystal --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-fc-sweep --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines go first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` with the metric names and units of BENCHMARK.json.  Any
precondition failure (no program source, no compiled backend) exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import (
    BenchError,
    become_subreaper,
    end_processes,
    host_fingerprint,
    log,
    prepare_env,
    require_compiled_backend,
    result_line,
)

WORKLOADS = ("md-crystal", "md-melt-2w", "serve-fc-sweep")


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 *, small: bool = False):
    import bench_md
    import bench_serve

    if name in bench_md.WORKLOADS:
        mod, args = bench_md, (bench_md.WORKLOADS[name],)
    else:
        mod, args = bench_serve, ()
    fn = mod.traced if trace else mod.timed
    return fn(*args, seed, seconds, env, small=small)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="reduced-size run of every workload plus the check mutations")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required (or --self-test)")
    become_subreaper()
    try:
        return _run(args)
    finally:
        end_processes()


def _run(args) -> int:
    try:
        env = prepare_env()
        warm_s = require_compiled_backend()
        log("host: " + json.dumps(host_fingerprint(), sort_keys=True))
        log(f"compiled backend ready (cext warm-up {warm_s:.3f} s, outside every timed region)")
        if args.self_test:
            import selftest

            return selftest.main(env)
        checks, attempted, failed, values = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    stragglers = end_processes()
    checks.append((not stragglers, "every process started by the run ended at exit"
                   + ("" if not stragglers else ": " + "; ".join(stragglers))))
    failed += len(stragglers)
    for ok, detail in checks:
        log(f"check {'ok  ' if ok else 'FAIL'} {detail}")
    log(f"attempted {attempted}, failed {failed}, error_rate {failed / max(attempted, 1):.6f}")
    print(result_line(correct=all(ok for ok, _ in checks), attempted=attempted, failed=failed,
                      values=values, kind="per_layer" if args.trace else "end_to_end"),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
