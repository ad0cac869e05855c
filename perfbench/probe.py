"""One cold start of a workload, timed by the parent benchmark process.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED [--small]``.  Imports
the program, generates the seeded input, builds the solver (and engine
or server), runs the first force evaluation, prints
``READY <digest of the first result>`` and tears everything down,
waiting for every process it started (the shared-memory resource
tracker of the worker pool included) before it exits.
"""

from __future__ import annotations

import argparse
import sys

from harness import BenchError, end_processes, prepare_env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)
    try:
        env = prepare_env()
        import bench_md
        import bench_serve

        if args.workload in bench_md.WORKLOADS:
            bench_md.probe(bench_md.WORKLOADS[args.workload], args.seed, args.small)
        elif args.workload == bench_serve.NAME:
            bench_serve.probe(args.seed, args.small, env)
        else:
            raise BenchError(f"unknown workload {args.workload!r}")
    except BenchError as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 2
    finally:
        end_processes()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
