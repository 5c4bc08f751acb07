"""Command-line workload runner: ``python -m repro.workloads``.

Runs any single workload with chosen parameters and prints its result
plus a chip-utilization breakdown — the quickest way to poke at the
simulator without writing a script::

    python -m repro.workloads stream --kernel triad --threads 126 \
        --elements 126000 --local-caches --unroll 4
    python -m repro.workloads fft --points 1024 --threads 16 --barrier sw
    python -m repro.workloads md --particles 256 --threads 32
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.utilization import chip_elapsed, utilization
from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.runtime.kernel import AllocationPolicy


def _policy(name: str) -> AllocationPolicy:
    return AllocationPolicy.BALANCED if name == "balanced" \
        else AllocationPolicy.SEQUENTIAL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--policy", choices=["sequential", "balanced"],
                        default="sequential")
    parser.add_argument("--utilization", action="store_true",
                        help="print the chip utilization breakdown")
    parser.add_argument("--sanitize", action="store_true",
                        help="run under the coherence sanitizer (see "
                             "docs/memory-model.md); prints findings and "
                             "exits 1 if any were found")
    parser.add_argument("--sanitize-report", default=None, metavar="PATH",
                        help="with --sanitize: also write the findings "
                             "as JSON to PATH")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run one Cyclops workload.",
    )
    sub = parser.add_subparsers(dest="workload", required=True)

    p = sub.add_parser("stream", help="STREAM kernel")
    p.add_argument("--kernel", default="triad",
                   choices=["copy", "scale", "add", "triad"])
    p.add_argument("--elements", type=int, default=32 * 400)
    p.add_argument("--partition", choices=["block", "cyclic"],
                   default="block")
    p.add_argument("--local-caches", action="store_true")
    p.add_argument("--unroll", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("fft", help="Splash-2 FFT")
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--barrier", choices=["hw", "sw"], default="hw")
    _add_common(p)

    p = sub.add_parser("lu", help="blocked LU")
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--block", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("radix", help="radix sort")
    p.add_argument("--keys", type=int, default=4096)
    _add_common(p)

    p = sub.add_parser("ocean", help="red-black SOR")
    p.add_argument("--grid", type=int, default=66)
    p.add_argument("--iterations", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("barnes", help="Barnes-Hut N-body")
    p.add_argument("--bodies", type=int, default=256)
    _add_common(p)

    p = sub.add_parser("fmm", help="fast multipole method")
    p.add_argument("--bodies", type=int, default=256)
    p.add_argument("--levels", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("md", help="Lennard-Jones molecular dynamics")
    p.add_argument("--particles", type=int, default=256)
    _add_common(p)

    p = sub.add_parser("raytrace", help="Whitted raytracer")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=24)
    _add_common(p)

    p = sub.add_parser("dgemm", help="blocked matrix multiply")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--block", type=int, default=8)
    p.add_argument("--no-scratchpad", action="store_true")
    _add_common(p)
    return parser


def _run(args) -> tuple[object, Chip | None]:
    policy = _policy(args.policy)
    if args.workload == "stream":
        from repro.workloads.stream import StreamParams, run_stream
        chip = Chip(ChipConfig.paper())
        result = run_stream(StreamParams(
            kernel=args.kernel, n_elements=args.elements,
            n_threads=args.threads, partition=args.partition,
            local_caches=args.local_caches, unroll=args.unroll,
            policy=policy,
        ), chip=chip)
        print(f"{result.bandwidth_gb_s:.2f} GB/s aggregate, "
              f"{result.mean_thread_bandwidth_mb_s:.1f} MB/s/thread, "
              f"{result.cycles} cycles, verified={result.verified}")
        return result, chip
    if args.workload == "fft":
        from repro.workloads.fft import FFTParams, run_fft
        result = run_fft(FFTParams(n_points=args.points,
                                   n_threads=args.threads,
                                   barrier=args.barrier, policy=policy))
        print(f"{result.total_cycles} cycles (run {result.run_cycles}, "
              f"stall {result.stall_cycles}), verified={result.verified}")
        return result, None
    if args.workload == "lu":
        from repro.workloads.lu import LUParams, run_lu
        result = run_lu(LUParams(n=args.n, block=args.block,
                                 n_threads=args.threads, policy=policy))
    elif args.workload == "radix":
        from repro.workloads.radix import RadixParams, run_radix
        result = run_radix(RadixParams(n_keys=args.keys,
                                       n_threads=args.threads,
                                       policy=policy))
    elif args.workload == "ocean":
        from repro.workloads.ocean import OceanParams, run_ocean
        result = run_ocean(OceanParams(grid=args.grid,
                                       iterations=args.iterations,
                                       n_threads=args.threads,
                                       policy=policy))
    elif args.workload == "barnes":
        from repro.workloads.barnes import BarnesParams, run_barnes
        result = run_barnes(BarnesParams(n_bodies=args.bodies,
                                         n_threads=args.threads,
                                         policy=policy))
    elif args.workload == "fmm":
        from repro.workloads.fmm import FMMParams, run_fmm
        result = run_fmm(FMMParams(n_bodies=args.bodies,
                                   levels=args.levels,
                                   n_threads=args.threads, policy=policy))
    elif args.workload == "md":
        from repro.workloads.md import MDParams, run_md
        result = run_md(MDParams(n_particles=args.particles,
                                 n_threads=args.threads, policy=policy))
    elif args.workload == "raytrace":
        from repro.workloads.raytrace import RayTraceParams, run_raytrace
        result = run_raytrace(RayTraceParams(width=args.width,
                                             height=args.height,
                                             n_threads=args.threads,
                                             policy=policy))
    else:  # dgemm
        from repro.workloads.dgemm import DgemmParams, run_dgemm
        result = run_dgemm(DgemmParams(n=args.n, block=args.block,
                                       n_threads=args.threads,
                                       use_scratchpad=not args.no_scratchpad,
                                       policy=policy))
    print(f"{result.cycles} cycles, verified={result.verified}")
    return result, None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.sanitize_report and not args.sanitize:
        print("error: --sanitize-report requires --sanitize",
              file=sys.stderr)
        return 2
    if args.sanitize:
        # Chips are built inside the workload drivers, so the switch is
        # session-global; the session roster collects every sanitizer.
        from repro.sanitizer import session
        session.reset()
        session.force(True)
    try:
        result, chip = _run(args)
    finally:
        if args.sanitize:
            from repro.sanitizer import session
            session.force(False)
    if args.utilization and chip is not None:
        print()
        print(utilization(chip, chip_elapsed(chip)).render())
    if args.sanitize:
        from repro.sanitizer.report import (
            render_report,
            session_report,
            write_json,
        )
        report = session_report()
        print()
        print(render_report(report))
        if args.sanitize_report:
            write_json(args.sanitize_report, report)
        if report["total_findings"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
