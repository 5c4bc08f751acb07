"""The repository benchmark: host time of paper-path simulation points.

Run from the repository root::

    python3 perfbench/run.py --workload stream126 --seed 1 --seconds 30 --trace 0

Workloads are fixed lists of simulation points (see ``points.py`` and
``design.json``). Each run, in one process and one thread:

1. imports the simulator from ``src/`` of the checkout (and fails with
   a non-zero exit if it is not there);
2. pre-flights every point: builds its chip and boot kernel and
   rejects, by name, a point whose threads or data do not fit;
3. times set-up: module imports (median of fresh interpreters) plus the
   construction of every Chip, Kernel, Interpreter and Program the
   workload needs (median of several repetitions);
4. with ``--trace 0``, runs the points round-robin for ``--seconds``
   (at least once each) and reports the end-to-end metrics, one pass
   over the workload estimated from per-point medians;
   with ``--trace 1``, runs one untraced and one traced pass and
   reports the per-layer metrics (see ``tracer.py``).

Every simulated result is checked: a point fails if it raises, if its
output does not verify, or if its simulated cycles or instruction count
differ from ``reference.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-reference`` rewrites ``reference.json`` from one pass over
every workload instead of benchmarking.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: Set-up repetitions per run (the reported set-up time is their median).
SETUP_REPS = 5
#: Fresh interpreters timing the workload's imports.
IMPORT_REPS = 5


class BenchError(Exception):
    """The benchmark cannot run (missing source, bad point, ...)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
def load_simulator() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def import_seconds(modules) -> float:
    """Median import time of *modules* in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            + "".join(f"import {m}; " for m in modules)
            + "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def construct(point, seed: int):
    """Build one point; returns (prepared, host seconds of construction).

    Kernel points additionally boot a ``Kernel`` on the chip, both to
    time its construction and to check the point against the kernel's
    capacity. ``Kernel`` itself raises when the stacks do not fit.
    """
    from repro.errors import CyclopsError
    from repro.runtime.kernel import Kernel

    t0 = time.perf_counter()
    try:
        prepared = point.prepare(seed)
        kernel = Kernel(prepared.chip) if prepared.kernel else None
    except CyclopsError as exc:
        raise BenchError(f"point {point.name}: {exc}") from None
    elapsed = time.perf_counter() - t0
    if kernel is not None:
        if point.threads > kernel.max_software_threads:
            raise BenchError(
                f"point {point.name}: needs {point.threads} threads, the "
                f"kernel offers {kernel.max_software_threads}")
        if point.data_bytes > kernel.heap.available:
            raise BenchError(
                f"point {point.name}: needs {point.data_bytes} heap bytes, "
                f"the kernel heap holds {kernel.heap.available}")
    elif prepared.chip is not None:
        config = prepared.chip.config
        if point.threads > config.n_threads:
            raise BenchError(
                f"point {point.name}: needs {point.threads} threads, the "
                f"chip has {config.n_threads}")
        memory = prepared.chip.memory.address_map.max_memory
        if point.data_bytes > memory:
            raise BenchError(
                f"point {point.name}: places data up to {point.data_bytes}"
                f" bytes, the chip populates {memory}")
    return prepared, elapsed


def setup_seconds(workload, seed: int) -> float:
    """Imports plus the median construction time of the whole workload."""
    imports = import_seconds(workload.modules)
    passes = []
    for _ in range(SETUP_REPS):
        passes.append(sum(construct(p, seed)[1] for p in workload.points))
    return imports + statistics.median(passes)


# ---------------------------------------------------------------------------
# Running and checking points
# ---------------------------------------------------------------------------
class Checker:
    """Runs points and checks them against the reference outputs."""

    def __init__(self, reference: dict | None, collector) -> None:
        self.reference = reference
        self.collector = collector
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, point, seed: int, tracer=None):
        """Prepare, time and check one point.

        Returns ``(wall, cpu, instructions, chips)``; a failure is
        counted and reported on stderr, never raised.
        """
        from points import final_clock, instructions_of

        self.collector.take()
        if tracer is None:
            prepared = point.prepare(seed)
        else:
            prepared = tracer.discarding(lambda: point.prepare(seed))
        gc.collect()
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if tracer is None:
                outcome = prepared.run()
            else:
                outcome = tracer.root(point.layer, prepared.run)
        except Exception as exc:  # a failed point is a result, not a crash
            outcome = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        chips = self.collector.take()
        instructions = instructions_of(chips)
        if outcome is not None:
            cycles = outcome.cycles
            if cycles is None:
                cycles = final_clock(chips)
            if not outcome.verified:
                error = outcome.detail or "output did not verify"
            elif self.reference is not None:
                want = self.reference.get(point.name)
                got = {"cycles": cycles, "instructions": instructions}
                if want != got:
                    error = f"simulated {got}, reference {want}"
            self.last = {"cycles": cycles, "instructions": instructions}
        if error is not None:
            self.failed += 1
            self.errors.append(f"{point.name}: {error}")
            print(f"FAILED {point.name}: {error}", file=sys.stderr)
        return wall, cpu, instructions, chips


def measure(workload, seed: int, seconds: float, checker: Checker) -> dict:
    """Round-robin the points for *seconds*; end-to-end metrics."""
    points = workload.points
    walls = {p.name: [] for p in points}
    cpus = {p.name: [] for p in points}
    insns = {}
    start = time.perf_counter()
    i = 0
    while True:
        point = points[i % len(points)]
        if all(walls.values()):
            expected = statistics.fmean(walls[point.name] or [0.0])
            if time.perf_counter() - start + expected > seconds:
                break
        wall, cpu, count, _ = checker.execute(point, seed)
        walls[point.name].append(wall)
        cpus[point.name].append(cpu)
        insns[point.name] = count
        i += 1
        if i == len(points):
            # Peak memory of set-up plus one pass: later passes only
            # add allocator noise, and their number depends on speed.
            rss = peak_rss_mb()
    wall_s = sum(statistics.median(v) for v in walls.values())
    cpu_s = sum(statistics.median(v) for v in cpus.values())
    return {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "sim_insns_per_s": (sum(insns.values()) / wall_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child (Linux: KiB)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def trace(workload, seed: int, checker: Checker) -> dict:
    """One untraced and one traced pass; per-layer metrics."""
    from tracer import LayerTracer

    untraced = sum(checker.execute(p, seed)[0] for p in workload.points)
    tracer = LayerTracer()
    tracer.install(isa=workload.name == "isa")
    sim = {"memory.local_hit": 0, "memory.remote_hit": 0,
           "memory.local_miss": 0, "memory.remote_miss": 0,
           "memory.switch.contention_cycles": 0,
           "core.instructions": 0, "core.stall_cycles": 0}
    traced = 0.0
    try:
        for point in workload.points:
            wall, _, _, chips = checker.execute(point, seed, tracer)
            traced += wall
            for chip in chips:
                add_simulated_counts(sim, chip)
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, sim, traced, untraced)


def add_simulated_counts(sim: dict, chip) -> None:
    """Accumulate the chip's simulated statistics (never host-dependent)."""
    memory = chip.memory
    for kind, count in memory.kind_counts.items():
        key = f"memory.{kind.value}"
        if key in sim:  # scratchpad accesses are not on these paths
            sim[key] += count
    sim["memory.switch.contention_cycles"] += \
        memory.cache_switch.contention_cycles
    for tu in chip.threads:
        sim["core.instructions"] += tu.counters.instructions
        sim["core.stall_cycles"] += tu.counters.stall_cycles


def layer_metrics(tracer, sim: dict, traced: float, untraced: float) -> dict:
    s = tracer.seconds
    calls = tracer.calls
    steps = calls["engine.steps"]
    accesses = calls["memory.access"]
    layers = ("engine", "runtime", "runtime.barrier", "workloads", "memory",
              "core", "isa", "isa.compile", "experiments")
    covered = sum(s(layer) for layer in layers)
    metrics = {
        "engine.steps": (steps, "count"),
        "engine.self_s": (s("engine"), "s"),
        "engine.ns_per_step": (_per(s("engine"), steps), "ns"),
        "runtime.calls": (calls["runtime.calls"], "count"),
        "runtime.self_s": (s("runtime") + s("runtime.barrier"), "s"),
        "runtime.barrier.waits": (calls["runtime.barrier.waits"], "count"),
        "runtime.barrier.self_s": (s("runtime.barrier"), "s"),
        "workloads.self_s": (s("workloads"), "s"),
        "memory.access.calls": (accesses, "count"),
        "memory.self_s": (s("memory"), "s"),
        "memory.ns_per_access": (_per(s("memory"), accesses), "ns"),
        "memory.target_cache.calls": (calls["memory.target_cache"], "count"),
        "core.fpu.calls": (calls["core.fpu"], "count"),
        "core.self_s": (s("core"), "s"),
        "isa.self_s": (s("isa") + s("isa.compile"), "s"),
        "isa.blocks.dispatches": (tracer.isa_dispatches, "count"),
        "isa.blocks.compiled": (tracer.isa_compiled, "count"),
        "isa.compile_s": (s("isa.compile"), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead": (traced / untraced, "ratio"),
        "trace.coverage": (covered / traced, "ratio"),
    }
    units = {"memory.switch.contention_cycles": "cycles",
             "core.stall_cycles": "cycles"}
    for name, value in sim.items():
        metrics[name] = (value, units.get(name, "count"))
    return metrics


def _per(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def record_reference(seed: int) -> dict:
    """One checked pass over every workload; cycles and instructions."""
    from points import WORKLOADS, ChipCollector

    collector = ChipCollector()
    collector.install()
    checker = Checker(None, collector)
    reference = {}
    for workload in WORKLOADS.values():
        for point in workload.points:
            checker.execute(point, seed)
            reference[point.name] = checker.last
    if checker.failed:
        raise BenchError("; ".join(checker.errors))
    return reference


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_simulator()
        if args.record_reference:
            reference = record_reference(args.seed)
            REFERENCE.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")
            print(f"wrote {REFERENCE.name}: {len(reference)} points")
            return 0
        from points import WORKLOADS, ChipCollector

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        reference = json.loads(REFERENCE.read_text())
        # Pre-flight: every point must fit before anything is timed.
        for point in workload.points:
            construct(point, args.seed)
        setup_s = None if args.trace else setup_seconds(workload, args.seed)
        collector = ChipCollector()
        collector.install()
        checker = Checker(reference, collector)
        if args.trace:
            metrics = trace(workload, args.seed, checker)
        else:
            metrics = measure(workload, args.seed, args.seconds, checker)
            metrics["setup_s"] = (setup_s, "s")
            metrics["ok_frac"] = (
                1.0 - checker.failed / checker.attempted, "ratio")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
