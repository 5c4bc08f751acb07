"""Architecture-family trade-off sweep (extension).

The paper stresses that its 128-thread/32-quad/16-bank chip "represent[s]
just one of many configurations possible" and cites a companion report on
the Cyclops architecture family for the trade-off study. This driver
sweeps the two sharing knobs that report varies — threads per FPU/cache
and the number of memory banks — over a bandwidth-bound kernel (Triad)
and a compute-bound one (DGEMM), printing the trade-off surface.

Each grid cell is an independent simulation, so the sweep fans out
through :mod:`repro.jobs`: :func:`point` simulates one cell (a
``sharing`` degree or a ``banks`` count) and :func:`run` assembles the
tables, parallel and cached when given a ``runner=``.

Not a paper artifact; registered as ``family`` for completeness.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.tables import format_table
from repro.config import ChipConfig
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.dgemm import DgemmParams, run_dgemm
from repro.workloads.stream import StreamParams, run_stream

#: Task reference for one cell of the trade-off surface.
POINT_TASK = "repro.experiments.family_sweep:point"


#: Sharing degrees (threads per FPU/cache) swept, keyed by ``quick``.
SHARING_DEGREES = {True: (2, 4), False: (1, 2, 4, 8)}

#: Bank counts swept at both sizes. There is no 4-bank point: at full
#: size the paper chip's three 126,000-element Triad vectors do not fit
#: beside its 128 stacks.
BANK_COUNTS = (8, 16)


def grid(quick: bool) -> list[JobSpec]:
    """One :func:`point` job per sharing degree, then per bank count."""
    specs = [JobSpec(task=POINT_TASK, payload={
        "part": "sharing", "degree": degree, "quick": bool(quick),
    }) for degree in SHARING_DEGREES[quick]]
    specs += [JobSpec(task=POINT_TASK, payload={
        "part": "banks", "banks": banks, "quick": bool(quick),
    }) for banks in BANK_COUNTS]
    return specs


def triad_setup(payload: dict) -> tuple[ChipConfig, StreamParams]:
    """The chip configuration and Triad one grid cell runs."""
    quick = bool(payload["quick"])
    if payload["part"] == "sharing":
        degree = int(payload["degree"])
        n_threads = 16 if quick else 32
        per_thread = 200 if quick else 400
        cfg = ChipConfig(
            n_threads=64, threads_per_quad=degree,
            quads_per_icache=1 if degree >= 8 else 2,
        )
        return cfg, StreamParams(
            kernel="triad", n_elements=n_threads * per_thread,
            n_threads=n_threads, policy=AllocationPolicy.SEQUENTIAL,
        )
    if payload["part"] == "banks":
        # A genuinely out-of-cache working set (3 vectors x 126 x N x 8 B
        # must dwarf the 512 KB of cache) so the banks are the bottleneck.
        bank_per_thread = 400 if quick else 1000
        cfg = replace(ChipConfig.paper(),
                      n_memory_banks=int(payload["banks"]))
        return cfg, StreamParams(
            kernel="triad", n_elements=126 * bank_per_thread,
            n_threads=126, warmup=False,
        )
    raise ValueError(f"unknown family-sweep part {payload['part']!r}")


def _sharing_cell(payload: dict) -> dict:
    """Triad + DGEMM on a 64-thread chip at one FPU/cache sharing degree."""
    cfg, params = triad_setup(payload)
    n_threads = params.n_threads
    triad = run_stream(params, config=cfg)
    dgemm = run_dgemm(DgemmParams(
        n=16, block=8, n_threads=min(n_threads, 16),
        use_scratchpad=False, policy=AllocationPolicy.SEQUENTIAL,
    ), config=cfg)
    return {
        "n_fpus": int(cfg.n_fpus),
        "triad_gb_s": float(triad.bandwidth_gb_s),
        "dgemm_flops_per_cycle": float(dgemm.flops_per_cycle),
        "verified": bool(triad.verified and dgemm.verified),
    }


def _banks_cell(payload: dict) -> dict:
    """Out-of-cache Triad at full occupancy with one bank count."""
    cfg, params = triad_setup(payload)
    triad = run_stream(params, config=cfg)
    return {
        "peak_gb_s": float(cfg.peak_memory_bandwidth / 1e9),
        "triad_gb_s": float(triad.bandwidth_gb_s),
        "verified": bool(triad.verified),
    }


def point(spec: JobSpec) -> dict:
    """Job task: one cell of the family trade-off surface."""
    if spec.payload["part"] == "sharing":
        return _sharing_cell(spec.payload)
    return _banks_cell(spec.payload)


@register("family")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """Sweep sharing degree and bank count."""
    runner = runner if runner is not None else JobRunner()
    sharing_degrees = SHARING_DEGREES[quick]
    n_threads = 16 if quick else 32

    report = ExperimentReport(
        experiment_id="family",
        title="Cyclops architecture-family trade-offs (extension)",
        paper=("Section 2: 'The total numbers of processing units and "
               "memory modules are mainly driven by silicon area ... The "
               "degrees of sharing for floating-point and cache units "
               "were selected based on instruction mixes'; the companion "
               "report [3] studies the family."),
    )

    values = runner.map(grid(quick))
    sharing_cells = values[:len(sharing_degrees)]
    banks_cells = values[len(sharing_degrees):]

    rows = []
    for degree, cell in zip(sharing_degrees, sharing_cells):
        rows.append([
            degree, cell["n_fpus"], cell["triad_gb_s"],
            cell["dgemm_flops_per_cycle"],
            "yes" if cell["verified"] else "NO",
        ])
    report.tables.append(format_table(
        ["threads/FPU", "FPUs", "triad GB/s", "dgemm flops/cyc",
         "verified"],
        rows,
        title=f"FPU/cache sharing degree (64 threads, {n_threads} used)",
    ))
    report.measurements["dgemm_flops_degree_min"] = rows[0][3]
    report.measurements["dgemm_flops_degree_max"] = rows[-1][3]

    rows = []
    for banks, cell in zip(BANK_COUNTS, banks_cells):
        rows.append([
            banks, cell["peak_gb_s"], cell["triad_gb_s"],
            "yes" if cell["verified"] else "NO",
        ])
    report.tables.append(format_table(
        ["banks", "peak GB/s", "measured triad GB/s", "verified"],
        rows,
        title="Memory bank count (126 threads, out-of-cache Triad)",
    ))
    report.measurements["triad_banks_min"] = rows[0][2]
    report.measurements["triad_banks_max"] = rows[-1][2]
    report.notes.append(
        "Extension: a family sweep in the spirit of the companion "
        "report; not a figure of this paper."
    )
    return report
