"""Halo exchange across cells: the canonical cellular-system workload.

Each cell owns a band of a global 1-D grid (stored in its own embedded
DRAM) and repeatedly (1) relaxes its band with a 3-point stencil using a
team of local threads and the on-chip hardware barrier, then (2)
exchanges boundary elements with its ±x neighbours over the inter-chip
links. This is exactly the communication pattern the paper's
target applications (molecular dynamics, linear algebra) use at system
scale, and it weak-scales: the per-cell work is constant while the
system grows.

``halo_setup`` populates a system (bands, initial data, thread teams)
and the threads report their timings through the system blackboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ChipConfig
from repro.errors import WorkloadError
from repro.runtime.kernel import AllocationPolicy
from repro.system.multichip import MultiChipSystem
from repro.system.topology import Topology
from repro.workloads.common import block_ranges


@dataclass(frozen=True)
class HaloParams:
    """One halo-exchange experiment point.

    ``mesh_ny > 1`` lays the chain of cells over an
    ``(n_chips/mesh_ny) x mesh_ny`` mesh in linear (x-major) order:
    the band decomposition and the data flow are unchanged, but chain
    neighbours at row boundaries exchange over multi-hop routes.
    """

    n_chips: int = 2
    band_elements: int = 512     # grid elements per cell
    iterations: int = 3
    threads_per_chip: int = 8
    mesh_ny: int = 1

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise WorkloadError("need at least one cell")
        if self.band_elements < 4:
            raise WorkloadError("band too small for a stencil")
        if self.mesh_ny < 1 or self.n_chips % self.mesh_ny:
            raise WorkloadError(
                f"mesh_ny={self.mesh_ny} does not divide "
                f"n_chips={self.n_chips}"
            )


@dataclass
class HaloResult:
    """Measured outcome of one halo-exchange run."""

    params: HaloParams
    cycles: int
    link_bytes: int
    verified: bool
    #: The system the run left behind (counters, memory, blackboard).
    system: MultiChipSystem | None = field(default=None, repr=False)


def _cell_body(ctx, system: MultiChipSystem, coord, params: HaloParams,
               layout, barrier, me: int):
    """One thread of one cell; thread 0 additionally runs the exchange."""
    n = params.band_elements
    topology = system.topology
    index = topology.index(coord)
    # Chain neighbours in linear order; on a 1-D chain these are the
    # ±x mesh neighbours, on a 2-D mesh the chain wraps row to row.
    left = topology.coord(index - 1) if index > 0 else None
    right = topology.coord(index + 1) \
        if index < params.n_chips - 1 else None
    rows = layout["ranges"][me]

    if me == 0:
        system.blackboard[f"halo.start:{index}"] = ctx.time
    for _ in range(params.iterations):
        # Local 3-point Jacobi sweep over this thread's slice, reading
        # the previous values buffer and writing the next.
        src, dst = layout["src"], layout["dst"]
        for i in rows:
            tl, vl = yield from ctx.load_f64(ctx.ea(src + 8 * (i - 1)))
            tc, vc = yield from ctx.load_f64(ctx.ea(src + 8 * i))
            tr, vr = yield from ctx.load_f64(ctx.ea(src + 8 * (i + 1)))
            t1 = yield from ctx.fp_add(deps=(tl, tr))
            t2 = yield from ctx.fp_fma(deps=(t1, tc))
            new = 0.25 * vl + 0.5 * vc + 0.25 * vr
            yield from ctx.store_f64(ctx.ea(dst + 8 * i), new, deps=(t2,))
            ctx.charge_ops(2)
            ctx.branch()
        yield from barrier.wait(ctx)
        if me == 0:
            layout["src"], layout["dst"] = layout["dst"], layout["src"]
            # Exchange boundary elements with the neighbours.
            src = layout["src"]
            if right is not None:
                yield from system.send(ctx, right, src + 8 * n, 8)
            if left is not None:
                yield from system.send(ctx, left, src + 8 * 1, 8)
            if left is not None:
                yield from system.receive(ctx, src + 8 * 0,
                                          from_coord=left)
            if right is not None:
                yield from system.receive(ctx, src + 8 * (n + 1),
                                          from_coord=right)
        yield from barrier.wait(ctx)
    if me == 0:
        system.blackboard[f"halo.finish:{index}"] = ctx.time
        system.blackboard[f"halo.src:{index}"] = layout["src"]


def halo_setup(system: MultiChipSystem, params: HaloParams) -> None:
    """Allocate each cell's bands, stage the initial grid, spawn teams."""
    topology = system.topology
    n = params.band_elements
    rng = np.random.default_rng(seed=67)
    global_grid = rng.standard_normal(params.n_chips * n + 2)
    global_grid[0] = global_grid[-1] = 0.0

    for c in range(params.n_chips):
        coord = topology.coord(c)
        kernel = system.kernel_at(coord)
        # Two buffers with one halo element on each side.
        src = kernel.heap.alloc_f64_array(n + 2)
        dst = kernel.heap.alloc_f64_array(n + 2)
        view = system.chip_at(coord).memory.backing.f64_view(src, n + 2)
        view[:] = global_grid[c * n:c * n + n + 2]
        interior = block_ranges(n, params.threads_per_chip)
        layout = {
            "src": src, "dst": dst,
            "ranges": [range(r.start + 1, r.stop + 1) for r in interior],
        }
        barrier = kernel.hardware_barrier(0, params.threads_per_chip)
        for t in range(params.threads_per_chip):
            system.spawn_on(coord, _cell_body, system, coord, params,
                            layout, barrier, t,
                            name=f"halo-{c}-{t}")


def _reference(global_grid: np.ndarray, iterations: int) -> np.ndarray:
    grid = global_grid.copy()
    for _ in range(iterations):
        nxt = grid.copy()
        nxt[1:-1] = 0.25 * grid[:-2] + 0.5 * grid[1:-1] + 0.25 * grid[2:]
        grid = nxt
    return grid


def run_halo(params: HaloParams,
             config: ChipConfig | None = None) -> HaloResult:
    """Run the halo exchange over a chain of cells."""
    system = MultiChipSystem(
        Topology(params.n_chips // params.mesh_ny, params.mesh_ny, 1),
        config, policy=AllocationPolicy.BALANCED)
    halo_setup(system, params)
    system.run()

    topology = system.topology
    n = params.band_elements
    starts = [system.blackboard[f"halo.start:{c}"]
              for c in range(params.n_chips)]
    finishes = [system.blackboard[f"halo.finish:{c}"]
                for c in range(params.n_chips)]
    cycles = max(finishes) - min(starts)

    # Verify against the global reference sweep. With an odd number of
    # iterations the halo copies trail the interior by design (exchange
    # happens after the sweep), so compare interiors only after aligning:
    # every cell's interior must equal the reference at `iterations`.
    rng = np.random.default_rng(seed=67)
    global_grid = rng.standard_normal(params.n_chips * n + 2)
    global_grid[0] = global_grid[-1] = 0.0
    expected = _reference(global_grid, params.iterations)
    verified = True
    for c in range(params.n_chips):
        coord = topology.coord(c)
        src = system.blackboard[f"halo.src:{c}"]
        view = system.chip_at(coord).memory.backing.f64_view(src, n + 2)
        interior_ok = np.allclose(view[1:-1],
                                  expected[c * n + 1:c * n + n + 1])
        verified = verified and bool(interior_ok)
    return HaloResult(
        params=params,
        cycles=cycles,
        link_bytes=system.fabric.total_bytes,
        verified=verified,
        system=system,
    )
