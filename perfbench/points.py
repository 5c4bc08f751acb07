"""The benchmark's workloads: fixed lists of paper-path simulation points.

A point is one call into a public entry point of the simulator
(``run_stream``, ``run_barnes``, ``Interpreter.run``, the ``table2``
driver, ...). ``prepare(seed)`` constructs everything the call needs
(chips, interpreters, programs, seeded input data) and returns a
:class:`Prepared` whose ``run()`` makes the timed call and reports what
the simulated machine did, so set-up and simulation are timed apart.

The simulator is imported lazily, inside the prepare functions, so the
direct-execution workloads never import ``repro.isa`` and the ISA
workload is the only path through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

class ChipCollector:
    """Records every ``Chip`` constructed after :meth:`install`.

    Wraps ``Chip.__init__`` for the rest of the process. Entry points
    that build their chips internally (``table2``) are fingerprinted
    through it, and every point's instruction count comes from it.
    """

    def __init__(self) -> None:
        self._chips: list = []

    def install(self) -> None:
        from repro.core.chip import Chip

        init = Chip.__init__
        chips = self._chips

        def collecting_init(chip, *args, **kwargs):
            init(chip, *args, **kwargs)
            chips.append(chip)

        Chip.__init__ = collecting_init

    def take(self) -> list:
        """Chips built since the previous call."""
        chips = list(self._chips)
        self._chips.clear()
        return chips


def instructions_of(chips) -> int:
    """Simulated instructions retired on *chips* (all thread units)."""
    return sum(tu.counters.instructions
               for chip in chips for tu in chip.threads)


@dataclass
class Outcome:
    """What one point's simulation produced."""

    #: ``None`` when the entry point hides its chips; the runner then
    #: fingerprints them with :func:`final_clock`.
    cycles: int | None
    verified: bool
    #: Free-form reason when ``verified`` is false.
    detail: str = ""


@dataclass
class Prepared:
    """A point ready to run: its chip and the timed call."""

    run: Callable[[], Outcome]
    chip: Any = None
    #: Whether the entry point boots a resident ``Kernel`` on ``chip``.
    kernel: bool = False


@dataclass(frozen=True)
class Point:
    """One simulation point of a workload."""

    name: str
    #: Hardware threads the point occupies.
    threads: int
    #: Kernel points: a lower bound on the heap bytes the entry point
    #: allocates. Other points: one past the highest address written.
    data_bytes: int
    prepare: Callable[[int], Prepared]
    #: The package of the entry point (the traced root span's layer).
    layer: str = "workloads"


@dataclass(frozen=True)
class Workload:
    """A named, fixed list of points (rationale: design.json)."""

    name: str
    points: tuple[Point, ...]
    #: Modules whose import the workload's set-up time includes.
    modules: tuple[str, ...]


# ---------------------------------------------------------------------------
# stream126: Figures 5 and 4 at 126 threads
# ---------------------------------------------------------------------------
def _stream_point(name: str, per_thread: int, **mode) -> Point:
    n_threads = 126

    def prepare(seed: int) -> Prepared:
        from repro.core.chip import Chip
        from repro.workloads.stream import StreamParams, run_stream

        # run_stream writes its own constant vectors (STREAM's INIT_*),
        # so the seed does not reach this point's inputs.
        params = StreamParams(kernel="triad",
                              n_elements=per_thread * n_threads,
                              n_threads=n_threads, **mode)
        chip = Chip()

        def run() -> Outcome:
            result = run_stream(params, chip=chip)
            return Outcome(result.cycles, result.verified,
                           "" if result.verified else "STREAM verify failed")

        return Prepared(run, chip, kernel=True)

    return Point(name, n_threads, 3 * 8 * per_thread * n_threads, prepare)


STREAM126 = Workload(
    name="stream126",
    points=(
        _stream_point("triad-2000-blocked", 2000, partition="block"),
        _stream_point("triad-2000-local", 2000, partition="block",
                      local_caches=True),
        _stream_point("triad-800-cyclic", 800, partition="cyclic"),
    ),
    modules=("repro.core.chip", "repro.workloads.stream"),
)


# ---------------------------------------------------------------------------
# splash32: Figure 3 at 32 threads, Figure 7's 256-point FFT
# ---------------------------------------------------------------------------
def _splash_point(name: str, data_bytes: int, make) -> Point:
    """A Figure 3 kernel at 32 threads with fig3's full-size parameters.

    *make* returns ``(entry point, params)``. These entry points seed
    their own inputs internally (fixed NumPy generators), so the
    benchmark seed does not reach them.
    """

    def prepare(seed: int) -> Prepared:
        from repro.core.chip import Chip

        entry, params = make()
        chip = Chip()

        def run() -> Outcome:
            return Outcome(entry(params, chip=chip).cycles, True)

        return Prepared(run, chip, kernel=True)

    return Point(name, 32, data_bytes, prepare)


def _barnes():
    from repro.runtime.kernel import AllocationPolicy
    from repro.workloads.barnes import BarnesParams, run_barnes
    return run_barnes, BarnesParams(n_bodies=512, n_threads=32,
                                    policy=AllocationPolicy.BALANCED,
                                    verify=False)


def _fmm():
    from repro.runtime.kernel import AllocationPolicy
    from repro.workloads.fmm import FMMParams, run_fmm
    return run_fmm, FMMParams(n_bodies=512, levels=4, n_threads=32,
                              policy=AllocationPolicy.BALANCED, verify=False)


def _lu():
    from repro.runtime.kernel import AllocationPolicy
    from repro.workloads.lu import LUParams, run_lu
    return run_lu, LUParams(n=96, block=8, n_threads=32,
                            policy=AllocationPolicy.BALANCED, verify=False)


def _ocean():
    from repro.runtime.kernel import AllocationPolicy
    from repro.workloads.ocean import OceanParams, run_ocean
    return run_ocean, OceanParams(grid=254, iterations=1, n_threads=32,
                                  policy=AllocationPolicy.BALANCED,
                                  verify=False)


def _radix():
    from repro.runtime.kernel import AllocationPolicy
    from repro.workloads.radix import RadixParams, run_radix
    return run_radix, RadixParams(n_keys=16384, n_threads=32,
                                  policy=AllocationPolicy.BALANCED,
                                  verify=False)


def _fft_point(barrier: str) -> Point:
    n_points, n_threads = 256, 16

    def prepare(seed: int) -> Prepared:
        import numpy as np

        from repro.core.chip import Chip
        from repro.workloads.fft import FFTParams, run_fft

        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n_points) \
            + 1j * rng.standard_normal(n_points)
        params = FFTParams(n_points=n_points, n_threads=n_threads,
                           barrier=barrier, verify=True)
        chip = Chip()

        def run() -> Outcome:
            result = run_fft(params, chip=chip, input_values=values)
            return Outcome(result.total_cycles, result.verified,
                           "" if result.verified else "FFT != numpy.fft")

        return Prepared(run, chip, kernel=True)

    # Two signal arrays plus the sqrt(n)- and n-entry root tables.
    data = 8 * (2 * 2 * n_points + 2 * 16 + 2 * n_points)
    return Point(f"fft256-16-{barrier}", n_threads, data, prepare)


SPLASH32 = Workload(
    name="splash32",
    points=(
        _splash_point("barnes-512", 8 * 6 * 512, _barnes),
        _splash_point("fmm-512-l4", 8 * (2 * 512 + 4 * 9 * 341), _fmm),
        _splash_point("lu-96", 8 * 96 * 96, _lu),
        _splash_point("ocean-254", 8 * 254 * 254, _ocean),
        _splash_point("radix-16384", 4 * (2 * 16384 + 32 * 16), _radix),
        _fft_point("hw"),
        _fft_point("sw"),
    ),
    modules=("repro.core.chip", "repro.runtime.kernel",
             "repro.workloads.barnes", "repro.workloads.fmm",
             "repro.workloads.lu", "repro.workloads.ocean",
             "repro.workloads.radix", "repro.workloads.fft"),
)


# ---------------------------------------------------------------------------
# isa: the instruction-level interpreter (sampling.validate's exact shapes)
# ---------------------------------------------------------------------------
#: Memory layout of the ISA points, as in repro.sampling.validate.
_STREAM_SRC, _STREAM_SRC2, _STREAM_DST, _STREAM_STRIDE = (
    0x010000, 0x210000, 0x410000, 0x8000)
_FFT_TWIDDLES, _FFT_PING, _FFT_PONG = 0x010000, 0x100000, 0x400000


def _isa_stream_point(name: str, block_dispatch: bool) -> Point:
    n_threads, per_thread = 32, 4000
    scalar = 3.0

    def prepare(seed: int) -> Prepared:
        from repro.core.chip import Chip
        from repro.isa.interpreter import Interpreter
        from repro.isa.kernels import (stream_kernel_program,
                                       stream_register_setup)
        from repro.memory.address import make_effective
        from repro.memory.interest_groups import IG_ALL

        rng = random.Random(seed)
        chip = Chip()
        interp = Interpreter(chip, model_fetch=False,
                             block_dispatch=block_dispatch)
        program = stream_kernel_program("triad", 1)
        backing = chip.memory.backing
        expected = []
        for t in range(n_threads):
            src = _STREAM_SRC + t * _STREAM_STRIDE
            src2 = _STREAM_SRC2 + t * _STREAM_STRIDE
            dst = _STREAM_DST + t * _STREAM_STRIDE
            x = [rng.uniform(-4.0, 4.0) for _ in range(per_thread)]
            y = [rng.uniform(-4.0, 4.0) for _ in range(per_thread)]
            backing.f64_view(src, per_thread)[:] = x
            backing.f64_view(src2, per_thread)[:] = y
            # fmadd rounds the product before the add, as Python does.
            expected.append((dst, [a + scalar * b for a, b in zip(x, y)]))
            regs, doubles = stream_register_setup(
                "triad", make_effective(src, IG_ALL),
                make_effective(src2, IG_ALL), make_effective(dst, IG_ALL),
                per_thread, scalar)
            interp.add_thread(t, program, regs, doubles)

        def run() -> Outcome:
            cycles = interp.run()
            for dst, want in expected:
                got = backing.f64_view(dst, per_thread)
                if got.tolist() != want:
                    return Outcome(cycles, False,
                                   f"triad result wrong at {dst:#x}")
            return Outcome(cycles, True)

        return Prepared(run, chip)

    end = _STREAM_DST + n_threads * _STREAM_STRIDE
    return Point(name, n_threads, end, prepare, "isa")


def _isa_fft_point(name: str, block_dispatch: bool) -> Point:
    n_threads, n = 32, 256

    def prepare(seed: int) -> Prepared:
        from repro.core.chip import Chip
        from repro.isa.interpreter import Interpreter
        from repro.isa.kernels import (fft_host_reference, fft_kernel_program,
                                       fft_register_setup, fft_result_base,
                                       fft_twiddles)
        from repro.memory.address import make_effective
        from repro.memory.interest_groups import IG_ALL

        rng = random.Random(seed)
        chip = Chip()
        interp = Interpreter(chip, model_fetch=False,
                             block_dispatch=block_dispatch)
        program = fft_kernel_program(n)
        backing = chip.memory.backing
        m = n.bit_length() - 1
        flat = [v for pair in fft_twiddles(n) for v in pair]
        backing.f64_view(_FFT_TWIDDLES, n * m)[:] = flat
        buf_bytes = 16 * n
        regions = []
        for t in range(n_threads):
            ping = _FFT_PING + t * buf_bytes
            pong = _FFT_PONG + t * buf_bytes
            re = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            im = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            buf = backing.f64_view(ping, 2 * n)
            buf[0::2] = re
            buf[1::2] = im
            interp.add_thread(
                t, program,
                fft_register_setup(make_effective(ping, IG_ALL),
                                   make_effective(pong, IG_ALL),
                                   make_effective(_FFT_TWIDDLES, IG_ALL), n),
                {})
            regions.append((fft_result_base(ping, pong, n), re, im))

        def run() -> Outcome:
            cycles = interp.run()
            for base, re, im in regions:
                want_re, want_im = fft_host_reference(re, im, n)
                got = backing.f64_view(base, 2 * n)
                if (got[0::2].tolist() != want_re
                        or got[1::2].tolist() != want_im):
                    return Outcome(cycles, False,
                                   f"FFT result wrong at {base:#x}")
            return Outcome(cycles, True)

        return Prepared(run, chip)

    end = _FFT_PONG + n_threads * 16 * n
    return Point(name, n_threads, end, prepare, "isa")


def _table2_point() -> Point:
    def prepare(seed: int) -> Prepared:
        from repro.experiments.table2_latencies import run as table2

        def run() -> Outcome:
            report = table2(quick=False)
            ok = report.measurements.get("mismatches") == 0.0
            return Outcome(None, ok, "" if ok else "Table 2 row mismatch")

        return Prepared(run)

    return Point("table2", 1, 0, prepare, "experiments")


ISA = Workload(
    name="isa",
    points=(
        _isa_stream_point("isa-triad-32x4000-blocks", True),
        _isa_stream_point("isa-triad-32x4000-threaded", False),
        _isa_fft_point("isa-fft-32x256-blocks", True),
        _isa_fft_point("isa-fft-32x256-threaded", False),
        _table2_point(),
    ),
    modules=("repro.core.chip", "repro.isa.interpreter", "repro.isa.kernels",
             "repro.experiments.table2_latencies"),
)


WORKLOADS = {w.name: w for w in (STREAM126, SPLASH32, ISA)}


def final_clock(chips) -> int:
    """Summed final thread clock of each chip (table2's cycle fingerprint)."""
    return sum(max(tu.issue_time for tu in chip.threads) for chip in chips)
