"""Per-layer host-time tracing, installed from outside the simulator.

The layers are the ``repro`` packages. :class:`LayerTracer` replaces
methods of the classes at each package boundary with span-recording
wrappers (class attributes, patched before any chip is built, restored
by :meth:`LayerTracer.uninstall`); the simulator's own files are not
touched. Spans nest on one stack, and a layer's self time is the summed
duration of its spans minus the time their child spans cover, so the
self times of one traced call add up to that call's duration.

Generators get a span per resumption. Every generator handed to
``Scheduler.spawn`` is wrapped, so each process resumption is a span of
the layer that owns the process (``isa-t*`` interpreter threads are
``isa``, Kernel threads are ``workloads``); generator methods of the
runtime (``ThreadCtx.load_f64``, barrier ``wait``, ...) are wrapped the
same way, so their steps are ``runtime`` spans inside the resumption.

Spans are aggregated as they close (count and self time per layer)
rather than stored: a STREAM point closes millions of them.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter


class LayerTracer:
    """Aggregated span statistics per layer, plus named call counters."""

    def __init__(self) -> None:
        #: Child time accumulated by each open span; index 0 is the root.
        self._stack = [0]
        #: layer -> self time (ns)
        self.self_ns: Counter = Counter()
        #: counter name -> calls
        self.calls: Counter = Counter()
        #: ISA block statistics harvested from finished interpreters.
        self.isa_dispatches = 0
        self.isa_compiled = 0
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------
    def span(self, layer: str, counter: str, fn):
        """A wrapper running *fn* as one span of *layer*."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[counter] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_spans(self, layer: str, counter: str | None = None):
        """A factory wrapping a generator so each resumption is a span.

        With *counter*, every resumption also counts under that name.
        """
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        class GeneratorSpans:
            __slots__ = ("gen",)

            def __init__(self, gen) -> None:
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                stack.append(0)
                t0 = clock()
                try:
                    return self.gen.send(value)
                finally:
                    dt = clock() - t0
                    self_ns[layer] += dt - stack.pop()
                    stack[-1] += dt
                    if counter is not None:
                        calls[counter] += 1

            def throw(self, *exc):
                return self.gen.throw(*exc)

            def close(self):
                self.gen.close()

        return GeneratorSpans

    def generator_method(self, layer: str, counter: str, fn):
        """Wrap generator function *fn*: one call count, a span per step."""
        spans = self.generator_spans(layer)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return spans(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def discarding(self, fn):
        """Run *fn* (set-up work), dropping the spans it records."""
        self_ns, calls = Counter(self.self_ns), Counter(self.calls)
        try:
            return fn()
        finally:
            for saved, live in ((self_ns, self.self_ns), (calls, self.calls)):
                live.clear()
                live.update(saved)

    def root(self, layer: str, fn):
        """Run *fn* as a top-level span of *layer*."""
        return self.span(layer, f"{layer}.root", fn)()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, cls: type, name: str, replacement) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _patch_class(self, cls: type, layer: str, *, counters=None,
                     skip=()) -> None:
        """Wrap every plain method *cls* defines (dunders excluded)."""
        counters = counters or {}
        for name, fn in list(vars(cls).items()):
            if (name.startswith("__") or name in skip
                    or not inspect.isfunction(fn)):
                continue
            counter = counters.get(name, f"{layer}.calls")
            if inspect.isgeneratorfunction(fn):
                wrapped = self.generator_method(layer, counter, fn)
            else:
                wrapped = self.span(layer, counter, fn)
            self._patch(cls, name, wrapped)

    def install(self, isa: bool) -> None:
        """Patch the layer boundaries; *isa* adds the interpreter's."""
        from repro.core.fpu import FPU
        from repro.core.spr import BarrierSPRFile
        from repro.core.thread_unit import ThreadUnit
        from repro.engine.scheduler import Scheduler
        from repro.memory.backing import BackingStore
        from repro.memory.subsystem import MemorySubsystem
        from repro.runtime.barrier_hw import HardwareBarrier
        from repro.runtime.barrier_sw import TreeBarrier
        from repro.runtime.context import ThreadCtx
        from repro.runtime.heap import BumpHeap
        from repro.runtime.kernel import Kernel
        from repro.runtime.locks import SpinLock
        from repro.runtime.reductions import TreeReduction

        # engine: the scheduler loop; processes become resumption spans.
        isa_process = self.generator_spans("isa", "engine.steps")
        kernel_process = self.generator_spans("workloads", "engine.steps")
        spawn = Scheduler.spawn

        def traced_spawn(sched, gen, start_time=None, name=""):
            wrap = isa_process if name.startswith("isa-t") \
                else kernel_process
            return spawn(sched, wrap(gen), start_time, name)

        self._patch(Scheduler, "spawn",
                    self.span("engine", "engine.calls", traced_spawn))
        self._patch_class(Scheduler, "engine", skip=("spawn",))

        # runtime: the direct-execution API, kernel, heap, sync objects.
        self._patch_class(ThreadCtx, "runtime")
        self._patch_class(Kernel, "runtime", skip=("_trampoline",))
        self._patch_class(BumpHeap, "runtime")
        self._patch_class(SpinLock, "runtime")
        self._patch_class(TreeReduction, "runtime")
        for barrier in (HardwareBarrier, TreeBarrier):
            self._patch_class(barrier, "runtime.barrier",
                              counters={"wait": "runtime.barrier.waits"})

        # memory: the timed subsystem and the functional backing store.
        self._patch_class(MemorySubsystem, "memory", counters={
            "access": "memory.access",
            "target_cache": "memory.target_cache",
        })
        self._patch_class(BackingStore, "memory")

        # core: the shared FPU, thread-unit clocks, barrier SPRs.
        self._patch_class(FPU, "core", counters={
            name: "core.fpu" for name in
            ("add", "multiply", "convert", "fma", "divide", "sqrt")})
        self._patch_class(ThreadUnit, "core")
        self._patch_class(BarrierSPRFile, "core")

        if isa:
            self._install_isa()

    def _install_isa(self) -> None:
        from repro.isa.interpreter import Interpreter

        tracer = self
        run = Interpreter.run

        def traced_run(interp, *args, **kwargs):
            final = run(interp, *args, **kwargs)
            if interp.block_dispatch:
                tracer.isa_dispatches += interp._block_dispatched
                tracer.isa_compiled += sum(
                    table.n_fused for table in interp._block_tables.values())
            return final

        self._patch(Interpreter, "run",
                    self.span("isa", "isa.calls", traced_run))
        # Handler and block compilation happen on a thread's first
        # resumption, inside _dispatch_table.
        self._patch(Interpreter, "_dispatch_table",
                    self.span("isa.compile", "isa.compile",
                              Interpreter._dispatch_table))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------------
    def seconds(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9
