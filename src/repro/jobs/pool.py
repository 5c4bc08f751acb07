"""Fault-tolerant execution of job specs: worker pool + inline fallback.

:class:`JobRunner` is the one front door. It takes a batch of
:class:`~repro.jobs.spec.JobSpec`, serves what it can from the
:class:`~repro.jobs.cache.ResultCache`, and executes the rest either
inline (``n_workers <= 1``, or after the pool degrades) or on a pool of
``multiprocessing`` workers. Results always come back in submit order,
so a pooled sweep is byte-identical to a serial one.

Failure semantics, in one place:

* a task that **raises** consumes one attempt; deterministic failures
  therefore fail fast inline (one attempt, no isolation to pay for) and
  retry with exponential backoff under the pool;
* a worker that **dies** (segfault, ``os._exit``, OOM-kill) is detected
  by liveness polling; the job it held is retried on a fresh worker;
* a job that exceeds its **timeout** gets its worker killed (the only
  way to interrupt a stuck simulation) and is retried or failed;
* when respawns exceed a small budget the pool assumes the host is
  hostile, shuts down, and finishes the remaining jobs inline — the
  batch still completes, just without parallelism.

Setting ``REPRO_JOBS_INJECT_CRASH=<index>`` makes the worker holding job
*index* die before its first attempt — the hook the CI smoke job and the
fault-injection tests use to prove recovery end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import JobError
from repro.jobs.cache import ResultCache
from repro.jobs.spec import JobSpec, execute_spec
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS

#: Kill the worker before attempt 0 of this job index (fault injection).
CRASH_ENV = "REPRO_JOBS_INJECT_CRASH"

#: Force inline execution regardless of the requested worker count.
FORCE_INLINE_ENV = "REPRO_JOBS_FORCE_INLINE"

#: How often the manager polls for results / deadlines / dead workers.
_POLL_SECONDS = 0.02


@dataclass
class JobResult:
    """Outcome of one spec: a value or an error, plus provenance."""

    spec: JobSpec
    value: Any = None
    error: str | None = None
    #: Served from the result cache (no simulation ran).
    cached: bool = False
    #: Execution attempts consumed (0 for a cache hit).
    attempts: int = 0
    #: Task wall-clock of the successful attempt (stored one on a hit).
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class JobEvent:
    """One progress notification handed to ``on_event`` observers.

    ``kind`` is one of ``submitted``, ``hit``, ``start``, ``done``,
    ``error``, ``retry``, ``respawn``, ``timeout``, ``degrade``.
    """

    kind: str
    index: int
    spec: JobSpec | None = None
    attempt: int = 0
    detail: str = ""


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def kill_process(process, grace: float = 1.0) -> None:
    """Terminate *process*, escalating to SIGKILL after *grace* seconds."""
    if process.ident is None:
        return  # never started (e.g. spawn itself failed) — nothing to kill
    if process.is_alive():
        process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join(grace)


def _worker_main(task_queue, result_queue) -> None:
    """Worker loop: pull ``(index, attempt, spec_dict)``, push results.

    Runs in a child process. Catches everything including
    ``KeyboardInterrupt`` so a failing task becomes a structured error
    message, not a dead worker; only genuine process death (tested via
    the crash-injection hook) exercises the respawn path.
    """
    while True:
        message = task_queue.get()
        if message is None:
            return
        index, attempt, spec_dict = message
        if attempt == 0 and os.environ.get(CRASH_ENV) == str(index):
            os._exit(3)
        try:
            value, elapsed = execute_spec(JobSpec.from_dict(spec_dict))
        except BaseException:
            result_queue.put(
                (index, attempt, False, traceback.format_exc(limit=20), 0.0)
            )
        else:
            result_queue.put((index, attempt, True, value, elapsed))


@dataclass
class _Worker:
    """Manager-side handle on one worker process."""

    process: multiprocessing.Process
    task_queue: Any
    #: ``(index, attempt, deadline | None)`` of the in-flight job.
    busy: tuple[int, int, float | None] | None = None


@dataclass
class _JobState:
    """Manager-side bookkeeping for one submitted job."""

    index: int
    spec: JobSpec
    attempts: int = 0
    #: Earliest dispatch time (monotonic) after a backoff.
    not_before: float = 0.0
    finished: bool = False


def _new_stats() -> dict:
    return {
        "submitted": 0,
        "completed": 0,
        "failed": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "degraded": 0,
    }


class JobRunner:
    """Run batches of job specs with caching, workers, and retries.

    The default construction — ``JobRunner()`` — is a pure inline,
    cache-free executor whose behaviour is indistinguishable from
    calling the tasks directly. It is what ``python -m
    repro.experiments run`` uses without ``-j``, and what drivers use
    when no runner is supplied.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        metrics: MetricsRegistry | None = None,
        on_event: Callable[[JobEvent], None] | None = None,
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise JobError(f"n_workers must be >= 1, got {n_workers}")
        if retries < 0:
            raise JobError(f"retries must be >= 0, got {retries}")
        self.n_workers = n_workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.on_event = on_event
        self.start_method = start_method
        #: Lifetime counters, accumulated across every ``run`` call.
        self.stats = _new_stats()

    # ------------------------------------------------------------------
    def _emit(self, kind: str, index: int, spec: JobSpec | None = None,
              attempt: int = 0, detail: str = "") -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(JobEvent(kind, index, spec, attempt, detail))
        except Exception:
            pass  # observers must never break the batch

    def _inline_only(self) -> bool:
        return (self.n_workers <= 1
                or os.environ.get(FORCE_INLINE_ENV, "") == "1")

    # ------------------------------------------------------------------
    def run(self, specs: list[JobSpec]) -> list[JobResult]:
        """Execute *specs*; the result list matches the submit order."""
        results: list[JobResult | None] = [None] * len(specs)
        misses: list[int] = []
        hits = self.metrics.counter("jobs.cache", outcome="hit")
        missed = self.metrics.counter("jobs.cache", outcome="miss")
        for index, spec in enumerate(specs):
            self.stats["submitted"] += 1
            self.metrics.counter("jobs.submitted").inc()
            self._emit("submitted", index, spec)
            if self.cache is not None:
                entry = self.cache.get(spec)
                if entry is not None:
                    meta = entry.get("meta", {})
                    results[index] = JobResult(
                        spec, value=entry.get("result"), cached=True,
                        elapsed=float(meta.get("elapsed_seconds", 0.0)),
                    )
                    self.stats["cache_hits"] += 1
                    hits.inc()
                    self._emit("hit", index, spec)
                    continue
                self.stats["cache_misses"] += 1
                missed.inc()
            misses.append(index)

        if misses:
            if self._inline_only():
                self._run_inline(specs, misses, results)
            else:
                self._run_pool(specs, misses, results)
            for index in misses:
                result = results[index]
                if result is not None and result.ok and self.cache is not None:
                    self.cache.put(result.spec, result.value, result.elapsed)
        self._write_state()
        return results  # type: ignore[return-value]

    def map(self, specs: list[JobSpec]) -> list[Any]:
        """Like :meth:`run` but unwrap values; raise on any failure."""
        results = self.run(specs)
        failures = [r for r in results if not r.ok]
        if failures:
            first = failures[0]
            summary = first.error.strip().splitlines()[-1] if first.error \
                else "unknown error"
            raise JobError(
                f"{len(failures)}/{len(results)} jobs failed; first: "
                f"{first.spec.describe()}: {summary}"
            )
        return [r.value for r in results]

    # ------------------------------------------------------------------
    # Inline execution
    # ------------------------------------------------------------------
    def _finish_ok(self, results, state: "_JobState", value, elapsed) -> None:
        state.finished = True
        results[state.index] = JobResult(
            state.spec, value=value, attempts=state.attempts,
            elapsed=elapsed,
        )
        self.stats["completed"] += 1
        self.metrics.counter("jobs.completed", status="ok").inc()
        self.metrics.histogram(
            "jobs.elapsed_seconds",
            task=state.spec.task.rsplit(":", 1)[-1],
        ).observe(elapsed)
        self._emit("done", state.index, state.spec, state.attempts)

    def _finish_error(self, results, state: "_JobState", error: str) -> None:
        state.finished = True
        results[state.index] = JobResult(
            state.spec, error=error, attempts=state.attempts,
        )
        self.stats["failed"] += 1
        self.metrics.counter("jobs.completed", status="error").inc()
        self._emit("error", state.index, state.spec, state.attempts, error)

    def _run_inline(self, specs, indices, results) -> None:
        """Sequential in-process execution (no isolation, no timeout)."""
        for index in indices:
            state = _JobState(index, specs[index], attempts=1)
            self._emit("start", index, state.spec, 1)
            try:
                value, elapsed = execute_spec(state.spec)
            except Exception:
                self._finish_error(results, state,
                                   traceback.format_exc(limit=20))
            else:
                self._finish_ok(results, state, value, elapsed)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _spawn_worker(self, ctx, result_queue) -> _Worker:
        task_queue = ctx.SimpleQueue()
        process = ctx.Process(
            target=_worker_main, args=(task_queue, result_queue),
            daemon=False,
        )
        process.start()
        return _Worker(process=process, task_queue=task_queue)

    def _run_pool(self, specs, indices, results) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        n = min(self.n_workers, len(indices))
        result_queue = ctx.Queue()
        try:
            workers = [self._spawn_worker(ctx, result_queue)
                       for _ in range(n)]
        except OSError as error:
            # Cannot start processes at all (fd/PID exhaustion, sandbox):
            # degrade immediately rather than fail the batch.
            self.stats["degraded"] += 1
            self._emit("degrade", -1, detail=f"cannot spawn workers: {error}")
            self._run_inline(specs, indices, results)
            return
        jobs = {index: _JobState(index, specs[index]) for index in indices}
        ready: deque[int] = deque(indices)
        waiting: list[int] = []  # backing off; gated by not_before
        respawn_budget = max(4, 2 * n)
        try:
            self._pool_loop(ctx, result_queue, workers, jobs, ready,
                            waiting, results, respawn_budget)
        except OSError:
            pass  # a respawn failed — the inline sweep below finishes up
        finally:
            self._shutdown(workers)
        # Degraded exit: anything unfinished runs inline.
        remaining = [i for i in indices if not jobs[i].finished]
        if remaining:
            self.stats["degraded"] += 1
            self._emit("degrade", -1,
                       detail=f"{len(remaining)} jobs finishing inline")
            self._run_inline(specs, remaining, results)

    def _retry_or_fail(self, results, state: _JobState, waiting: list[int],
                       reason: str) -> None:
        """After a failed attempt: back off and requeue, or give up."""
        if state.attempts <= self.retries:
            delay = self.backoff * (2 ** (state.attempts - 1))
            state.not_before = time.monotonic() + delay
            waiting.append(state.index)
            self.stats["retries"] += 1
            self.metrics.counter("jobs.retries").inc()
            self._emit("retry", state.index, state.spec, state.attempts,
                       reason)
        else:
            self._finish_error(results, state, reason)

    def _pool_loop(self, ctx, result_queue, workers, jobs, ready, waiting,
                   results, respawn_budget) -> None:
        respawns = 0
        while any(not state.finished for state in jobs.values()):
            now = time.monotonic()
            # Promote jobs whose backoff has elapsed.
            still = []
            for index in waiting:
                if jobs[index].not_before <= now:
                    ready.append(index)
                else:
                    still.append(index)
            waiting[:] = still

            # Dispatch to idle live workers.
            for worker in workers:
                if worker.busy is not None or not worker.process.is_alive():
                    continue
                index = None
                while ready:
                    candidate = ready.popleft()
                    # A stale late delivery may have finished the job
                    # while its retry sat in the queue — skip those.
                    if not jobs[candidate].finished:
                        index = candidate
                        break
                if index is None:
                    break
                state = jobs[index]
                state.attempts += 1
                deadline = now + self.timeout if self.timeout else None
                worker.busy = (index, state.attempts - 1, deadline)
                worker.task_queue.put(
                    (index, state.attempts - 1, state.spec.to_dict())
                )
                self._emit("start", index, state.spec, state.attempts)

            # Drain one result (bounded wait doubles as the poll tick).
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                message = None
            if message is not None:
                index, attempt, ok, payload, elapsed = message
                for worker in workers:
                    if worker.busy and worker.busy[0] == index:
                        worker.busy = None
                        break
                state = jobs.get(index)
                # Stale deliveries (job already resolved another way)
                # are dropped on the floor.
                if state is not None and not state.finished \
                        and attempt == state.attempts - 1:
                    if ok:
                        self._finish_ok(results, state, payload, elapsed)
                    else:
                        self._retry_or_fail(
                            results, state, waiting,
                            f"task raised (attempt {state.attempts}):\n"
                            f"{payload}",
                        )

            # Liveness and deadlines.
            now = time.monotonic()
            for position, worker in enumerate(workers):
                alive = worker.process.is_alive()
                if worker.busy is not None:
                    index, _, deadline = worker.busy
                    state = jobs[index]
                    if not alive:
                        exitcode = worker.process.exitcode
                        worker.busy = None
                        respawns += 1
                        self.stats["respawns"] += 1
                        self.metrics.counter("jobs.worker_respawns").inc()
                        self._emit("respawn", index, state.spec,
                                   state.attempts,
                                   f"worker died (exit {exitcode})")
                        if not state.finished:
                            self._retry_or_fail(
                                results, state, waiting,
                                f"worker crashed with exit code {exitcode} "
                                f"(attempt {state.attempts})",
                            )
                        workers[position] = self._spawn_worker(
                            ctx, result_queue)
                    elif deadline is not None and now > deadline:
                        # Killing the process is the only way to stop a
                        # stuck simulation; the job pays one attempt.
                        kill_process(worker.process)
                        worker.busy = None
                        respawns += 1
                        self.stats["respawns"] += 1
                        self.stats["timeouts"] += 1
                        self.metrics.counter("jobs.timeouts").inc()
                        self._emit("timeout", index, state.spec,
                                   state.attempts,
                                   f"exceeded {self.timeout}s")
                        if not state.finished:
                            self._retry_or_fail(
                                results, state, waiting,
                                f"timed out after {self.timeout}s "
                                f"(attempt {state.attempts})",
                            )
                        workers[position] = self._spawn_worker(
                            ctx, result_queue)
                elif not alive:
                    # An idle worker died: replace it quietly.
                    respawns += 1
                    self.stats["respawns"] += 1
                    workers[position] = self._spawn_worker(ctx, result_queue)
            if respawns > respawn_budget:
                # The host keeps killing workers — stop burning processes;
                # _run_pool finishes the leftovers inline.
                return

    def _shutdown(self, workers) -> None:
        for worker in workers:
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)

    # ------------------------------------------------------------------
    def _write_state(self) -> None:
        """Persist lifetime stats next to the cache (``status`` reads it)."""
        if self.cache is None:
            return
        import json

        try:
            self.cache.root.mkdir(parents=True, exist_ok=True)
            path = self.cache.root / "last_run.state"
            path.write_text(json.dumps(self.stats, indent=2, sort_keys=True))
        except OSError:
            pass
