"""Command-line entry point: ``python -m repro.experiments``.

Subcommands::

    list                 show every registered experiment
    run <id> [--quick]   run one experiment (or ``all``) and print it
    run all -o out/      also write one report file per experiment
    run <id> --json f    also write machine-readable results as JSON
    run all -j 4         fan out through the repro.jobs worker pool

Every run goes through one :class:`~repro.jobs.pool.JobRunner`: whole
experiments become jobs, and the decomposable sweeps — fig3, family,
saturation, bandwidth, contention — fan out their individual
simulation points through the same runner. Without ``-j`` it is the
inline, cache-free ``JobRunner()``, so every experiment runs in this
process (which is what ``--sampled`` and ``--sanitize`` rely on). With
``-j N`` it is a pool of N workers whose results are cached by content,
so a re-run only simulates what changed, and a crashing or hanging
experiment no longer takes ``run all`` down with it. Failures are
collected and reported at the end; the exit code is 0 on success, 1
when any experiment failed or the sanitizer found anything, and 2 for
usage errors such as an unknown experiment id.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import traceback

from repro.experiments.jobtasks import (
    FANOUT_EXPERIMENTS,
    experiment_spec,
)
from repro.experiments.registry import (
    REGISTRY,
    ExperimentReport,
    get_experiment,
)
from repro.jobs.cache import ResultCache
from repro.jobs.pool import JobEvent, JobRunner
from repro.jobs.spec import jsonify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the tables and figures of the Cyclops "
                    "HPCA 2002 paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    run_cmd = sub.add_parser("run", help="run experiments")
    run_cmd.add_argument("experiment", help="experiment id or 'all'")
    run_cmd.add_argument("--quick", action="store_true",
                         help="tiny problem sizes (smoke test)")
    run_cmd.add_argument("-o", "--output-dir", default=None,
                         help="also write one .txt report per experiment")
    run_cmd.add_argument("--json", default=None, metavar="PATH",
                         help="write all results as one JSON document "
                              "(experiment id -> report dict)")
    run_cmd.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                         help="run through the repro.jobs pool with N "
                              "workers (enables result caching; N=1 "
                              "executes inline)")
    run_cmd.add_argument("--no-cache", action="store_true",
                         help="with -j: skip the result cache")
    run_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="with -j: cache location (default "
                              "$REPRO_JOBS_CACHE_DIR or .repro-cache/jobs)")
    run_cmd.add_argument("--job-timeout", type=float, default=None,
                         metavar="S",
                         help="with -j: per-experiment timeout in seconds")
    run_cmd.add_argument("--retries", type=int, default=2,
                         help="with -j: attempts after a crash/timeout "
                              "(default 2)")
    run_cmd.add_argument("--sampled", nargs="?", const="1", default=None,
                         metavar="SPEC",
                         help="set CYCLOPS_SAMPLE around the run: '1' for "
                              "default sampled-simulation knobs or a spec "
                              "like 'period=16384,measure=256' (see "
                              "docs/sampled-sim.md); only ISA-interpreter "
                              "experiments sample — kernel-closure "
                              "workloads reject it; incompatible with -j")
    run_cmd.add_argument("--sanitize", action="store_true",
                         help="run under the coherence sanitizer (see "
                              "docs/memory-model.md); incompatible with "
                              "-j, prints findings and exits 1 if any")
    run_cmd.add_argument("--sanitize-report", default=None, metavar="PATH",
                         help="with --sanitize: also write the findings "
                              "as JSON to PATH")
    return parser


def _progress(event: JobEvent) -> None:
    """Surface the pool's failure-path events on stderr."""
    if event.kind in ("retry", "respawn", "timeout", "degrade"):
        what = event.spec.describe() if event.spec else "pool"
        detail = event.detail.strip().splitlines()[-1] if event.detail else ""
        print(f"[jobs] {event.kind}: {what} {detail}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(REGISTRY):
            print(experiment_id)
        return 0

    if args.experiment == "all":
        ids = sorted(REGISTRY)
    elif args.experiment in REGISTRY:
        ids = [args.experiment]
    else:
        known = ", ".join(sorted(REGISTRY))
        print(f"error: unknown experiment {args.experiment!r}\n"
              f"known experiments: {known}, all", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: -j must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.sampled is not None and args.jobs is not None:
        # Worker processes do not inherit a mutated parent environment
        # through the job specs; refuse rather than silently run exact.
        print("error: --sampled requires serial execution (drop -j)",
              file=sys.stderr)
        return 2
    if args.sanitize and args.jobs is not None:
        # Worker processes would collect findings in their own session
        # rosters and silently drop them; refuse rather than mislead.
        print("error: --sanitize requires serial execution (drop -j)",
              file=sys.stderr)
        return 2
    if args.sanitize_report and not args.sanitize:
        print("error: --sanitize-report requires --sanitize",
              file=sys.stderr)
        return 2
    if args.sanitize:
        from repro.sanitizer import session as sanitizer_session
        sanitizer_session.reset()
        sanitizer_session.force(True)

    out_dir = pathlib.Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    json_reports: dict[str, dict] = {}

    def emit(experiment_id: str, report: ExperimentReport,
             elapsed: float) -> None:
        text = report.render() + f"\n\n(completed in {elapsed:.1f}s)\n"
        print(text)
        if out_dir:
            (out_dir / f"{experiment_id}.txt").write_text(text)
        if args.json:
            entry = jsonify(report.to_dict())
            if not args.quick:
                # Host wall-clock is noisy; --quick output stays diffable.
                entry["elapsed_seconds"] = round(elapsed, 3)
            entry["quick"] = bool(args.quick)
            json_reports[experiment_id] = entry

    failures: dict[str, str] = {}
    cache = None
    if args.jobs is not None and not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir \
            else ResultCache.default()
    runner = JobRunner(
        n_workers=args.jobs or 1,
        cache=cache,
        timeout=args.job_timeout,
        retries=args.retries,
        on_event=_progress,
    )
    plain = [i for i in ids if i not in FANOUT_EXPERIMENTS]
    fanout = [i for i in ids if i in FANOUT_EXPERIMENTS]
    sample_before = os.environ.get("CYCLOPS_SAMPLE")
    if args.sampled is not None:
        os.environ["CYCLOPS_SAMPLE"] = args.sampled
    try:
        specs = [experiment_spec(i, args.quick) for i in plain]
        for experiment_id, result in zip(plain, runner.run(specs)):
            if result.ok:
                emit(experiment_id, ExperimentReport.from_dict(result.value),
                     result.elapsed)
            else:
                failures[experiment_id] = result.error or "unknown error"
        for experiment_id in fanout:
            driver = get_experiment(experiment_id)
            started = time.time()
            try:
                report = driver(quick=args.quick, runner=runner)
            except Exception:
                failures[experiment_id] = traceback.format_exc(limit=20)
            else:
                emit(experiment_id, report, time.time() - started)
    finally:
        if args.sampled is not None:
            if sample_before is None:
                os.environ.pop("CYCLOPS_SAMPLE", None)
            else:
                os.environ["CYCLOPS_SAMPLE"] = sample_before

    sanitizer_failed = False
    if args.sanitize:
        from repro.sanitizer import session as sanitizer_session
        from repro.sanitizer.report import (
            render_report,
            session_report,
            write_json,
        )
        sanitizer_session.force(False)
        sanitizer_findings = session_report()
        print(render_report(sanitizer_findings))
        if args.sanitize_report:
            write_json(args.sanitize_report, sanitizer_findings)
        if args.json:
            json_reports["_sanitizer"] = sanitizer_findings
        sanitizer_failed = bool(sanitizer_findings["total_findings"])

    if args.json:
        json_reports["_jobs"] = dict(runner.stats)
        path = pathlib.Path(args.json)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(json_reports, indent=2, sort_keys=True))

    if failures:
        print(f"{len(failures)} of {len(ids)} experiments FAILED:",
              file=sys.stderr)
        for experiment_id in sorted(failures):
            last = failures[experiment_id].strip().splitlines()[-1]
            print(f"  {experiment_id}: {last}", file=sys.stderr)
        for experiment_id in sorted(failures):
            print(f"\n--- {experiment_id} ---\n{failures[experiment_id]}",
                  file=sys.stderr)
        return 1
    return 1 if sanitizer_failed else 0


if __name__ == "__main__":
    sys.exit(main())
