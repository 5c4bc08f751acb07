"""One-off, ungated full-size ledger of the paper path.

Times every registered experiment once at full size — serial, in this
process, with no result cache — and records its wall and CPU seconds
and whether it passed (with the error text when it did not). It then
runs each benchmark workload's points once, so the ledger shows what
share of the full ``run all`` path each workload represents.

Run from the repository root (about 20 minutes on a 2-core host)::

    python3 perfbench/ledger.py --out perfbench/ledger.json

Nothing gates on the output; the benchmark proper is ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _timed(fn):
    """Run *fn*; returns (wall s, cpu s, error text or None)."""
    w0, c0 = time.perf_counter(), _cpu()
    error = None
    try:
        fn()
    except Exception:  # the ledger records failures, it does not stop
        error = traceback.format_exc(limit=8).strip()
    return time.perf_counter() - w0, _cpu() - c0, error


def _commit() -> str | None:
    """The checkout's git commit, when it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_experiments() -> list[dict]:
    from repro.experiments.registry import REGISTRY

    rows = []
    for experiment_id in sorted(REGISTRY):
        driver = REGISTRY[experiment_id]
        wall, cpu, error = _timed(lambda: driver(quick=False))
        rows.append({
            "experiment": experiment_id,
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3),
            "ok": error is None,
            "error": None if error is None else error.splitlines()[-1],
        })
        print(f"{experiment_id:12s} {wall:8.1f}s "
              f"{'ok' if error is None else 'FAILED: ' + rows[-1]['error']}",
              file=sys.stderr, flush=True)
    return rows


def run_workloads() -> dict:
    from points import WORKLOADS

    shares = {}
    for workload in WORKLOADS.values():
        total = 0.0
        for point in workload.points:
            prepared = point.prepare(0)
            wall, _, error = _timed(prepared.run)
            if error is not None:
                raise RuntimeError(f"point {point.name} failed: {error}")
            total += wall
        shares[workload.name] = round(total, 3)
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "ledger.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    rows = run_experiments()
    total = sum(r["wall_s"] for r in rows)
    workloads = run_workloads()
    ledger = {
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "commit": _commit(),
            "started_utc": started,
        },
        "mode": "serial, in-process, full size, no result cache",
        "experiments": rows,
        "total_wall_s": round(total, 3),
        "failed": [r["experiment"] for r in rows if not r["ok"]],
        "workload_pass_s": workloads,
        "workload_share_of_total": {
            name: round(seconds / total, 4)
            for name, seconds in workloads.items()},
    }
    Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {args.out}: {len(rows)} experiments, "
          f"{total:.0f}s total", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
