"""Measure the ledger of this host and write it to ``layerbench/LEDGER.json``.

Usage (from the repository root)::

    python3 layerbench/seed_ledger.py

For every workload it runs ``run.py`` untraced once per seed of
``SEEDS`` and traced once, at the ``run_seconds`` of ``BENCHMARK.json``.
It records the end-to-end medians over the seeds, the per-layer table
(calls, microseconds per op, self time and probes per op) of the first
seed, the model cost of every seed (probe digests, probes per read and
cells per update, which ``run.py`` then checks runs against), and the
host: CPU count, Python, numpy and L3 size.  Each later change that
moves a layer appends its own numbers next to these, which gives the
ledger its trajectory.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds whose model cost is recorded; the first one is also traced.
SEEDS = tuple(range(10))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: ``(result, model cost)``."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=str(ROOT), check=True,
    )
    lines = done.stdout.strip().splitlines()
    cost = next(
        json.loads(line)["model_cost"] for line in lines
        if line.startswith('{"model_cost"')
    )
    return json.loads(lines[-1]), cost


def _l3_size() -> str:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def measure(seconds: int) -> dict:
    """Run every workload and collect the ledger."""
    import numpy

    from workloads import WORKLOADS

    ledger = {
        "measured": datetime.date.today().isoformat(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "l3": _l3_size(),
        },
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
        traced, _ = _run(name, SEEDS[0], seconds, 1)
        if not all(r["correct"] for r, _ in runs) or not traced["correct"]:
            raise RuntimeError(f"{name} reported an incorrect run")
        metrics = runs[0][0]["metrics"]
        table, extra = {}, {}
        for key, value in traced["metrics"].items():
            layer, _, field = key.rpartition(".")
            if field in ("calls", "us_per_op", "self_ms", "probes_per_op"):
                table.setdefault(layer, {})[field] = value["value"]
            else:
                extra[key] = value["value"]
        ledger["workloads"][name] = {
            "end_to_end": {
                key: {
                    "median": statistics.median(
                        r["metrics"][key]["value"] for r, _ in runs
                    ),
                    "unit": metrics[key]["unit"],
                }
                for key in metrics
            },
            "layers": table,
            "extra": extra,
            "model_cost": {
                str(seed): cost for seed, (_, cost) in zip(SEEDS, runs)
            },
        }
        print(f"{name}: done", flush=True)
    return ledger


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    path = HERE / "LEDGER.json"
    previous = path.read_text() if path.exists() else None
    # run.py checks runs against the ledger that is being replaced.
    path.unlink(missing_ok=True)
    try:
        ledger = measure(seconds)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        if previous is not None:
            path.write_text(previous)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
