"""Layer ledger: one seeded wall-clock benchmark of the serving stack.

Usage (from the repository root)::

    python3 layerbench/run.py --workload static-uniform --seed 0 \\
        --seconds 10 --trace 0

Workloads: ``static-uniform``, ``static-zipf-heal``, ``fabric-uniform``
and ``dynamic-mixed`` (see ``workloads.py`` for why each exists).

A run is several repetitions, each in a fresh interpreter (``rep.py``):

- ``--trace 0``: ``REPS`` untraced repetitions.  Prints the end-to-end
  metrics: cold set-up time and throughput (medians over repetitions),
  per-read service-time percentiles (pooled over them), the model's
  virtual-time read p99 and probes per read, the share of ops served
  correctly and peak resident memory.
- ``--trace 1``: one untraced and one traced repetition of the same
  trace, plus cold ``import repro.cli`` timings.  Prints the per-layer
  ledger: calls, self time and microseconds per op of every layer, the
  untraced remainder, the extra counts, and the tracing overhead.  The
  spans are written as Chrome trace_event JSON under ``.layerbench/``.

The replayed work is ``nominal_ops_per_s * seconds`` ops split evenly
over the repetitions, so it is fixed by the seed and ``--seconds``, not
by the clock: every repetition of a run replays the same trace, and all
of them, traced or not, must produce byte-identical probe digests,
probes per read and cells per update.  ``LEDGER.json`` records these for
a fixed list of seeds at the ``run_seconds`` of ``BENCHMARK.json``; a run
with such a seed and ``--seconds`` must reproduce them exactly, so a
change to the program that moves its model cost shows.  A wrong answer,
a mismatch of the model cost or an op left unfinished makes the run
report ``"correct": false``; shed ops only count as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/repro`` package next to this directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and trace output, inside the checkout.
OUT = ROOT / ".layerbench"
#: Recorded model cost per workload and seed (see seed_ledger.py).
LEDGER = HERE / "LEDGER.json"

#: Untraced repetitions of a ``--trace 0`` run.
REPS = 5
#: Fresh-interpreter ``import repro.cli`` timings per ``--trace 1`` run.
IMPORT_SAMPLES = 3
#: Wall-clock limit of one repetition, set-up included.
REP_TIMEOUT_S = 150.0


def _pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The fabric's dispatcher and worker then share the CPU that the
    calibration loop measures (see calibrate.py), so a slow or contended
    CPU slows the worker and the calibration alike.  Spread over two
    CPUs of a shared host, the fabric's read-service p90 spread by
    0.4-0.5 over ten runs, with the load of the CPU the calibration
    never saw.  The ticket path never overlaps dispatcher and worker
    (the dispatcher waits for every batch), so the fabric loses no
    parallelism it used.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class RunError(Exception):
    """A repetition could not produce observations."""


def _env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The fabric writes its worker boot files through tempfile.
    env["TMPDIR"] = str(workdir)
    return env


def _repetition(args, ops: int, traced: bool, workdir: Path, chrome: Path | None) -> dict:
    """Run one repetition; returns its observations plus ``setup_s``."""
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--ops", str(ops), "--workdir", str(workdir),
        "--traced", str(int(traced)),
    ]
    if chrome is not None:
        cmd += ["--chrome-out", str(chrome)]
    deadline = time.monotonic() + REP_TIMEOUT_S
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_env(workdir),
        cwd=str(ROOT),
    )
    try:
        if not select.select([proc.stdout], [], [], REP_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, REP_TIMEOUT_S)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RunError(f"repetition failed during set-up: {ready!r}")
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"repetition exceeded {REP_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"repetition exited with code {proc.returncode}")
    obs = json.loads(out.strip().splitlines()[-1])
    obs["setup_s"] = setup_s
    return obs


def _import_seconds(workdir: Path) -> float:
    """Median cold ``import repro.cli`` time in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env(workdir), cwd=str(ROOT), timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def _weighted_percentiles(reps: list[dict], kind: str, qs) -> list[float]:
    """Percentiles of per-op times pooled over repetitions.

    Each timed call counts once per op it completed, so a batch call
    that answered 512 reads contributes 512 samples.  Pooling matters
    there: one repetition of ``static-zipf-heal`` has only about 70 read
    calls, so its own p90 is the time of a single call.  Times are at
    the reference speed already.
    """
    import numpy as np

    seconds = np.concatenate([r[f"{kind}_call_ref_s"] for r in reps])
    if seconds.size == 0:
        return [0.0 for _ in qs]
    ops = np.concatenate([r[f"{kind}_call_ops"] for r in reps])
    samples = np.repeat(seconds, ops.astype(np.int64))
    return [float(v) for v in np.percentile(samples, qs)]


#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_service_ms_p50": "ms",
    "read_service_ms_p90": "ms",
    "read_vt_p99": "vt",
    "probes_per_read": "probes",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer counts beside each layer's calls / self_ms / us_per_op.
EXTRA_COUNTS = {
    "cli.import_s": "s",
    "cellprobe.probes_per_op": "probes",
    "cellprobe.read_batch_per_query_batch": "ratio",
    "serve.batcher.size_flush_frac": "frac",
    "serve.batcher.mean_batch": "requests",
    "heal.probes_per_op": "probes",
    "heal.repair_frac": "frac",
    "parallel.wait_ms": "ms",
    "parallel.queue_depth_max": "words",
    "dynamic.live_keys_per_update": "calls",
    "dynamic.epoch.retained_words_peak": "words",
    "dynamic.cells_per_update": "cells",
    "dynamic.write_service_ms_p50": "ms",
    "dynamic.write_service_ms_p90": "ms",
    "dynamic.write_service_ms_max": "ms",
    "persist.bytes_per_checkpoint": "bytes",
    "trace.overhead_frac": "frac",
    "trace.wall_ms": "ms",
    "trace.spans": "count",
    "trace.missing_targets": "count",
    "host.speed_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (``--trace 1``) and its unit."""
    from ledger import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.us_per_op"] = "us"
    units["untraced.self_ms"] = "ms"
    units["untraced.us_per_op"] = "us"
    units.update(EXTRA_COUNTS)
    return units


def _end_to_end(reps: list[dict]) -> dict:
    p50, p90 = _weighted_percentiles(reps, "read", [50.0, 90.0])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": statistics.median(
            r["setup_s"] * r["early_speed_ratio"] for r in reps
        ),
        "ops_per_s": statistics.median(_ops_per_s(r) for r in reps),
        "read_service_ms_p50": p50 * 1e3,
        "read_service_ms_p90": p90 * 1e3,
        "read_vt_p99": reps[0]["read_vt_p99"],
        "probes_per_read": reps[0]["probes_per_read"],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def _ops_per_s(rep: dict) -> float:
    """Ops per second of one repetition's replay, at the reference speed."""
    return rep["ops"] / (rep["wall_s"] * rep["speed_ratio"])


def _per_layer(plain: dict, traced: dict, import_s: float) -> dict:
    w50, w90, wmax = _weighted_percentiles(
        [plain], "write", [50.0, 90.0, 100.0]
    )
    units = per_layer_units()
    values = {
        name: value * traced["speed_ratio"]
        if units[name] in ("s", "ms", "us") else value
        for name, value in traced["per_layer"].items()
    }
    values.update({
        "host.speed_ratio": traced["speed_ratio"],
        "cli.import_s": import_s * plain["speed_ratio"],
        "serve.batcher.size_flush_frac": plain["size_flush_frac"],
        "serve.batcher.mean_batch": plain["mean_batch"],
        "dynamic.cells_per_update": plain["cells_per_update"],
        "dynamic.write_service_ms_p50": w50 * 1e3,
        "dynamic.write_service_ms_p90": w90 * 1e3,
        "dynamic.write_service_ms_max": wmax * 1e3,
        "persist.bytes_per_checkpoint": plain["bytes_per_checkpoint"],
        "trace.overhead_frac": 1.0 - _ops_per_s(traced) / _ops_per_s(plain),
    })
    return values


def model_cost(rep: dict) -> dict:
    """What a repetition's model charged: digests, probes and cells."""
    return {
        "digests": rep["digests"],
        "probes_per_read": rep["probes_per_read"],
        "cells_per_update": rep["cells_per_update"],
    }


def recorded_model_cost(workload: str, seed: int, seconds: int) -> dict | None:
    """The model cost ``LEDGER.json`` holds for this run, if any."""
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        return None
    if ledger.get("seconds") != seconds:
        return None
    entry = ledger.get("workloads", {}).get(workload, {})
    return entry.get("model_cost", {}).get(str(seed))


def _print_ledger(traced: dict) -> None:
    """Human-readable per-function table of the traced repetition."""
    print(f"{'layer':<24}{'function':<48}{'calls':>9}{'self ms':>11}")
    for layer, name, calls, seconds in traced["ledger_rows"]:
        print(f"{layer:<24}{name:<48}{calls:>9}{seconds * 1e3:>11.1f}")
    for target in traced["missing_targets"]:
        print(f"missing trace target: {target}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"options: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    ops = max(
        1, round(WORKLOADS[args.workload].nominal_ops_per_s * args.seconds / REPS)
    )
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        reps = []
        for traced in ([False] * REPS if args.trace == 0 else [False, True]):
            rep_dir = workdir / f"rep{len(reps)}"
            rep_dir.mkdir(parents=True)
            chrome = (
                OUT / f"trace-{args.workload}-seed{args.seed}.json"
                if traced else None
            )
            reps.append(_repetition(args, ops, traced, rep_dir, chrome))
        import_s = _import_seconds(workdir) if args.trace else 0.0
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    costs = [model_cost(r) for r in reps]
    recorded = recorded_model_cost(args.workload, args.seed, args.seconds)
    repeatable = all(c == costs[0] for c in costs)
    as_recorded = recorded is None or recorded == costs[0]
    correct = (
        repeatable and as_recorded
        and all(r["wrong"] == 0 and r["lost"] == 0 for r in reps)
    )
    print(json.dumps({"model_cost": costs[0]}))
    if not repeatable:
        print("model cost differs across repetitions")
    if not as_recorded:
        print(f"model cost differs from {LEDGER.name}: {json.dumps(recorded)}")
    if args.trace:
        _print_ledger(reps[1])
        values, units = _per_layer(reps[0], reps[1], import_s), per_layer_units()
    else:
        values, units = _end_to_end(reps), END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
