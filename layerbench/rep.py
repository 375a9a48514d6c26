"""One repetition of a layer-ledger workload, in a fresh interpreter.

Started by ``run.py``, which reads this process's standard output:

1. set-up — imports (``repro.cli`` included, as ``repro serve`` pays
   it), instance and shard construction, the dynamic preload and the
   fabric worker spawn — then the line ``READY``, at which the parent
   stops its set-up clock;
2. the seeded trace is generated, outside any timed region;
3. the timed replay, traced or not;
4. every answer is checked, and one JSON line of observations follows.

Each repetition gets its own interpreter because services of earlier
repetitions are freed only by the cyclic garbage collector: three
back-to-back runs in one interpreter drifted from 12.2k to 5.1k queries
per second, and the drift would land in the run-to-run spread.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys

import numpy as np

import repro.cli  # noqa: F401  (set-up cost of the CLI entry point)
from ledger import Ledger
from workloads import (
    DELETE,
    INSERT,
    PINNED,
    PINNED_KEYS,
    READ,
    WORKLOADS,
    build,
    checkpoint_bytes,
    close,
    make_trace,
    probe_digests,
    replay,
    write_cost,
    wrong_answers,
)


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _layer_metrics(ledger: Ledger, result, ops: int, extra: dict) -> dict:
    """The per-layer ledger of one traced replay."""
    per_op = 1e6 / max(ops, 1)
    out = {}
    covered = 0.0
    for layer, (calls, seconds) in ledger.by_layer().items():
        covered += seconds
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = seconds * 1e3
        out[f"{layer}.us_per_op"] = seconds * per_op
    rest = result.wall_s - covered
    out["untraced.self_ms"] = rest * 1e3
    out["untraced.us_per_op"] = rest * per_op
    out["cellprobe.probes_per_op"] = extra["probes"] / max(ops, 1)
    out["cellprobe.read_batch_per_query_batch"] = ledger.calls(
        "Table.read_batch"
    ) / max(ledger.calls("LowContentionDictionary.query_batch"), 1)
    out["heal.probes_per_op"] = extra["repair_probes"] / max(ops, 1)
    out["heal.repair_frac"] = extra["cells_repaired"] / max(
        extra["cells_scanned"], 1
    )
    out["parallel.wait_ms"] = (
        ledger.self_seconds("ParallelDictionaryService._collect") * 1e3
    )
    out["parallel.queue_depth_max"] = ledger.queue_depth_max
    out["dynamic.live_keys_per_update"] = ledger.calls(
        "LevelStructure.live_keys"
    ) / max(extra["updates"], 1)
    out["dynamic.epoch.retained_words_peak"] = ledger.retained_words_peak
    out["trace.wall_ms"] = result.wall_s * 1e3
    out["trace.spans"] = len(ledger.tracer) + ledger.tracer.dropped
    out["trace.missing_targets"] = len(ledger.missing)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    deployment = build(workload, args.seed, args.workdir)
    print("READY", flush=True)
    try:
        trace = make_trace(workload, deployment, args.seed, args.ops)
        svc = deployment.service
        health = getattr(svc, "health", None)
        heal0 = heal_counts(health)
        probes0 = svc.stats.probes
        cells0, updates0 = (
            write_cost(deployment) if workload.dynamic else (0, 0)
        )
        ledger = None
        if args.traced:
            ledger = Ledger()
            ledger.install()
        gc.collect()
        result = replay(deployment, trace)
        outcomes = result.outcomes
        wrong = wrong_answers(deployment, outcomes) + result.stale_pins
        reads = outcomes.count(READ)
        updates = outcomes.count(INSERT) + outcomes.count(DELETE)
        cells, applied = (
            write_cost(deployment) if workload.dynamic else (0, 0)
        )
        unapplied = updates - (applied - updates0) if workload.dynamic else 0
        ops = reads + outcomes.count(PINNED) // PINNED_KEYS + updates - unapplied
        heal = heal_counts(health)
        extra = {
            "probes": svc.stats.probes - probes0,
            "updates": applied - updates0,
            **{k: heal[k] - heal0[k] for k in heal},
        }
        digests = probe_digests(deployment)
        obs = {
            "attempted": result.attempted,
            "failed": wrong + result.shed + result.unfinished + unapplied,
            "wrong": wrong,
            "lost": result.unfinished + unapplied,
            "ops": ops,
            "wall_s": result.wall_s,
            "speed_ratio": result.speed_ratio,
            "early_speed_ratio": result.early_speed_ratio,
            "read_call_ref_s": result.read_call_s.tolist(),
            "read_call_ops": result.read_call_ops.tolist(),
            "write_call_ref_s": result.write_call_s.tolist(),
            "write_call_ops": result.write_call_ops.tolist(),
            "read_vt_p99": float(np.percentile(outcomes.read_latency, 99.0)),
            "probes_per_read": extra["probes"] / max(reads, 1),
            "cells_per_update": (cells - cells0) / max(applied - updates0, 1),
            "size_flush_frac": result.size_batches / max(result.batches, 1),
            "mean_batch": reads / max(result.batches, 1),
            "bytes_per_checkpoint": checkpoint_bytes(deployment),
            "digests": digests,
        }
        if ledger is not None:
            obs["per_layer"] = _layer_metrics(ledger, result, ops, extra)
            obs["ledger_rows"] = ledger.rows()
            obs["missing_targets"] = ledger.missing
            if args.chrome_out:
                ledger.save_chrome(args.chrome_out)
    finally:
        close(deployment)
    obs["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF) + _maxrss_mb(
        resource.RUSAGE_CHILDREN
    )
    print(json.dumps(obs))
    return 0


def heal_counts(health) -> dict:
    """Scrub counters of the healing layer (zeros when it is off)."""
    names = ("repair_probes", "cells_repaired", "cells_scanned")
    if health is None:
        return dict.fromkeys(names, 0)
    return {k: int(getattr(health.stats, k)) for k in names}


if __name__ == "__main__":
    sys.exit(main())
