"""The one serving core and its three front ends.

Differential answers across the in-process service, the fabric
(inline engine and one worker) and a preloaded dynamic service; pinned
stats rows and capabilities; the capability-gated healing refusal; and
the fabric bulk path's keyspace check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune import service_capabilities
from repro.errors import ParameterError, QueryError
from repro.parallel import ParallelDictionaryService, build_parallel_service
from repro.serve import (
    DynamicShardedService,
    ShardedDictionaryService,
    build_dynamic_service,
    build_service,
)

SHARDS = 2


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(5)
    N = 1 << 12
    keys = np.sort(rng.choice(N, size=96, replace=False)).astype(np.int64)
    reads = np.concatenate(
        [rng.choice(keys, size=120), rng.integers(0, N, size=120)]
    )
    rng.shuffle(reads)
    return keys, N, reads


def _static(keys, N, procs=None):
    kw = dict(num_shards=SHARDS, replicas=3, max_batch=8, seed=3)
    if procs is None:
        return build_service(keys, N, **kw)
    return build_parallel_service(keys, N, procs=procs, **kw)


def _dynamic(keys, N):
    svc = build_dynamic_service(
        N, num_shards=SHARDS, replicas=3, max_batch=8, seed=3
    )
    for k in keys.tolist():
        svc.submit_update(k, True, 0.0)
    svc.drain(0.0)
    return svc


def _replay(svc, reads) -> np.ndarray:
    """Serve one read trace through submit/advance/drain; answers in order."""
    tickets = []
    for i, x in enumerate(reads.tolist()):
        now = 0.25 * i
        svc.advance(now)
        tickets.append(svc.submit(x, now))
    svc.drain(0.25 * len(reads) + 10.0)
    assert all(t.done for t in tickets)
    return np.array([t.answer for t in tickets], dtype=bool)


def test_front_ends_answer_one_trace_identically(instance):
    keys, N, reads = instance
    truth = np.isin(reads, keys)
    inproc = _static(keys, N)
    answers = {"in-process": _replay(inproc, reads)}
    for procs in (0, 1):
        with _static(keys, N, procs=procs) as svc:
            answers[f"fabric-{procs}"] = _replay(svc, reads)
            # Both engines charge through the core's accounting.
            assert svc.stats.row() == inproc.stats.row()
    answers["dynamic"] = _replay(_dynamic(keys, N), reads)
    for name, got in answers.items():
        assert np.array_equal(got, truth), name


STATIC_ROW = {"submitted", "completed", "batches", "probes", "failovers"}
DYNAMIC_ROW = {
    "submitted", "completed", "batches", "probes", "updates_submitted",
    "updates_applied", "update_groups", "shed_reads", "shed_updates",
}


#: Per-shard keys of ``DynamicShardedService.stats_row()``: the replica
#: set's own counters, its epoch manager's, and the shared FaultStats
#: record (``corrupted_reads`` counts abstaining voters).
DYNAMIC_SHARD_KEYS = (
    "replicas", "live_replicas", "updates", "log_retained",
    "log_compacted", "compactions", "recovery_probes", "space_words",
    "epoch_epoch", "epoch_pinned", "epoch_retired_total",
    "epoch_reclaimed_total", "epoch_retained", "epoch_retained_words",
    "epoch_peak_retained",
    "corrupted_reads", "crash_hits", "retries", "backoff_probes",
    "exhausted", "crashes", "rebuilds", "corruptions",
)
DYNAMIC_STATS_ROW = DYNAMIC_ROW | {
    "pending_updates", "update_log_entries", "compactions", "checkpoints",
} | {f"shard{i}_{k}" for i in range(SHARDS) for k in DYNAMIC_SHARD_KEYS}


def test_stats_rows_and_capabilities_are_pinned(instance):
    keys, N, _ = instance
    static = _static(keys, N)
    assert set(static.stats.row()) == STATIC_ROW
    assert service_capabilities(static) == frozenset(
        ("capacity", "split", "join", "scheme-switch")
    )
    with _static(keys, N, procs=0) as fabric:
        assert set(fabric.stats.row()) == STATIC_ROW
        assert service_capabilities(fabric) == frozenset(("capacity",))
    dynamic = build_dynamic_service(N, num_shards=SHARDS, seed=3)
    assert set(dynamic.stats.row()) == DYNAMIC_ROW
    assert set(dynamic.stats_row()) == DYNAMIC_STATS_ROW
    assert service_capabilities(dynamic) == frozenset(
        ("capacity", "update-capacity")
    )


def test_healing_refused_by_capability():
    svc = build_dynamic_service(1 << 10, num_shards=1, seed=0)
    with pytest.raises(ParameterError, match="healing"):
        svc.enable_healing()
    assert svc.health is None


@pytest.mark.parametrize(
    "cls", [ParallelDictionaryService, DynamicShardedService]
)
def test_front_ends_inherit_the_request_path(cls):
    assert issubclass(cls, ShardedDictionaryService)
    for name in (
        "shard_of", "shards_of", "submit", "next_deadline",
        "attach_telemetry", "enable_healing", "enable_autotune",
        "replica_loads", "_dispatch", "_charge",
    ):
        assert name not in vars(cls), name
    assert "_answer_batch" in vars(cls)


def test_shards_of_checks_whole_arrays(instance):
    keys, N, _ = instance
    svc = _static(keys, N)
    xs = np.array([0, N // 2 - 1, N // 2, N - 1])
    assert svc.shards_of(xs).tolist() == [0, 0, 1, 1]
    assert svc.shards_of(xs).tolist() == [svc.shard_of(x) for x in xs]
    for bad in (-1, N):
        with pytest.raises(QueryError, match=str(bad)):
            svc.shards_of(np.array([1, bad, 2]))


def test_fabric_bulk_query_rejects_keys_outside_the_universe(instance):
    keys, N, reads = instance
    with _static(keys, N, procs=2) as svc:
        for bad in (-1, N, N + 1000):
            with pytest.raises(QueryError):
                svc.query_batch(np.array([int(keys[0]), bad]))
        assert len(svc.pool.live_workers()) == 2
        assert svc.fabric_stats.groups == 0
        got = svc.query_batch(reads)
        assert np.array_equal(got, np.isin(reads, keys))
