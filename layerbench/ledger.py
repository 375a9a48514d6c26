"""Per-layer spans, recorded from outside the program under test.

:meth:`Ledger.install` replaces each public function named in
:data:`LAYERS` with a wrapper that opens a span on entry and closes it on
exit.  A span records its name, start, end and parent (the innermost
wrapped call still open), and the ledger charges each layer its *self*
time: the span's duration minus the time its child spans cover.  Time
spent in functions that are not wrapped is therefore charged to the
nearest wrapped caller, and time outside every span is the replay
replay loop's own, reported by the benchmark as the ``untraced`` row.

Spans are kept in memory in a :class:`repro.telemetry.tracing.Tracer`
(bounded by ``MAX_SPANS``; the per-layer totals never drop a span) and
written at the end in the Chrome ``trace_event`` format that tracer
emits.  Nothing here changes what the wrapped functions compute, so a
traced run must reproduce the untraced run's probe digests exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from repro.telemetry.tracing import Tracer

#: Spans kept for the Chrome trace file (a few MB of JSON).
MAX_SPANS = 50_000

#: Wrapped functions per layer, as ``module:Qualified.name``.
LAYERS = {
    "hashing": (
        "repro.core.dictionary:horner_eval_batch",
        "repro.hashing.polynomial:PolynomialHashFunction.eval_batch",
        "repro.hashing.perfect:PerfectHashFunction.eval_batch",
        "repro.hashing.dm:DMHashFunction.eval_batch",
        "repro.hashing.planted:PlantedBlockFunction.eval_batch",
    ),
    "cellprobe": (
        "repro.cellprobe.table:Table.read_batch",
        "repro.cellprobe.counters:ProbeCounter.record_batch",
        "repro.cellprobe.counters:ProbeCounter.total_probes",
    ),
    "core": ("repro.core.dictionary:LowContentionDictionary.query_batch",),
    "dictionaries.replicated": (
        "repro.dictionaries.replicated:ReplicatedDictionary.query_batch_on",
    ),
    "serve": (
        "repro.serve.service:ShardedDictionaryService.submit",
        "repro.serve.service:ShardedDictionaryService.advance",
        "repro.serve.service:ShardedDictionaryService.drain",
        "repro.serve.service:ShardedDictionaryService.next_deadline",
        "repro.serve.router:RandomRouter.assign",
        "repro.serve.router:RoundRobinRouter.assign",
        "repro.serve.router:LeastLoadedRouter.assign",
    ),
    "serve.health": ("repro.serve.health:HealthManager.tick",),
    "heal": ("repro.heal:CellScrubber.scrub_chunk",),
    "telemetry": tuple(
        f"repro.telemetry.hub:TelemetryHub.{hook}"
        for hook in (
            "on_request", "on_shed", "on_inflight", "on_batch", "on_route",
            "on_dispatch", "on_failover", "on_health", "on_heal",
            "on_batch_done", "check",
        )
    ),
    "parallel": (
        "repro.parallel.ring:RingBuffer.enqueue",
        "repro.parallel.ring:RingBuffer.consume_batch",
        # The dispatcher's blocking wait for worker responses.
        "repro.parallel.fabric:ParallelDictionaryService._collect",
    ),
    "dynamic": (
        "repro.dynamic.levels:LevelStructure.apply",
        "repro.dynamic.levels:LevelStructure.live_keys",
        # Level rebuilds construct a fresh static scheme per install.
        "repro.core.dictionary:construct",
        "repro.dynamic.replicated:ReplicatedDynamicDictionary.apply_batch",
        "repro.dynamic.replicated:ReplicatedDynamicDictionary.query_batch",
        "repro.dynamic.replicated:ReplicatedDynamicDictionary.query_pinned",
    ),
    "serve.dynamic_service": tuple(
        f"repro.serve.dynamic_service:DynamicShardedService.{name}"
        for name in (
            "submit", "submit_update", "advance", "drain", "next_deadline",
            "compact_logs", "read_pinned",
        )
    ),
    "persist": ("repro.persist.checkpoint:CheckpointStore.save",),
}


class Ledger:
    """Span recorder and per-layer self-time accumulator."""

    def __init__(self):
        self.tracer = Tracer(max_spans=MAX_SPANS)
        #: span name -> [layer, calls, self seconds]
        self.totals: dict[str, list] = {}
        #: Targets that no longer resolve (renamed or removed).
        self.missing: list[str] = []
        #: Peak request-ring depth seen after an enqueue, in words.
        self.queue_depth_max = 0
        #: Peak table words one shard's epoch pins held back.
        self.retained_words_peak = 0
        self._stack: list[list] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target in :data:`LAYERS`."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":", 1)
                *path, attr = qualname.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrap(original, qualname, layer))

    def _wrap(self, fn, name: str, layer: str):
        totals = self.totals.setdefault(name, [layer, 0, 0.0])
        stack = self._stack
        tracer = self.tracer
        clock = time.perf_counter
        after = {
            "RingBuffer.enqueue": self._after_enqueue,
            "ReplicatedDynamicDictionary.apply_batch": self._after_apply,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            # frame: [start, time covered by child spans, span]
            frame = [start, 0.0, tracer.start(
                name, start, parent=stack[-1][2] if stack else None,
                category=layer,
            )]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.finish(frame[2], end)
                duration = end - start
                totals[1] += 1
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if after is not None:
                    after(args)

        return wrapper

    def _after_enqueue(self, args) -> None:
        self.queue_depth_max = max(self.queue_depth_max, args[0].depth_words)

    def _after_apply(self, args) -> None:
        self.retained_words_peak = max(
            self.retained_words_peak, args[0].epochs.retained_words
        )

    # -- reading ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Completed calls of one wrapped function."""
        return self.totals.get(name, [None, 0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        """Self time of one wrapped function, in seconds."""
        return self.totals.get(name, [None, 0, 0.0])[2]

    def by_layer(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` for every layer in LAYERS."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for layer, calls, seconds in self.totals.values():
            out[layer][0] += calls
            out[layer][1] += seconds
        return {k: (v[0], v[1]) for k, v in out.items()}

    def rows(self) -> list[tuple[str, str, int, float]]:
        """``(layer, name, calls, self seconds)``, costliest first."""
        return sorted(
            ((v[0], k, v[1], v[2]) for k, v in self.totals.items() if v[1]),
            key=lambda row: -row[3],
        )

    def save_chrome(self, path) -> None:
        """Write the retained spans as Chrome trace_event JSON."""
        payload = self.tracer.to_chrome()
        payload["otherData"] = {"dropped_spans": self.tracer.dropped}
        with open(path, "w") as fh:
            json.dump(payload, fh)
