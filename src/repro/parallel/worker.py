"""The shard worker process: attach, verify, serve — no pickling after boot.

Each worker is a separate OS process (spawned with ``subprocess``, so
it works even when the parent is itself a daemonized experiment
worker).  At boot it loads a one-shot pickled spec (query-algorithm
objects and segment names — the only pickle of the worker's lifetime),
attaches every shared segment by name, **verifies each checksummed
header and the table payload CRC before serving a single query**, and
signals readiness on its request ring.

The serve loop is the fabric's hot path:

1. batched dequeue of query frames from the request ring;
2. per group: seed the probe RNG from the frame (deterministic — the
   dispatcher drew the seed), run the inner scheme's vectorized
   ``query_batch_on`` directly against the zero-copy shared table
   view, charging every probe to this worker's shared-memory
   :class:`~repro.parallel.shm.ShmProbeCounter`;
3. pack the boolean answers into a bitmap and enqueue one response
   frame.

Nothing on this path allocates proportional to the table, pickles, or
locks: requests and responses are raw ``uint64`` words, probes land in
the shared counter matrix, and the paper's accounting is exactly the
in-process service's (the E22 digest-equivalence gate).

Shutdown: a stop flag (or STOP frame, or ``SIGTERM``/``SIGINT``) ends
the loop; the worker closes its mappings and exits.  Workers never
unlink — segment lifetime is the owner's (see
:mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import pickle
import signal
import sys
import time

import numpy as np

from repro.cellprobe.counters import ProbeCounter  # noqa: F401  (doc link)
from repro.dictionaries.replicated import ReplicatedDictionary
from repro.errors import RingFullError
from repro.parallel.ring import (
    FRAME_QUERY,
    FRAME_RESPONSE,
    FRAME_STOP,
    RingBuffer,
)
from repro.parallel.shm import ShmProbeCounter, attach_segment, attach_table

#: Idle-loop backoff bounds (seconds): spin fast, then yield politely.
_IDLE_MIN = 1e-5
_IDLE_MAX = 2e-3


def pack_answers(answers: np.ndarray) -> np.ndarray:
    """Pack a boolean answer vector into little-endian ``uint64`` words."""
    bits = np.packbits(answers.astype(np.uint8), bitorder="little")
    pad = (-bits.size) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits.view(np.uint64)


def unpack_answers(words: np.ndarray, count: int) -> np.ndarray:
    """Invert :func:`pack_answers` back into ``count`` booleans."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:count].astype(bool)


def _enqueue_blocking(ring: RingBuffer, kind: int, payload) -> None:
    """Enqueue with polite backoff while the dispatcher drains."""
    delay = _IDLE_MIN
    while True:
        try:
            ring.enqueue(kind, payload)
            return
        except RingFullError:
            if ring.stopped:
                return
            time.sleep(delay)
            delay = min(delay * 2, _IDLE_MAX)


def serve(spec: dict) -> int:
    """Attach every segment in ``spec``, verify, and serve until stopped."""
    req = RingBuffer.attach(spec["req_ring"])
    resp = RingBuffer.attach(spec["resp_ring"])
    segments = [req.seg, resp.seg]
    dicts = []
    counters = []
    for shard in spec["shards"]:
        counter_seg = attach_segment(shard["counter_seg"])
        table_seg = attach_segment(shard["table_seg"])
        segments.extend([counter_seg, table_seg])
        counter = ShmProbeCounter(counter_seg)
        table = attach_table(table_seg, counter)
        dicts.append(ReplicatedDictionary.over_table(
            shard["inner"], shard["replicas"], table
        ))
        counters.append(counter)
    req.set_ready()
    delay = _IDLE_MIN
    running = True
    while running:
        frames = req.consume_batch(max_frames=128)
        if not frames:
            if req.stopped:
                break
            time.sleep(delay)
            delay = min(delay * 2, _IDLE_MAX)
            continue
        delay = _IDLE_MIN
        for kind, payload in frames:
            if kind == FRAME_STOP:
                running = False
                break
            if kind != FRAME_QUERY:
                continue
            group_id, shard, replica, seed, nkeys = (
                int(payload[0]), int(payload[1]), int(payload[2]),
                int(payload[3]), int(payload[4]),
            )
            keys = payload[5:5 + nkeys].astype(np.int64)
            counter = counters[shard]
            before = counter.total_probes()
            answers = dicts[shard].query_batch_on(
                keys, replica, np.random.default_rng(seed)
            )
            probes = counter.total_probes() - before
            head = np.array([group_id, nkeys, probes], dtype=np.uint64)
            _enqueue_blocking(
                resp, FRAME_RESPONSE,
                np.concatenate([head, pack_answers(answers)]),
            )
    for seg in segments:
        try:
            seg.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass
    return 0


def main(argv=None) -> int:
    """Entry point: ``python -m repro.parallel.worker <spec.pkl>``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.parallel.worker <spec.pkl>",
              file=sys.stderr)
        return 2
    # Die quietly on SIGTERM/SIGINT: the owner tears segments down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(argv[0], "rb") as fh:
        spec = pickle.load(fh)
    try:
        return serve(spec)
    except KeyboardInterrupt:  # pragma: no cover - timing dependent
        return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
