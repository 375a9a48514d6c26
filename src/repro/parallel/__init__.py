"""True multi-process serving over shared memory — the multicore fabric.

Everything :mod:`repro.serve` does is *simulated* parallelism inside
one Python process.  This package serves the same replicated
dictionaries from real worker processes on real cores:

- :mod:`repro.parallel.shm` — named shared-memory segments with
  checksummed headers: zero-copy table views, per-worker probe-counter
  matrices, and the segment ownership protocol that keeps ``/dev/shm``
  leak-free;
- :mod:`repro.parallel.ring` — cache-line-padded SPSC ring buffers
  (sequence-number handshake, batched dequeue, typed backpressure) —
  nothing is pickled on the hot path;
- :mod:`repro.parallel.worker` — the worker process: attach, verify,
  serve routed groups against the shared table;
- :mod:`repro.parallel.fabric` — the dispatcher: a
  :class:`~repro.parallel.fabric.ParallelDictionaryService` that keeps
  the in-process service's batching/routing/admission brain and ships
  execution to the pool.

Probe accounting stays the paper's: each worker charges a shared
:class:`~repro.parallel.shm.ShmProbeCounter`, and the element-wise
merge of all workers is byte-identical (same ``digest()``) to running
the same dispatch plan in-process — so per-cell loads remain exactly
Binomial(Q, Φ_t) and E22 can test that claim on hardware.
"""

from repro.parallel.fabric import (
    DEFAULT_MAX_STEPS,
    DEFAULT_RING_WORDS,
    FabricStats,
    ParallelDictionaryService,
    WorkerHandle,
    WorkerPool,
    build_parallel_service,
)
from repro.parallel.ring import (
    FRAME_OVERHEAD,
    FRAME_QUERY,
    FRAME_RESPONSE,
    FRAME_STOP,
    RingBuffer,
    ring_segment_size,
)
from repro.parallel.shm import (
    KIND_COUNTER,
    KIND_RING,
    KIND_TABLE,
    LAYOUT_VERSION,
    MAGIC,
    ShmProbeCounter,
    attach_segment,
    attach_table,
    counter_segment_size,
    create_counter_segment,
    create_segment,
    destroy_segment,
    pack_table,
    read_counter,
    segment_name,
    verify_header,
    write_header,
)
from repro.parallel.worker import pack_answers, unpack_answers

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_RING_WORDS",
    "FRAME_OVERHEAD",
    "FRAME_QUERY",
    "FRAME_RESPONSE",
    "FRAME_STOP",
    "FabricStats",
    "KIND_COUNTER",
    "KIND_RING",
    "KIND_TABLE",
    "LAYOUT_VERSION",
    "MAGIC",
    "ParallelDictionaryService",
    "RingBuffer",
    "ShmProbeCounter",
    "WorkerHandle",
    "WorkerPool",
    "attach_segment",
    "attach_table",
    "build_parallel_service",
    "counter_segment_size",
    "create_counter_segment",
    "create_segment",
    "destroy_segment",
    "pack_answers",
    "pack_table",
    "read_counter",
    "ring_segment_size",
    "segment_name",
    "unpack_answers",
    "verify_header",
    "write_header",
]
