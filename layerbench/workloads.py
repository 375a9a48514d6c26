"""Workloads of the layer-ledger benchmark: seeded inputs, builders, replay.

Every workload is a function of its seed.  The instance (the key set or
the dynamic preload), the arrival times, the keys and the op kinds are
drawn here before any timed region, so the program under test only ever
receives generated inputs.  Replay is single-threaded and clockless, in
the manner of ``repro.serve.client.run_open_loop``: the replay calls
``submit`` / ``submit_update`` / ``read_pinned`` / ``advance`` in
virtual-time order and times each call on the wall clock.

The amount of replayed work is fixed by the seed and the op count, never
by the clock, so two runs with one seed do identical work and their
probe-counter digests must agree byte for byte.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import os
import time

import numpy as np

import calibrate
from calibrate import INTERVAL_S, REFERENCE_S
from repro.errors import (
    DegradedModeError,
    OverloadError,
    UpdateBacklogError,
)
from repro.faults import FaultConfig
from repro.parallel.fabric import build_parallel_service
from repro.persist import CheckpointStore
from repro.serve.dynamic_service import build_dynamic_service
from repro.serve.service import build_service
from repro.telemetry.hub import TelemetryHub

#: Static instance: n keys drawn from a universe of n**2, in shards of
#: equal key ranges.
STATIC_N = 16384
STATIC_UNIVERSE = STATIC_N**2
NUM_SHARDS = 4

#: Dynamic instance: the universe, its shards and the keys inserted
#: during set-up.
DYNAMIC_UNIVERSE = 1 << 20
DYNAMIC_SHARDS = 2
DYNAMIC_PRELOAD = 2048

# Op kinds of a trace.
READ, INSERT, DELETE, PINNED = 0, 1, 2, 3

#: Keys per pinned multi-key read.
PINNED_KEYS = 8


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix and the service configuration it runs against."""

    name: str
    #: Sizes the replayed work: a run of ``--seconds S`` replays
    #: ``nominal_ops_per_s * S`` ops in total.  Set near the throughput
    #: of the reference host (2-CPU container, Python 3.11, numpy 2.4).
    nominal_ops_per_s: float
    #: Poisson arrival rate, requests per virtual time unit.
    rate: float
    max_batch: int
    max_delay: float
    capacity: int
    #: Virtual service time per probe; nonzero so the model queues.
    probe_time: float
    dynamic: bool = False
    #: Zipf exponent over keys plus as many absent keys (None = uniform
    #: 50/50 present/absent reads).
    zipf: float | None = None
    heal: bool = False
    #: Fabric worker processes (0 = serve inline).
    procs: int = 0


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="static-uniform",
            nominal_ops_per_s=15000.0,
            rate=512.0,
            max_batch=64,
            max_delay=1.0,
            capacity=1024,
            probe_time=1e-3,
        ),
        Workload(
            name="static-zipf-heal",
            nominal_ops_per_s=11000.0,
            rate=4096.0,
            max_batch=512,
            # Binds on the colder shards, so their delay, not the last
            # partial batches of the trace, sets the virtual-time tail.
            max_delay=0.5,
            capacity=4096,
            probe_time=1e-5,
            zipf=1.1,
            heal=True,
        ),
        Workload(
            name="fabric-uniform",
            nominal_ops_per_s=45000.0,
            # An idle worker polls its ring after sleeps of 10 us doubling
            # to 2 ms.  At batch 64 a batch reached it every ~1.1 ms, near
            # the 1.27 ms step of that schedule, so a few percent of host
            # speed decided whether it waited 0.1 or 1.3 ms, and the read
            # times spread by 0.12-0.2 across runs.  At batch 512 a batch
            # comes every ~9 ms, in the 2 ms sleeps at an even phase.
            rate=4096.0,
            max_batch=512,
            # As in static-zipf-heal: the delay, not the last partial
            # batches of the trace, sets the virtual-time tail.
            max_delay=0.5,
            capacity=4096,
            probe_time=1e-5,
            procs=1,
        ),
        Workload(
            name="dynamic-mixed",
            nominal_ops_per_s=300.0,
            rate=64.0,
            max_batch=32,
            max_delay=0.5,
            capacity=1024,
            probe_time=1e-5,
            dynamic=True,
        ),
    )
}

# dynamic-mixed write path and durability settings.  Write groups keep
# the service's default size, so updates stay pending across reads and
# each read dispatch and pinned read first applies its shard's pending
# group: the read-your-writes barrier runs, and the shadow check covers it.
UPDATE_CAPACITY = 256
LOG_RETENTION = 128
CHECKPOINT_EVERY = 8.0
CHECKPOINT_KEEP = 2


@dataclasses.dataclass
class Trace:
    """The generated request stream of one repetition."""

    arrivals: np.ndarray
    kinds: np.ndarray
    keys: np.ndarray
    #: Key sets of the pinned reads, in trace order.
    pinned: list
    #: Randomness of the re-reads at held pins (dynamic traces only).
    pin_rng: np.random.Generator | None = None


@dataclasses.dataclass
class Deployment:
    """A built service plus what the checks need to know about it."""

    service: object
    #: Keys present when the replay starts (static set or preload).
    initial_keys: np.ndarray
    store: CheckpointStore | None = None


# -- instances ----------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def static_keys(seed: int) -> np.ndarray:
    """The static instance: ``STATIC_N`` distinct sorted keys."""
    rng = _rng(seed, 0)
    return np.sort(
        rng.choice(STATIC_UNIVERSE, size=STATIC_N, replace=False)
    ).astype(np.int64)


def _shard_range(shard: int) -> tuple[int, int]:
    """The key range ``[lo, hi)`` of one dynamic shard."""
    return (
        DYNAMIC_UNIVERSE * shard // DYNAMIC_SHARDS,
        DYNAMIC_UNIVERSE * (shard + 1) // DYNAMIC_SHARDS,
    )


def dynamic_preload(seed: int) -> np.ndarray:
    """Keys inserted during dynamic set-up, in insertion order.

    An equal share of distinct keys per shard, dealt to the shards in
    turn, so every seed starts from shards of the same sizes.
    """
    rng = _rng(seed, 0)
    per_shard = DYNAMIC_PRELOAD // DYNAMIC_SHARDS
    columns = []
    for shard in range(DYNAMIC_SHARDS):
        lo, hi = _shard_range(shard)
        columns.append(lo + rng.choice(hi - lo, size=per_shard, replace=False))
    return np.stack(columns, axis=1).ravel().astype(np.int64)


def build(workload: Workload, seed: int, workdir: str) -> Deployment:
    """Construct the service a workload runs against (the set-up)."""
    w = workload
    if w.dynamic:
        service = build_dynamic_service(
            DYNAMIC_UNIVERSE,
            num_shards=DYNAMIC_SHARDS,
            replicas=3,
            max_batch=w.max_batch,
            max_delay=w.max_delay,
            capacity=w.capacity,
            update_capacity=UPDATE_CAPACITY,
            probe_time=w.probe_time,
            log_retention=LOG_RETENTION,
            seed=seed,
        )
        store = CheckpointStore(
            os.path.join(workdir, "checkpoints"), keep=CHECKPOINT_KEEP
        )
        service.attach_checkpoints(store, every=CHECKPOINT_EVERY)
        preload = dynamic_preload(seed)
        now = 0.0
        for key in preload.tolist():
            service.submit_update(key, True, now)
            now += 1.0 / w.rate
        service.drain(now)
        return Deployment(service, np.sort(preload), store)
    keys = static_keys(seed)
    common = dict(
        num_shards=NUM_SHARDS,
        replicas=3,
        router="least-loaded",
        max_batch=w.max_batch,
        max_delay=w.max_delay,
        capacity=w.capacity,
        probe_time=w.probe_time,
        seed=seed,
    )
    if w.procs:
        service = build_parallel_service(
            keys, STATIC_UNIVERSE, procs=w.procs, **common
        )
        return Deployment(service, keys)
    service = build_service(
        keys,
        STATIC_UNIVERSE,
        faults=FaultConfig(armed=True) if w.heal else None,
        **common,
    )
    if w.heal:
        service.enable_healing(seed=seed)
        service.attach_telemetry(TelemetryHub(metrics=True))
    return Deployment(service, keys)


def close(deployment: Deployment) -> None:
    """Release what the service holds outside this process."""
    closer = getattr(deployment.service, "close", None)
    if closer is not None:
        closer()


# -- traces -------------------------------------------------------------------


def _absent(rng, lo: int, hi: int, present: np.ndarray, size: int) -> np.ndarray:
    """``size`` distinct keys of ``[lo, hi)`` outside ``present``."""
    out = np.empty(0, dtype=np.int64)
    while out.size < size:
        draw = rng.integers(lo, hi, size=2 * size, dtype=np.int64)
        out = np.unique(
            np.concatenate([out, np.setdiff1d(draw, present)])
        )
    return rng.permutation(out)[:size]


def _zipf_candidates(rng, keys: np.ndarray) -> np.ndarray:
    """The keys and as many absent keys, in Zipf rank order.

    Ranks are dealt round-robin over the shards, and within a shard they
    alternate present / absent.  Every seed's hot set is then half
    present and spread over the shards alike, so the shard loads, and
    with them batching delays and probes per read, do not hinge on
    where the seed happened to put the hottest keys.
    """
    shard = keys * NUM_SHARDS // STATIC_UNIVERSE
    # Row i holds every shard's rank-i candidate; -1 pads short shards.
    ranked = np.full(
        (2 * int(np.bincount(shard).max()), NUM_SHARDS), -1, dtype=np.int64
    )
    for s in range(NUM_SHARDS):
        present = rng.permutation(keys[shard == s])
        ranked[0:2 * present.size:2, s] = present
        ranked[1:2 * present.size:2, s] = _absent(
            rng,
            STATIC_UNIVERSE * s // NUM_SHARDS,
            STATIC_UNIVERSE * (s + 1) // NUM_SHARDS,
            keys,
            present.size,
        )
    dealt = ranked.ravel()
    return dealt[dealt >= 0]


def make_trace(
    workload: Workload, deployment: Deployment, seed: int, ops: int
) -> Trace:
    """The seeded request stream of ``ops`` ops for one repetition."""
    rng = _rng(seed, 1)
    if workload.dynamic:
        trace = _dynamic_trace(
            rng, workload.rate, ops, deployment.initial_keys
        )
        trace.pin_rng = _rng(seed, 2)
        return trace
    arrivals = np.cumsum(rng.exponential(1.0 / workload.rate, size=ops))
    keys = deployment.initial_keys
    if workload.zipf is not None:
        candidates = _zipf_candidates(rng, keys)
        mass = np.arange(1, candidates.size + 1, dtype=np.float64)
        mass = mass ** -float(workload.zipf)
        queries = candidates[
            rng.choice(candidates.size, size=ops, p=mass / mass.sum())
        ]
    else:
        present = keys[rng.integers(0, keys.size, size=ops)]
        absent = rng.integers(0, STATIC_UNIVERSE, size=ops, dtype=np.int64)
        queries = np.where(rng.random(ops) < 0.5, present, absent)
    return Trace(
        arrivals=arrivals,
        kinds=np.full(ops, READ, dtype=np.int8),
        keys=queries.astype(np.int64),
        pinned=[],
    )


def _dynamic_schedule(rate: float, ops: int):
    """``(arrivals, kinds, shards)`` of a dynamic trace, alike for all seeds.

    Op kinds are one shuffled block of 100 (1% pinned reads, 49% reads,
    40% inserts, 10% deletes), repeated.  Each kind's ops go to the
    shards in turn, and the arrivals are one fixed Poisson sequence.
    Write groups then form at the same ops in every run, and the level
    structures grow through the same merges, so their rare, costly
    rebuilds weigh the same whatever the seed.  The seed picks the keys.
    """
    fixed = np.random.default_rng(0)
    block = np.repeat(
        np.array([PINNED, READ, INSERT, DELETE], dtype=np.int8),
        [1, 49, 40, 10],
    )
    kinds = np.resize(fixed.permutation(block), ops)
    arrivals = np.cumsum(fixed.exponential(1.0 / rate, size=ops))
    shards = np.empty(ops, dtype=np.int64)
    for kind in (PINNED, READ, INSERT, DELETE):
        at = np.flatnonzero(kinds == kind)
        shards[at] = np.arange(at.size) % DYNAMIC_SHARDS
    return arrivals, kinds, shards


def _dynamic_trace(rng, rate: float, ops: int, preload: np.ndarray) -> Trace:
    """Keys for the fixed schedule; half of all reads present.

    Present keys and delete targets come from a generator-side model of
    each shard's live set, so deletes remove live keys and "present"
    reads ask for keys that are live when they are generated.
    """
    arrivals, kinds, shards = _dynamic_schedule(rate, ops)
    live = [[] for _ in range(DYNAMIC_SHARDS)]
    where = [{} for _ in range(DYNAMIC_SHARDS)]
    for key in preload.tolist():
        shard = key * DYNAMIC_SHARDS // DYNAMIC_UNIVERSE
        where[shard][key] = len(live[shard])
        live[shard].append(key)

    def pick_live(shard: int) -> int:
        return live[shard][int(rng.integers(0, len(live[shard])))]

    def any_key(shard: int) -> int:
        return int(rng.integers(*_shard_range(shard)))

    def read_key(shard: int) -> int:
        return pick_live(shard) if rng.random() < 0.5 else any_key(shard)

    keys = np.empty(ops, dtype=np.int64)
    pinned = []
    for i, (kind, shard) in enumerate(zip(kinds.tolist(), shards.tolist())):
        if kind == READ:
            keys[i] = read_key(shard)
        elif kind == INSERT:
            key = any_key(shard)
            if key not in where[shard]:
                where[shard][key] = len(live[shard])
                live[shard].append(key)
            keys[i] = key
        elif kind == DELETE:
            key = pick_live(shard)
            pos = where[shard].pop(key)
            last = live[shard].pop()
            if last != key:
                live[shard][pos] = last
                where[shard][last] = pos
            keys[i] = key
        else:
            keys[i] = -1
            pinned.append(np.asarray(
                [read_key(int(rng.integers(0, DYNAMIC_SHARDS)))
                 for _ in range(PINNED_KEYS)],
                dtype=np.int64,
            ))
    return Trace(arrivals=arrivals, kinds=kinds, keys=keys, pinned=pinned)


# -- replay -------------------------------------------------------------------


#: Calibration samples that date the start of a replay.
EARLY_SAMPLES = 20
#: Calibration samples on each side of a call that give its local speed.
LOCAL_SAMPLES = 3


class Outcomes:
    """Execution-ordered outcomes of a replay, in flat arrays.

    Each entry is ``(kind, key, answer)``: a completed read, an admitted
    insert or delete, or one key of a pinned read.  Flat arrays rather
    than kept tickets: holding every ticket alive would make each full
    garbage collection traverse them, inflating the service times the
    benchmark reports.
    """

    def __init__(self):
        self.kinds = bytearray()
        self.keys = array.array("q")
        self.answers = bytearray()
        #: Virtual-time latency of each completed read, in order.
        self.read_latency = array.array("d")

    def add(self, kind: int, key: int, answer: bool) -> None:
        self.kinds.append(kind)
        self.keys.append(key)
        self.answers.append(answer)

    def count(self, kind: int) -> int:
        return self.kinds.count(kind)


@dataclasses.dataclass
class Replay:
    """What one timed replay observed."""

    wall_s: float
    attempted: int
    shed: int
    #: Per program call that completed reads: its time at the reference
    #: speed, and the reads it completed.
    read_call_s: np.ndarray
    read_call_ops: array.array
    #: The same for program calls that applied updates.
    write_call_s: np.ndarray
    write_call_ops: array.array
    #: Read batches dispatched, and those flushed by the size cap.
    batches: int
    size_batches: int
    outcomes: Outcomes
    #: Read tickets not completed once no deadline is pending.
    unfinished: int
    #: Keys whose re-read at a held pin disagreed with the answer given
    #: at that pin, plus held pins at another epoch than the read's.
    stale_pins: int
    #: Reference-speed seconds per measured second (see calibrate.py),
    #: over the whole replay and over its first ``EARLY_SAMPLES``
    #: calibration samples, the ones nearest what ran before it.
    speed_ratio: float
    early_speed_ratio: float


def replay(deployment: Deployment, trace: Trace) -> Replay:
    """Drive the trace through the service in virtual-time order.

    Each program call is timed alone.  A call is charged to every read
    it completed and to every update it applied, so a read's service
    time covers dispatch, routing, probes, verification, any scrub tick
    run in that call and any write group flushed ahead of it.  The
    calibration samples (see calibrate.py) are taken between calls and
    excluded from ``wall_s``; call times are given at the reference
    speed.

    A pinned read also pins the shards it touched (``pin_shard``) and
    holds those pins until the next pinned read, some forty updates
    later, so levels retired meanwhile stay retained.  The next pinned
    read first re-reads the held keys at their pins, which must give the
    answers of the original read, and releases them; that call is timed
    as one read.
    """
    clock = time.perf_counter
    svc = deployment.service
    stats = svc.stats
    dynamic = hasattr(svc, "submit_update")
    open_reads = [collections.deque() for _ in range(svc.num_shards)]
    out = Outcomes()
    # Per timed call: seconds, ops, calibration samples taken before it.
    read_s, read_ops, read_at = (
        array.array("d"), array.array("q"), array.array("q")
    )
    write_s, write_ops, write_at = (
        array.array("d"), array.array("q"), array.array("q")
    )
    cal = array.array("d")
    size_batches = 0
    shed = 0
    pinned = iter(trace.pinned)
    # Held pins: (shard, pin, keys, answers at the pin).
    held: list = []
    stale_pins = 0

    def release_held() -> None:
        nonlocal stale_pins
        c0 = clock()
        for shard, pin, keys, answers in held:
            again = svc.shards[shard].query_pinned(pin, keys, trace.pin_rng)
            stale_pins += int(np.count_nonzero(again != answers))
            pin.release()
        read_s.append(clock() - c0)
        read_ops.append(1)
        read_at.append(len(cal))
        held.clear()

    def settle(dt, done0, applied0) -> None:
        # Completed reads leave their shard's batcher in FIFO order.
        if stats.completed != done0:
            read_s.append(dt)
            read_ops.append(stats.completed - done0)
            read_at.append(len(cal))
            for q in open_reads:
                while q and q[0].done:
                    ticket = q.popleft()
                    out.add(READ, ticket.key, ticket.answer)
                    out.read_latency.append(ticket.latency)
        if dynamic and stats.updates_applied != applied0:
            write_s.append(dt)
            write_ops.append(stats.updates_applied - applied0)
            write_at.append(len(cal))

    paused = 0.0
    start = next_cal = clock()
    for t, kind, key in zip(
        trace.arrivals.tolist(), trace.kinds.tolist(), trace.keys.tolist()
    ):
        c0 = clock()
        if c0 >= next_cal:
            cal.append(calibrate.sample())
            next_cal = clock()
            paused += next_cal - c0
            next_cal += INTERVAL_S
        deadline = svc.next_deadline()
        while deadline is not None and deadline <= t:
            done0 = stats.completed
            applied0 = stats.updates_applied if dynamic else 0
            c0 = clock()
            svc.advance(deadline)
            settle(clock() - c0, done0, applied0)
            deadline = svc.next_deadline()
        done0 = stats.completed
        applied0 = stats.updates_applied if dynamic else 0
        batches0 = stats.batches
        if kind == READ:
            c0 = clock()
            try:
                ticket = svc.submit(key, t)
            except (OverloadError, DegradedModeError):
                shed += 1
                continue
            dt = clock() - c0
            open_reads[ticket.shard].append(ticket)
            size_batches += stats.batches - batches0
            settle(dt, done0, applied0)
        elif kind == PINNED:
            keys = next(pinned)
            shard_ids = np.fromiter(
                (svc.shard_of(k) for k in keys.tolist()), dtype=np.int64
            )
            if held:
                release_held()
            c0 = clock()
            answers, epochs = svc.read_pinned(keys, t)
            pins = {shard: svc.pin_shard(shard) for shard in epochs}
            dt = clock() - c0
            for shard, pin in pins.items():
                sel = shard_ids == shard
                held.append((shard, pin, keys[sel], answers[sel]))
                stale_pins += pin.epoch != epochs[shard]
            settle(dt, done0, applied0)
            read_s.append(dt)
            read_ops.append(1)
            read_at.append(len(cal))
            for k, a in zip(keys.tolist(), answers.tolist()):
                out.add(PINNED, k, a)
        else:
            c0 = clock()
            try:
                svc.submit_update(key, kind == INSERT, t)
            except UpdateBacklogError:
                shed += 1
                continue
            dt = clock() - c0
            # Recorded before settling: a group this call flushed holds it.
            out.add(kind, key, False)
            settle(dt, done0, applied0)
    if held:
        release_held()
    # Wind down as run_open_loop does: fire the remaining deadlines one
    # by one, so the last batches flush as they would in steady state.
    deadline = svc.next_deadline()
    while deadline is not None:
        done0 = stats.completed
        applied0 = stats.updates_applied if dynamic else 0
        c0 = clock()
        svc.advance(deadline)
        settle(clock() - c0, done0, applied0)
        deadline = svc.next_deadline()
    wall = clock() - start - paused
    samples = np.asarray(cal)

    def at_reference(seconds, at) -> np.ndarray:
        # A call's local speed: the mean of the LOCAL_SAMPLES calibration
        # samples on either side of it.
        at = np.asarray(at, dtype=np.int64)
        sums = np.concatenate([[0.0], np.cumsum(samples)])
        lo = np.clip(at - LOCAL_SAMPLES, 0, samples.size - 1)
        hi = np.clip(at + LOCAL_SAMPLES, lo + 1, samples.size)
        local = (sums[hi] - sums[lo]) / (hi - lo)
        return np.asarray(seconds) * REFERENCE_S / local

    return Replay(
        wall_s=wall,
        attempted=int(trace.kinds.size),
        shed=shed,
        read_call_s=at_reference(read_s, read_at),
        read_call_ops=read_ops,
        write_call_s=at_reference(write_s, write_at),
        write_call_ops=write_ops,
        batches=int(stats.batches),
        size_batches=size_batches,
        outcomes=out,
        unfinished=sum(len(q) for q in open_reads),
        stale_pins=stale_pins,
        speed_ratio=REFERENCE_S / float(samples.mean()),
        early_speed_ratio=(
            REFERENCE_S / float(samples[:EARLY_SAMPLES].mean())
        ),
    )


# -- checks -------------------------------------------------------------------


def wrong_answers(deployment: Deployment, outcomes: Outcomes) -> int:
    """Answers that disagree with a shadow set replayed in execution order.

    Static stacks never change, so the shadow is the key set.  On the
    dynamic stack a read dispatch first applies every update admitted to
    its shard, so a read is checked against the shadow after every update
    recorded before it (read-your-writes); a pinned read is checked
    against the shadow at its pin.
    """
    shadow = set(deployment.initial_keys.tolist())
    wrong = 0
    for kind, key, answer in zip(
        outcomes.kinds, outcomes.keys, outcomes.answers
    ):
        if kind == INSERT:
            shadow.add(key)
        elif kind == DELETE:
            shadow.discard(key)
        else:
            wrong += bool(answer) != (key in shadow)
    return wrong


def probe_digests(deployment: Deployment) -> dict:
    """Every per-shard / per-replica probe-counter digest of the service."""
    svc = deployment.service
    out = {}
    for i, shard in enumerate(svc.shards):
        if hasattr(shard, "query_counter_digest"):
            for r in range(shard.replicas):
                out[f"shard{i}.replica{r}"] = shard.query_counter_digest(r)
        elif hasattr(svc, "merged_counter"):
            out[f"shard{i}"] = svc.merged_counter(i).digest()
        else:
            out[f"shard{i}"] = shard.table.counter.digest()
    health = getattr(svc, "health", None)
    if health is not None:
        for i, counter in enumerate(health.repair_counters):
            out[f"shard{i}.repair"] = counter.digest()
    return out


def write_cost(deployment: Deployment) -> tuple[int, int]:
    """``(cells written by rebuilds, updates)`` summed over shards.

    Replica 0's :class:`~repro.dynamic.accounting.UpdateCostAccount`
    per shard; replicas apply in lockstep, so one replica is the cost.
    """
    cells = updates = 0
    for shard in deployment.service.shards:
        account = shard.account(0)
        cells += account.total_cells_written
        updates += account.updates
    return cells, updates


def checkpoint_bytes(deployment: Deployment) -> float:
    """Mean bytes of one checkpoint generation still on disk (0 if none)."""
    if deployment.store is None:
        return 0.0
    sizes: dict = collections.defaultdict(int)
    for _, generation, path in deployment.store.generations():
        sizes[generation] += os.path.getsize(path)
    return float(np.mean(list(sizes.values()))) if sizes else 0.0
