"""Probe accounting stays exact when it is made cheap.

Properties of the O(1) running total, the fused multi-step
``read_batch``, the compare-exchange majority vote and the incrementally
kept live count: each must equal the slow computation it replaces.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellprobe import ProbeCounter
from repro.cellprobe.table import EMPTY_CELL, Table
from repro.dynamic import ReplicatedDynamicDictionary
from repro.dynamic.levels import LevelStructure
from repro.errors import ParameterError
from repro.faults import FaultConfig, FaultInjector, FaultyTable
from repro.heal import _majority
from repro.parallel import (
    ShmProbeCounter,
    create_counter_segment,
    destroy_segment,
    read_counter,
    segment_name,
)
from repro.telemetry.events import BUS, FaultEvent, ProbeEvent

CELLS = 12
MAX_STEPS = 16

# -- the running total -----------------------------------------------------------

_cells = st.integers(-2, CELLS - 1)
_op = st.one_of(
    st.tuples(st.just("record"), st.integers(0, 5), st.integers(0, CELLS - 1)),
    st.tuples(
        st.just("batch1"), st.integers(0, 5), st.lists(_cells, max_size=6)
    ),
    st.tuples(
        st.just("batch2"),
        st.integers(0, 5),
        st.integers(0, 3).flatmap(
            lambda k: st.lists(
                st.lists(_cells, min_size=3, max_size=3),
                min_size=k, max_size=k,
            )
        ),
    ),
    st.tuples(
        st.just("merge"),
        st.integers(0, 6),
        st.lists(st.integers(0, CELLS - 1), max_size=5),
    ),
    st.tuples(st.just("finish"), st.integers(1, 3), st.none()),
    st.tuples(st.just("reset"), st.none(), st.none()),
)


def _apply(counter: ProbeCounter, op) -> None:
    kind, a, b = op
    if kind == "record":
        counter.record(a, b)
    elif kind == "batch1":
        counter.record_batch(a, np.array(b, dtype=np.int64))
    elif kind == "batch2":
        counter.record_batch(
            a, np.array(b, dtype=np.int64).reshape(len(b), 3)
        )
    elif kind == "merge":
        other = ProbeCounter(CELLS)
        for cell in b:
            other.record(a, cell)
        other.finish_execution()
        counter.merge(other)
    elif kind == "finish":
        counter.finish_execution(a)
    else:
        counter.reset()


def _assert_total_exact(counter: ProbeCounter) -> None:
    assert counter.total_probes() == int(counter.counts_per_step().sum())


@given(ops=st.lists(_op, max_size=25))
@settings(max_examples=60, deadline=None)
def test_running_total_equals_sum_plain_and_shm(ops):
    plain = ProbeCounter(CELLS)
    seg = create_counter_segment(
        segment_name("repro-test", "acct"), MAX_STEPS, CELLS
    )
    try:
        shm = ShmProbeCounter(seg)
        for op in ops:
            _apply(plain, op)
            _apply(shm, op)
            _assert_total_exact(plain)
            _assert_total_exact(shm)
            assert shm.digest() == plain.digest()
        resumed = ShmProbeCounter(seg)
        _assert_total_exact(resumed)
        assert resumed.total_probes() == plain.total_probes()
        assert resumed.digest() == plain.digest()
        copied = read_counter(seg)
        _assert_total_exact(copied)
        assert copied.digest() == plain.digest()
        # A resumed counter keeps counting from the resumed total.
        resumed.record_batch(0, np.array([[1, -1], [2, 3]], dtype=np.int64))
        _assert_total_exact(resumed)
    finally:
        destroy_segment(seg)


def test_shm_counter_inherits_recording():
    assert "record" not in vars(ShmProbeCounter)
    assert "record_batch" not in vars(ShmProbeCounter)
    assert not hasattr(ProbeCounter(1), "probes_charged")


def test_record_batch_2d_out_of_range_rejected_before_any_charge():
    counter = ProbeCounter(4)
    with pytest.raises(ParameterError):
        counter.record_batch(0, np.array([[0, 1], [-1, 4]], dtype=np.int64))
    assert counter.num_steps == 0 and counter.total_probes() == 0


def test_counter_pickled_without_running_total_rebuilds_it():
    # Checkpoints written before the running total existed pickle
    # counters that hold only their step rows.
    counter = ProbeCounter(CELLS)
    counter.record_batch(0, np.array([[1, 2], [3, -1]], dtype=np.int64))
    counter.finish_execution()
    del counter.__dict__["_total"]
    restored = pickle.loads(pickle.dumps(counter))
    assert restored.total_probes() == 3
    restored.record_batch(1, np.array([4, 5], dtype=np.int64))
    restored.record(2, 0)
    _assert_total_exact(restored)
    assert restored.total_probes() == 6
    assert restored.executions == 1


# -- the fused read -----------------------------------------------------------------

ROWS, S = 6, 9


@st.composite
def _fused_reads(draw):
    k = draw(st.integers(1, 4))
    batch = draw(st.integers(0, 7))
    rows = draw(
        st.lists(st.integers(0, ROWS - 1), min_size=k, max_size=k)
    )
    columns = draw(
        st.lists(
            st.lists(st.integers(-1, S - 1), min_size=batch, max_size=batch),
            min_size=k, max_size=k,
        )
    )
    step = draw(st.integers(0, 4))
    return (
        np.array(rows, dtype=np.int64)[:, None],
        np.array(columns, dtype=np.int64).reshape(k, batch),
        step,
    )


def _filled_table(seed: int) -> Table:
    table = Table(ROWS, S)
    rng = np.random.default_rng(seed)
    for r in range(ROWS):
        table.write_row(r, rng.integers(0, 2**40, size=S).astype(np.uint64))
    return table


def _read_both(fused_table, single_table, rows, columns, step):
    fused_events, single_events = [], []
    with BUS.subscribed(fused_events.append):
        fused = fused_table.read_batch(rows, columns, step)
    with BUS.subscribed(single_events.append):
        singles = [
            single_table.read_batch(rows[i, 0], columns[i], step + i)
            for i in range(columns.shape[0])
        ]
    return fused, singles, fused_events, single_events


def _kinds(events, kind):
    return [e for e in events if isinstance(e, kind)]


@given(read=_fused_reads(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_fused_read_equals_single_step_reads(read, seed):
    rows, columns, step = read
    a, b = _filled_table(seed), _filled_table(seed)
    fused, singles, ev_a, ev_b = _read_both(a, b, rows, columns, step)
    assert fused.shape == columns.shape
    for i, single in enumerate(singles):
        np.testing.assert_array_equal(fused[i], single)
    assert np.all(fused[columns < 0] == EMPTY_CELL)
    assert a.counter.digest() == b.counter.digest()
    assert a.counter.total_probes() == int(np.count_nonzero(columns >= 0))
    assert _kinds(ev_a, ProbeEvent) == _kinds(ev_b, ProbeEvent)
    assert len(_kinds(ev_a, ProbeEvent)) == columns.shape[0]


@given(
    read=_fused_reads(),
    seed=st.integers(0, 2**16),
    flip_rate=st.sampled_from([0.0, 0.3, 1.0]),
    stuck_rate=st.sampled_from([0.0, 0.25]),
)
@settings(max_examples=80, deadline=None)
def test_fused_faulty_read_equals_single_step_reads(
    read, seed, flip_rate, stuck_rate
):
    rows, columns, step = read
    config = FaultConfig(flip_rate=flip_rate, stuck_rate=stuck_rate, seed=seed)
    inj_a = FaultInjector(config, ROWS, S)
    inj_b = FaultInjector(config, ROWS, S)
    a = FaultyTable(_filled_table(seed), inj_a)
    b = FaultyTable(_filled_table(seed), inj_b)
    fused, singles, ev_a, ev_b = _read_both(a, b, rows, columns, step)
    for i, single in enumerate(singles):
        np.testing.assert_array_equal(fused[i], single)
    assert a.counter.digest() == b.counter.digest()
    assert (
        inj_a._flip_rng.bit_generator.state
        == inj_b._flip_rng.bit_generator.state
    )
    assert _kinds(ev_a, ProbeEvent) == _kinds(ev_b, ProbeEvent)
    assert _kinds(ev_a, FaultEvent) == _kinds(ev_b, FaultEvent)


# -- the majority vote -------------------------------------------------------------


@given(
    v=st.integers(1, 7),
    width=st.integers(0, 40),
    spread=st.sampled_from([2, 3, 2**64 - 1]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_majority_network_equals_sorted_middle(v, width, spread, seed):
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, spread, size=(v, width), dtype=np.uint64)
    np.testing.assert_array_equal(
        _majority(stack), np.sort(stack, axis=0)[v // 2]
    )


# -- the live count ----------------------------------------------------------------

UNIVERSE = 64

_update = st.tuples(st.integers(0, UNIVERSE - 1), st.booleans())


@given(ops=st.lists(_update, max_size=40), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_live_count_tracks_live_keys(ops, seed):
    levels = LevelStructure(UNIVERSE, rng=seed)
    for key, is_insert in ops:
        levels.apply(key, is_insert)
        assert levels.live_count == len(levels.live_keys())
    snapshot = list(levels.levels)
    levels.replace_levels([None] * len(snapshot))
    assert levels.live_count == 0 == len(levels.live_keys())
    levels.replace_levels(snapshot)
    assert levels.live_count == len(levels.live_keys())


@given(
    ops=st.lists(st.lists(_update, min_size=1, max_size=4), max_size=8),
    crash_at=st.integers(0, 8),
    compact=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_live_count_survives_crash_wipe_and_restore(ops, crash_at, compact):
    d = ReplicatedDynamicDictionary(UNIVERSE, replicas=3, seed=1, armed=True)

    def check():
        for r in d.live_replicas():
            lv = d._replicas[r]._levels
            assert lv.live_count == len(lv.live_keys())

    for i, group in enumerate(ops):
        if i == crash_at:
            if compact:
                d.compact_log()
            d.crash_replica(1)
            assert d._replicas[1]._levels.live_count == 0
        d.apply_batch(group)
        check()
    if 1 in d._crashed:
        d.rebuild_replica(1)
    check()
    lv = d._replicas[1]._levels
    assert lv.live_count == len(d._replicas[0]._levels.live_keys())
