"""The replica-set contract, run on both replicated dictionaries.

Every case in :class:`TestContract` runs on the static
:class:`~repro.dictionaries.ReplicatedDictionary` (armed ``FaultConfig``,
``"majority"`` mode so plain reads vote) and on the lockstep
:class:`~repro.dynamic.ReplicatedDynamicDictionary` (``armed=True``):
crash state, the dispatch guard, replica range and armed checks, the
vote and the shared :class:`~repro.faults.FaultStats` record.  The
static-only cases pin the chaos hooks' replica confinement and the
zero-copy ``over_table`` constructor.
"""

import numpy as np
import pytest

from repro.dictionaries import ReplicatedDictionary, SortedArrayDictionary
from repro.dictionaries.replicated import ReplicaSet
from repro.dynamic import ReplicatedDynamicDictionary
from repro.errors import (
    FaultExhaustedError,
    HealError,
    ParameterError,
    ReplicaUnavailableError,
)
from repro.faults import FaultConfig, FaultStats

UNIVERSE = 1 << 10
R = 3


def _keys() -> np.ndarray:
    rng = np.random.default_rng(11)
    return np.sort(rng.choice(UNIVERSE, size=48, replace=False))


def _static(armed: bool = True) -> ReplicatedDictionary:
    inner = SortedArrayDictionary(_keys(), UNIVERSE)
    return ReplicatedDictionary(
        inner, R, mode="majority",
        faults=FaultConfig(armed=True) if armed else None,
    )


def _dynamic(armed: bool = True) -> ReplicatedDynamicDictionary:
    d = ReplicatedDynamicDictionary(UNIVERSE, R, seed=0, armed=armed)
    d.apply_batch([(int(k), True) for k in _keys()])
    return d


FACTORIES = {"static": _static, "dynamic": _dynamic}


@pytest.fixture(params=sorted(FACTORIES))
def make(request):
    return FACTORIES[request.param]


def _reads() -> np.ndarray:
    keys = _keys()
    return np.concatenate([keys[:8], np.setdiff1d(np.arange(64), keys)[:8]])


class TestContract:
    def test_one_base_and_one_stats_record(self, make):
        d = make()
        assert isinstance(d, ReplicaSet)
        assert type(d.fault_stats) is FaultStats
        assert d.armed
        assert d.live_replicas() == list(range(R))

    def test_crash_updates_live_replicas(self, make):
        d = make()
        d.crash_replica(1)
        assert d.live_replicas() == [0, 2]
        assert d.fault_stats.crashes == 1

    def test_dispatch_to_crashed_replica_is_a_crash_hit(self, make):
        d = make()
        xs = _reads()
        truth = np.isin(xs, _keys())
        d.crash_replica(2)
        with pytest.raises(ReplicaUnavailableError):
            d.query_batch_on(xs, 2, np.random.default_rng(0))
        assert d.fault_stats.crash_hits == 1
        got = d.query_batch_on(xs, 0, np.random.default_rng(0))
        assert np.array_equal(got, truth)
        assert d.fault_stats.crash_hits == 1

    @pytest.mark.parametrize("replica", [-1, R, 99])
    def test_out_of_range_replica(self, make, replica):
        d = make()
        with pytest.raises(ParameterError, match="out of range"):
            d.query_batch_on(_reads(), replica)
        with pytest.raises(ParameterError, match="out of range"):
            d.crash_replica(replica)
        assert d.fault_stats.crash_hits == 0
        assert d.fault_stats.crashes == 0

    def test_unarmed_fault_hooks_refuse(self, make):
        d = make(armed=False)
        assert not d.armed
        with pytest.raises(HealError, match="not armed"):
            d.crash_replica(0)
        assert d.live_replicas() == list(range(R))

    def test_vote_tie_resolves_to_false(self, make):
        d = make()
        assert not d._vote([0, 1], lambda r: r == 0)
        assert d._vote([0, 1, 2], lambda r: r != 2)
        batch = d._vote(
            [0, 1], lambda r: np.array([True, r == 0]), shape=(2,)
        )
        assert batch.tolist() == [True, False]

    def test_abstentions_are_corrupted_reads(self, make):
        d = make()

        def read(r):
            if r == 1:
                raise ValueError("impossible decode")
            return r == 0

        # Replica 1 abstains; the remaining 1-1 split is a tie.
        assert not d._vote(range(R), read)
        assert d.fault_stats.corrupted_reads == 1

    def test_all_abstaining_is_exhaustion(self, make):
        d = make()

        def read(r):
            raise IndexError(r)

        with pytest.raises(FaultExhaustedError):
            d._vote(range(R), read)
        assert d.fault_stats.corrupted_reads == R
        assert d.fault_stats.exhausted == 1

    def test_voted_read_with_every_replica_crashed(self, make):
        d = make()
        x = int(_keys()[0])
        assert d.query(x, np.random.default_rng(0))
        for r in range(R):
            d.crash_replica(r)
        assert d.live_replicas() == []
        with pytest.raises(FaultExhaustedError):
            d.query(x, np.random.default_rng(0))
        assert d.fault_stats.exhausted == 1


class TestStaticChaosHooks:
    """Chaos hooks touch only the replica they name."""

    def test_stick_cells_stay_inside_the_named_replica(self):
        d = _static()
        inner = d.inner_cells
        for replica, cell in ((0, inner + 5), (0, -1), (1, inner)):
            with pytest.raises(ParameterError, match="outside"):
                d.stick_cells(replica, [cell], [7])
        for replica in (-1, R):
            with pytest.raises(ParameterError, match="out of range"):
                d.stick_cells(replica, [1], [7])
        assert d._injector.num_stuck == 0
        assert d.fault_stats.corruptions == 0
        d.stick_cells(2, [0, inner - 1], [7, 7])
        assert d._injector._stuck_cells.tolist() == [
            2 * inner, 3 * inner - 1
        ]
        assert d.fault_stats.corruptions == 2

    def test_corrupt_cell_and_revive_check_their_replica(self):
        d = _static()
        before = d.table._cells.copy()
        for replica, cell in ((0, d.inner_cells), (R, 0), (-1, 0)):
            with pytest.raises(ParameterError):
                d.corrupt_cell(replica, cell, 1)
        assert np.array_equal(d.table._cells, before)
        for replica in (-1, R, 99):
            with pytest.raises(ParameterError, match="out of range"):
                d.revive_replica(replica)
        assert d.fault_stats.rebuilds == 0
        d.crash_replica(1)
        d.revive_replica(1)
        assert d.live_replicas() == list(range(R))
        assert d.fault_stats.rebuilds == 1


def test_over_table_is_a_zero_copy_facade():
    inner = SortedArrayDictionary(_keys(), UNIVERSE)
    built = ReplicatedDictionary(inner, R)
    facade = ReplicatedDictionary.over_table(inner, R, built.table)
    assert facade.table is built.table
    assert facade.name == built.name
    assert not facade.armed
    xs = _reads()
    built.table.counter.reset()
    got = facade.query_batch_on(xs, 1, np.random.default_rng(4))
    assert np.array_equal(got, np.isin(xs, _keys()))
    loads = facade.replica_probe_loads()
    assert loads[1] > 0 and loads[0] == loads[2] == 0
    with pytest.raises(ParameterError):
        ReplicatedDictionary.over_table(inner, 0, built.table)
