"""The dynamic low-contention dictionary facade.

Queries walk levels newest-first and ask each level's *static*
low-contention dictionary two honest membership questions — "is there
an insert entry for x?" then "a delete entry?" — stopping at the first
level that pins the key's state.  Probe cost is thus at most
``2 * levels * t_static``; query contention is dominated by the
smallest non-empty level (its table is the smallest s, so its floor
1/s is the highest).  Updates pay amortized O(log U) static rebuilds
(binary-counter carries) plus occasional flattening; all rebuild work
and write contention is recorded in an
:class:`~repro.dynamic.accounting.UpdateCostAccount`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.distributions.base import QueryDistribution
from repro.dynamic.accounting import UpdateCostAccount
from repro.dynamic.levels import LevelStructure, encode_delete, encode_insert
from repro.errors import ParameterError, QueryError
from repro.utils.rng import as_generator


class DynamicLowContentionDictionary:
    """Insert/delete/query membership with low-contention lookups."""

    name = "dynamic-low-contention"

    def __init__(
        self,
        universe_size: int,
        rng=None,
        max_trials: int = 500,
        min_level_width: int = 0,
        verify_rebuilds: bool = False,
        verify_seed: int = 0,
        on_retire=None,
    ):
        self.universe_size = int(universe_size)
        self.rng = as_generator(rng)
        self.account = UpdateCostAccount()
        self._levels = LevelStructure(
            self.universe_size, self.rng, self.account, max_trials,
            min_level_width=min_level_width,
            verify_rebuilds=verify_rebuilds,
            verify_seed=verify_seed,
            on_retire=on_retire,
        )

    # -- updates ---------------------------------------------------------------------

    def _check_update_key(self, key: int) -> int:
        key = int(key)
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                f"key {key} outside universe [0, {self.universe_size})"
            )
        return key

    def insert(self, key: int) -> None:
        """Insert ``key`` (idempotent)."""
        key = self._check_update_key(key)
        self.account.record_update()
        if not self._levels.state_of(key):
            self._levels.apply(key, True)

    def delete(self, key: int) -> None:
        """Delete ``key`` (no-op when absent)."""
        key = self._check_update_key(key)
        self.account.record_update()
        if self._levels.state_of(key):
            self._levels.apply(key, False)

    # -- queries ---------------------------------------------------------------------

    def _check_key(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.universe_size:
            raise QueryError(
                f"query {x} outside universe [0, {self.universe_size})"
            )
        return x

    def _check_keys_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and (
            int(xs.min()) < 0 or int(xs.max()) >= self.universe_size
        ):
            bad = xs[(xs < 0) | (xs >= self.universe_size)][0]
            raise QueryError(
                f"query {int(bad)} outside universe [0, {self.universe_size})"
            )
        return xs

    def query(self, x: int, rng=None) -> bool:
        """Honest membership query: charged probes on every level visited."""
        x = self._check_key(x)
        rng = as_generator(rng)
        self.account.record_query()
        for level in self._levels.levels:
            if level is None:
                continue
            if level.contains_encoded(encode_insert(x), rng):
                return True
            if level.contains_encoded(encode_delete(x), rng):
                return False
        return False

    def query_batch(self, xs, rng=None) -> np.ndarray:
        """Honest membership queries for a whole batch, vectorized.

        Walks levels newest-first like :meth:`query`, but asks each
        level its two encoded questions for *all still-undecided* keys
        at once through the static structures' ``query_batch``
        machinery.  The short-circuit discipline is preserved exactly:
        a key decided at a newer level is never probed at an older one,
        so per-level probe **totals** match the scalar path (per-cell
        placement differs only by rng draw order).
        """
        xs = self._check_keys_batch(xs)
        rng = as_generator(rng)
        flat = xs.ravel()
        for _ in range(flat.size):
            self.account.record_query()
        answers = np.zeros(flat.shape, dtype=bool)
        undecided = np.ones(flat.shape, dtype=bool)
        for level in self._levels.levels:
            if level is None:
                continue
            idx = np.nonzero(undecided)[0]
            if idx.size == 0:
                break
            pending = flat[idx]
            ins_hit = level.structure.query_batch(
                2 * pending + 1, rng
            )
            hit_idx = idx[ins_hit]
            answers[hit_idx] = True
            undecided[hit_idx] = False
            miss_idx = idx[~ins_hit]
            if miss_idx.size:
                del_hit = level.structure.query_batch(
                    2 * flat[miss_idx], rng
                )
                # A delete entry pins the key's state to False.
                undecided[miss_idx[del_hit]] = False
        return answers.reshape(xs.shape)

    def contains(self, x: int) -> bool:
        """Ground truth (no probes)."""
        return self._levels.state_of(self._check_key(x))

    def contains_batch(self, xs) -> np.ndarray:
        """Vectorized ground-truth membership (no probes)."""
        xs = self._check_keys_batch(xs)
        return np.isin(xs, self.live_keys())

    # -- structure introspection --------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of live keys (O(1); no probes)."""
        return self._levels.live_count

    def live_keys(self) -> np.ndarray:
        """The current key set, sorted (ground truth; no probes)."""
        return np.asarray(self._levels.live_keys(), dtype=np.int64)

    @property
    def level_sizes(self) -> list[int]:
        return [
            (lv.size if lv is not None else 0) for lv in self._levels.levels
        ]

    @property
    def space_words(self) -> int:
        return sum(
            lv.structure.table.num_cells
            for lv in self._levels.nonempty_levels
        )

    @property
    def max_probes(self) -> int:
        return sum(
            2 * lv.structure.max_probes for lv in self._levels.nonempty_levels
        )

    @property
    def rebuild_probes(self) -> int:
        """Verification probes charged to rebuild counters (never queries)."""
        return self.account.rebuild_probes

    def query_counter_digest(self) -> str:
        """SHA-256 over the query counters of all non-empty levels, in order.

        Rebuild-verification probes are charged to separate rebuild
        counters, so this digest is byte-identical between a
        ``verify_rebuilds=True`` run and a plain run of the same seeded
        stream — the accounting-isolation check E24 gates on.
        """
        h = hashlib.sha256()
        for lv in self._levels.nonempty_levels:
            h.update(lv.index.to_bytes(4, "little"))
            h.update(lv.structure.table.counter.digest().encode("ascii"))
        return h.hexdigest()

    # -- contention measurement -----------------------------------------------------------

    def empirical_query_contention(
        self,
        distribution: QueryDistribution,
        num_queries: int,
        rng=None,
    ) -> dict:
        """Run ``num_queries`` honest queries; report read contention.

        Returns per-level and global maxima of (probes to a cell) /
        (number of queries) — the dynamic analogue of E1's measurement —
        plus the observed mean probe count.
        """
        rng = as_generator(rng)
        levels = self._levels.nonempty_levels
        for lv in levels:
            lv.structure.table.counter.reset()
        xs = np.asarray(distribution.sample(rng, num_queries), dtype=np.int64)
        answers = self.query_batch(xs, rng)
        truth = np.isin(xs, self.live_keys())
        if np.any(answers != truth):
            bad = int(xs[answers != truth][0])
            raise QueryError(
                f"dynamic query({bad}) = {bool(answers[answers != truth][0])}, "
                f"ground truth {bool(truth[xs == bad][0])}"
            )
        per_level = []
        total_probes = 0
        global_max = 0.0
        for lv in levels:
            counter = lv.structure.table.counter
            counts = counter.total_counts()
            total_probes += int(counts.sum())
            level_max = float(counts.max(initial=0)) / num_queries
            global_max = max(global_max, level_max)
            per_level.append(
                {
                    "level": lv.index,
                    "entries": lv.size,
                    "s": lv.structure.table.s,
                    "max_contention": level_max,
                    "floor_1_over_s": 1.0 / lv.structure.table.s,
                }
            )
            counter.reset()
        return {
            "global_max_contention": global_max,
            "mean_probes": total_probes / num_queries,
            "per_level": per_level,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicLowContentionDictionary(live={self.live_count}, "
            f"levels={self.level_sizes}, space={self.space_words}w)"
        )
