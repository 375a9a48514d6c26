"""The logarithmic method (Bentley–Saxe) over signed entries.

A dynamic operation is an entry ``(key, is_insert)``; entries live in
levels of geometrically growing capacity, newest level first.  Each
non-empty level is backed by a *static* low-contention dictionary over
the encoded universe ``2N`` (``2k+1`` = "insert k", ``2k`` =
"delete k"), so the membership machinery — honest probes, plans, exact
contention — applies per level unchanged.

Level discipline (binary-counter carries):

- an operation is a one-entry unit; it merges with levels 0..j-1 where
  j is the first empty level, landing at level j;
- merges dedupe by key, newest entry winning;
- delete entries are dropped when the merge lands below every other
  non-empty level (nothing older remains for them to cancel);
- when accumulated dead weight makes total entries exceed twice the
  live count, everything is flattened into one level of pure inserts.

A key appears in at most one entry per level; the newest level
containing it determines its state.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.cellprobe.table import Table
from repro.core import LowContentionDictionary
from repro.dictionaries.base import StaticDictionary
from repro.errors import ParameterError, VerificationError
from repro.heal import charged_to
from repro.telemetry.events import BUS, RebuildEvent
from repro.utils.rng import as_generator


def encode_insert(key: int) -> int:
    """Encode an insert entry for key into the doubled universe."""
    return 2 * int(key) + 1


def encode_delete(key: int) -> int:
    """Encode a delete (tombstone) entry for key."""
    return 2 * int(key)


class SingletonDictionary(StaticDictionary):
    """A one-key static dictionary: the key replicated across a row.

    Queries probe one uniformly random cell — contention exactly 1/s,
    the flattest possible profile — so singleton levels never become
    hot spots.
    """

    name = "singleton"

    def __init__(self, keys, universe_size: int, rng=None, width: int = 64):
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        if self.keys.size != 1:
            raise ParameterError("SingletonDictionary stores exactly one key")
        self.table = Table(rows=1, s=int(width))
        self.table.write_row(
            0, np.full(int(width), int(self.keys[0]), dtype=np.uint64)
        )

    def query(self, x: int, rng=None) -> bool:
        x = self.check_key(x)
        rng = as_generator(rng)
        return self.table.read(0, int(rng.integers(0, self.table.s)), 0) == x

    def probe_plan(self, x):
        from repro.cellprobe.steps import UniformStrided

        self.check_key(x)
        return [UniformStrided(row=0, start=0, stride=1, count=self.table.s)]

    def probe_plan_batch(self, xs):
        from repro.cellprobe.steps import BatchStridedStep

        xs = np.asarray(xs, dtype=np.int64)
        batch = xs.shape[0]
        return [
            BatchStridedStep(
                row=0,
                starts=np.zeros(batch, dtype=np.int64),
                strides=np.ones(batch, dtype=np.int64),
                counts=np.full(batch, self.table.s, dtype=np.int64),
                shared=True,
            )
        ]

    @property
    def max_probes(self) -> int:
        return 1


@dataclasses.dataclass
class Level:
    """One level: its entries (key -> is_insert) and static structure.

    ``rebuild_counter`` (set only when rebuild verification is on) holds
    the probes the post-build canary sweep charged — the same
    :class:`~repro.cellprobe.counters.ProbeCounter` substrate as the
    query counter, but a *separate* instance, so the query counter's
    Binomial(Q, Φ_t) envelope statements stay clean.
    """

    index: int
    entries: dict  # key -> bool (True = insert)
    structure: StaticDictionary
    rebuild_counter: ProbeCounter | None = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def state_of(self, key: int) -> bool | None:
        """True/False if this level pins the key's state; None if absent."""
        return self.entries.get(int(key))

    def contains_encoded(self, encoded: int, rng) -> bool:
        """Honest probe-charged membership of an encoded entry."""
        return self.structure.query(encoded, rng)


class LevelStructure:
    """The level list plus merge/flatten logic (no probe accounting here;
    the structures inside levels do their own)."""

    def __init__(
        self,
        universe_size: int,
        rng=None,
        account=None,
        max_trials: int = 500,
        min_level_width: int = 0,
        verify_rebuilds: bool = False,
        verify_seed: int = 0,
        on_retire=None,
    ):
        self.universe_size = int(universe_size)
        self.encoded_universe = 2 * self.universe_size
        self.rng = as_generator(rng)
        self.levels: list[Level | None] = []
        # Number of live keys, kept current by apply() so the flatten
        # trigger never has to merge the levels to count them.
        self._live = 0
        self.account = account
        self.max_trials = max_trials
        # Pad every level's table to at least this many cells per row.
        # 0 = paper-pure sizing (s = beta * level size): small levels then
        # dominate query contention at ~1/level_size.  Setting this to
        # Theta(total live size) restores O(1/n) query contention at an
        # O(n log n) space cost — the dynamization trade-off E14 measures.
        self.min_level_width = int(min_level_width)
        # Canary-read every entry after each rebuild, charged to a
        # per-level rebuild counter (never the query counter).  The
        # sweep draws from its own seeded rng, so the construction rng
        # stream — and hence the built tables and the query counters —
        # are byte-identical whether verification is on or off.
        self.verify_rebuilds = bool(verify_rebuilds)
        self.verify_seed = int(verify_seed)
        self._installs = 0
        # Called with each Level just before it is unlinked (merge carry
        # or flatten) — the epoch manager's retirement hook.
        self.on_retire = on_retire
        # Telemetry labels, settable by the serving wrapper.
        self.shard = 0
        self.replica = 0

    # -- state queries (no probes; used for ground truth & merging) -----------------

    def state_of(self, key: int) -> bool:
        """Current membership of key: newest level containing it wins."""
        for level in self.levels:
            if level is not None:
                state = level.state_of(key)
                if state is not None:
                    return state
        return False

    def live_keys(self) -> list[int]:
        """All keys whose newest entry is an insert, sorted."""
        seen: dict[int, bool] = {}
        for level in self.levels:
            if level is None:
                continue
            for key, is_insert in level.entries.items():
                seen.setdefault(key, is_insert)
        return sorted(k for k, alive in seen.items() if alive)

    @property
    def live_count(self) -> int:
        """Number of live keys (``len(live_keys())``, kept in O(1))."""
        return self._live

    def replace_levels(self, levels) -> None:
        """Install a whole level list (crash wipe, restore); recount live keys.

        No level is handed to the retirement hook: the caller owns what
        it replaces.
        """
        self.levels = list(levels)
        self._live = len(self.live_keys())

    @property
    def total_entries(self) -> int:
        return sum(lv.size for lv in self.levels if lv is not None)

    @property
    def nonempty_levels(self) -> list[Level]:
        return [lv for lv in self.levels if lv is not None]

    # -- structure building ------------------------------------------------------------

    def _build_structure(self, entries: dict) -> StaticDictionary:
        encoded = [
            encode_insert(k) if ins else encode_delete(k)
            for k, ins in entries.items()
        ]
        if len(encoded) == 1:
            width = max(64, self.min_level_width)
            return SingletonDictionary(
                encoded, self.encoded_universe, self.rng, width=width
            )
        params = None
        if self.min_level_width > 2 * len(encoded):
            from repro.core import SchemeParameters

            params = SchemeParameters(
                n=len(encoded),
                beta=self.min_level_width / len(encoded),
            )
        return LowContentionDictionary(
            encoded, self.encoded_universe, rng=self.rng,
            params=params, max_trials=self.max_trials,
        )

    def _install(self, index: int, entries: dict) -> None:
        while len(self.levels) <= index:
            self.levels.append(None)
        structure = self._build_structure(entries)
        probes = 0
        rebuild_counter = None
        if self.verify_rebuilds:
            rebuild_counter = ProbeCounter(structure.table.num_cells)
            probes = self._verify_structure(structure, entries, rebuild_counter)
        self._installs += 1
        self.levels[index] = Level(
            index=index,
            entries=entries,
            structure=structure,
            rebuild_counter=rebuild_counter,
        )
        if self.account is not None:
            self.account.record_rebuild(
                level=index,
                entries=len(entries),
                cells_written=structure.table.num_cells,
                probes=probes,
            )
        if BUS.active:
            BUS.emit(RebuildEvent(
                shard=self.shard,
                replica=self.replica,
                level=index,
                entries=len(entries),
                cells=structure.table.num_cells,
                probes=probes,
            ))

    def _verify_structure(
        self, structure: StaticDictionary, entries: dict, counter: ProbeCounter
    ) -> int:
        """Canary-read every encoded entry through the real query path.

        All probes are rerouted to ``counter`` via
        :func:`repro.heal.charged_to`; the rng is seeded from
        ``(verify_seed, install_sequence)`` so the sweep is deterministic
        and independent of the construction stream.
        """
        verify_rng = np.random.default_rng((self.verify_seed, self._installs))
        with charged_to(structure.table, counter):
            for k, ins in entries.items():
                encoded = encode_insert(k) if ins else encode_delete(k)
                if not structure.query(encoded, verify_rng):
                    raise VerificationError(encoded, False, True)
        return counter.total_probes()

    def _retire(self, level: Level | None) -> None:
        """Hand a level being unlinked to the retirement hook, if any."""
        if level is not None and self.on_retire is not None:
            self.on_retire(level)

    # -- the update path ---------------------------------------------------------------

    def apply(self, key: int, is_insert: bool) -> None:
        """Apply one operation via binary-counter carrying."""
        key = int(key)
        if not 0 <= key < self.universe_size:
            raise ParameterError(f"key {key} outside universe")
        # The key ends up in state is_insert; every other key keeps its own.
        self._live += int(is_insert) - int(self.state_of(key))
        # Find the first empty level; merge everything newer into it.
        j = 0
        while j < len(self.levels) and self.levels[j] is not None:
            j += 1
        merged: dict[int, bool] = {key: is_insert}  # newest wins: seed first
        for i in range(j):
            for k, ins in self.levels[i].entries.items():
                merged.setdefault(k, ins)
            self._retire(self.levels[i])
            self.levels[i] = None
        # Drop deletes when nothing older remains.
        nothing_older = all(
            self.levels[i] is None for i in range(j + 1, len(self.levels))
        )
        if nothing_older:
            merged = {k: ins for k, ins in merged.items() if ins}
        if merged:
            self._install(j, merged)
        self._maybe_flatten()

    def _maybe_flatten(self) -> None:
        total = self.total_entries
        if total >= 8 and total > 2 * max(self._live, 1):
            live = self.live_keys()
            for i in range(len(self.levels)):
                self._retire(self.levels[i])
                self.levels[i] = None
            if live:
                # Land the flattened set at the level matching its size,
                # keeping the capacity discipline (level j holds ~2^j).
                index = max(0, int(np.ceil(np.log2(len(live)))))
                self._install(index, {k: True for k in live})
