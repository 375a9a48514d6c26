"""Cell scrubbing and replica rebuild: the repair half of self-healing.

The paper's model keeps probe accounting *exact*: only query-time reads
are charged, each to the cell it touched (DESIGN.md conventions).  A
self-healing layer must do real read work — scanning cells, voting
across replicas, reconstructing a crashed replica — without polluting
the query-path :class:`~repro.cellprobe.counters.ProbeCounter` that the
Binomial(Q, Φ_t) envelope and the E15 Θ(1/R) price are stated over.

The rules, enforced here:

- All repair-path reads go through ``peek_row`` (uncharged by
  construction) and are then charged **explicitly, cell by cell, to a
  separate repair counter** — the same :class:`ProbeCounter` substrate,
  same cell geometry, mergeable into any other counter for a
  whole-system accounting.  Repair work is measurable, never hidden,
  and never attributed to queries.
- Canary queries run the *real* query algorithm but with the table's
  counter temporarily swapped to the repair counter via
  :func:`charged_to` — charging flows through ``Table.read``'s live
  ``counter`` attribute, so the swap reroutes every probe of the
  execution and nothing else.
- Repair *writes* go through ``Table.write``/``write_row`` and are
  tallied as construction work (``table.writes``), exactly like the
  offline build they re-do.

Corruption detection is cross-replica majority vote: reading one inner
row across ``V >= 3`` trusted replicas and sorting the stack column-wise
(a compare-exchange network, :func:`_majority`) puts the majority value
at the middle element whenever a strict
majority agrees — deviants are repaired in place.  A cell that diverges
*again* after being repaired is physically stuck-at (the damage is in
the read path, not the stored word), is recorded in
:attr:`CellScrubber.stuck`, and its replica must be quarantined for
good: no amount of rewriting fixes a stuck cell.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.errors import HealError

__all__ = [
    "CellScrubber",
    "HealStats",
    "ReplicaRebuilder",
    "ScrubReport",
    "charged_to",
]


@contextmanager
def charged_to(table, counter: ProbeCounter):
    """Temporarily charge every probe of ``table`` to ``counter``.

    ``Table.read``/``read_batch`` record through the table's live
    ``counter`` attribute, so swapping it reroutes the full probe stream
    of anything executed inside the block (canary queries, verification
    reads) to the repair counter — and restores the query-path counter
    on exit no matter what.
    """
    if counter.num_cells != table.num_cells:
        raise HealError(
            f"repair counter tracks {counter.num_cells} cells, "
            f"table has {table.num_cells}"
        )
    original = table.counter
    table.counter = counter
    try:
        yield counter
    finally:
        table.counter = original


@dataclasses.dataclass
class ScrubReport:
    """What one scrub/rebuild increment did (all lists of ``(replica, inner_flat)``)."""

    rows_scanned: int = 0
    cells_scanned: int = 0
    probes: int = 0
    repaired: list = dataclasses.field(default_factory=list)
    stuck: list = dataclasses.field(default_factory=list)
    #: For targeted scans: whether the full pass over the target completed.
    done: bool = False


@dataclasses.dataclass
class HealStats:
    """Aggregate healing work, reported by the health manager."""

    cells_scanned: int = 0
    cells_repaired: int = 0
    stuck_cells: int = 0
    rows_rebuilt: int = 0
    rebuilds: int = 0
    canary_queries: int = 0
    canary_probes: int = 0
    canary_failures: int = 0
    quarantines: int = 0
    repair_probes: int = 0

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        return dataclasses.asdict(self)


def _peek_and_charge(dictionary, counter: ProbeCounter, replicas, inner_row):
    """Read one inner row across ``replicas``; charge one repair probe per cell.

    Returns the ``(len(replicas), s)`` value stack.  Reads go through the
    dictionary's fault-aware read table, so persistent stuck-at damage is
    visible (transient flip noise is not re-rolled — scrub hunts physical
    damage, not read noise).
    """
    table = dictionary._read_table
    s = dictionary.table.s
    outer = np.array(
        [dictionary.replica_row(r, inner_row) for r in replicas], dtype=np.int64
    )
    stack = np.empty((len(replicas), s), dtype=np.uint64)
    for i, row in enumerate(outer):
        stack[i] = table.peek_row(int(row))
    counter.record_batch(
        0, (outer[:, None] * s + np.arange(s, dtype=np.int64)).ravel()
    )
    return stack


def _majority(stack: np.ndarray) -> np.ndarray:
    """Column-wise middle value of a ``(V, s)`` stack.

    Equal to ``np.sort(stack, axis=0)[V // 2]`` for every V and every
    column, computed by an odd-even transposition network of element-wise
    ``minimum``/``maximum`` compare-exchanges (V rounds sort V rows) —
    an order of magnitude cheaper than sorting along axis 0.  The middle
    element is the majority value whenever a strict majority of the V
    rows agree — the only regime the vote is guaranteed in.
    """
    rows = list(stack)
    v = len(rows)
    for phase in range(v):
        for i in range(phase % 2, v - 1, 2):
            rows[i], rows[i + 1] = (
                np.minimum(rows[i], rows[i + 1]),
                np.maximum(rows[i], rows[i + 1]),
            )
    return rows[v // 2].copy()


class CellScrubber:
    """Walks cells in bounded increments, votes across replicas, repairs.

    Two scan modes share one repair ledger:

    - :meth:`scrub_chunk` — the *background* scan: every trusted replica
      is read and voted, deviants on any of them repaired in place.
      Advances a wrapping row cursor by ``rows_per_chunk`` per call, so
      each call does O(rows_per_chunk * V * s) bounded work.
    - :meth:`scrub_replica` — the *targeted* scan of one quarantined
      replica against trusted voters; a full pass (``done=True``) means
      every repairable divergence on it has been repaired.

    A cell repaired once that diverges again is **stuck** (physical
    read-path damage): it joins :attr:`stuck`, is never rewritten again,
    and its replica should be quarantined for good.
    """

    def __init__(
        self,
        dictionary,
        counter: ProbeCounter,
        rows_per_chunk: int = 4,
        max_repairs: int = 1,
    ):
        if counter.num_cells != dictionary.table.num_cells:
            raise HealError(
                f"repair counter tracks {counter.num_cells} cells, "
                f"dictionary table has {dictionary.table.num_cells}"
            )
        if rows_per_chunk < 1:
            raise HealError("rows_per_chunk must be >= 1")
        self.dictionary = dictionary
        self.counter = counter
        self.rows_per_chunk = int(rows_per_chunk)
        self.max_repairs = int(max_repairs)
        self._cursor = 0
        self._target_cursors: dict[int, int] = {}
        self.full_passes = 0
        self._repair_counts: dict[tuple[int, int], int] = {}
        #: ``(replica, inner_flat)`` cells diagnosed stuck-at (incorrigible).
        self.stuck: set[tuple[int, int]] = set()

    @property
    def inner_rows(self) -> int:
        return self.dictionary.inner_rows

    @property
    def s(self) -> int:
        return self.dictionary.table.s

    def replica_has_stuck(self, replica: int) -> bool:
        """Whether any cell of ``replica`` has been diagnosed stuck."""
        return any(r == int(replica) for r, _ in self.stuck)

    def _scrub_row(self, inner_row, voters, targets, report: ScrubReport):
        replicas = list(dict.fromkeys(list(voters) + list(targets)))
        stack = _peek_and_charge(
            self.dictionary, self.counter, replicas, inner_row
        )
        report.rows_scanned += 1
        report.cells_scanned += int(stack.size)
        report.probes += int(stack.size)
        vidx = [replicas.index(r) for r in voters]
        maj = _majority(stack[vidx])
        for i, r in enumerate(replicas):
            deviant = np.nonzero(stack[i] != maj)[0]
            for col in deviant:
                key = (int(r), inner_row * self.s + int(col))
                if key in self.stuck:
                    continue
                repaired_before = self._repair_counts.get(key, 0)
                if repaired_before >= self.max_repairs:
                    # Rewritten already and diverged again: the damage is
                    # in the read path, not the stored word — stuck-at.
                    self.stuck.add(key)
                    report.stuck.append(key)
                    continue
                self.dictionary.table.write(
                    self.dictionary.replica_row(r, inner_row),
                    int(col),
                    int(maj[int(col)]),
                )
                self._repair_counts[key] = repaired_before + 1
                report.repaired.append(key)

    def scrub_chunk(self, voters) -> ScrubReport:
        """Advance the background scan by one bounded increment.

        ``voters`` are the currently-trusted replicas; with fewer than 3
        the vote cannot attribute a deviant and the call is a no-op
        (healing resumes once enough replicas are trusted again).
        """
        report = ScrubReport()
        voters = sorted({int(r) for r in voters})
        if len(voters) < 3:
            return report
        for _ in range(min(self.rows_per_chunk, self.inner_rows)):
            self._scrub_row(self._cursor, voters, [], report)
            self._cursor += 1
            if self._cursor >= self.inner_rows:
                self._cursor = 0
                self.full_passes += 1
        return report

    def scrub_replica(self, replica, voters) -> ScrubReport:
        """Advance the targeted scan of one quarantined ``replica``.

        Reads the target alongside ``voters`` (target excluded from the
        vote), repairing its deviants; ``done=True`` once the pass covers
        every row, after which the caller should canary the replica.
        """
        replica = int(replica)
        voters = sorted({int(r) for r in voters} - {replica})
        if len(voters) < 3:
            raise HealError(
                f"targeted scrub of replica {replica} needs >= 3 trusted "
                f"voters, have {len(voters)}"
            )
        report = ScrubReport()
        cursor = self._target_cursors.get(replica, 0)
        end = min(cursor + self.rows_per_chunk, self.inner_rows)
        while cursor < end:
            self._scrub_row(cursor, voters, [replica], report)
            cursor += 1
        if cursor >= self.inner_rows:
            report.done = True
            self._target_cursors[replica] = 0
        else:
            self._target_cursors[replica] = cursor
        return report


class ReplicaRebuilder:
    """Reconstructs a crashed replica's rows from surviving majorities.

    One rebuild at a time: :meth:`start` pins the target, each
    :meth:`step` rewrites ``rows_per_chunk`` rows from the column-wise
    majority of the source replicas (every source read charged to the
    repair counter) and returns True once the last row is written.  The
    vote is guaranteed correct when a strict majority of the sources is
    healthy; the caller's canary gate protects re-admission either way.
    """

    def __init__(self, dictionary, counter: ProbeCounter, rows_per_chunk: int = 16):
        if counter.num_cells != dictionary.table.num_cells:
            raise HealError(
                f"repair counter tracks {counter.num_cells} cells, "
                f"dictionary table has {dictionary.table.num_cells}"
            )
        if rows_per_chunk < 1:
            raise HealError("rows_per_chunk must be >= 1")
        self.dictionary = dictionary
        self.counter = counter
        self.rows_per_chunk = int(rows_per_chunk)
        self.target: int | None = None
        self._cursor = 0
        self.rows_rebuilt = 0
        self.rebuilds_started = 0
        self.rebuilds_completed = 0

    @property
    def active(self) -> bool:
        """Whether a rebuild is in progress."""
        return self.target is not None

    def start(self, replica: int) -> None:
        """Begin rebuilding ``replica`` from row 0."""
        replica = int(replica)
        if self.target is not None and self.target != replica:
            raise HealError(
                f"rebuild of replica {self.target} already in progress"
            )
        if self.target != replica:
            self.rebuilds_started += 1
        self.target = replica
        self._cursor = 0

    def step(self, sources) -> bool:
        """Rebuild up to ``rows_per_chunk`` rows; True when complete."""
        if self.target is None:
            raise HealError("no rebuild in progress")
        sources = sorted({int(r) for r in sources} - {self.target})
        if not sources:
            raise HealError(
                f"rebuild of replica {self.target} has no surviving sources"
            )
        d = self.dictionary
        end = min(self._cursor + self.rows_per_chunk, d.inner_rows)
        while self._cursor < end:
            stack = _peek_and_charge(d, self.counter, sources, self._cursor)
            d.table.write_row(
                d.replica_row(self.target, self._cursor), _majority(stack)
            )
            self.rows_rebuilt += 1
            self._cursor += 1
        if self._cursor >= d.inner_rows:
            self.rebuilds_completed += 1
            return True
        return False

    def finish(self) -> None:
        """Release the target (after completion or abandonment)."""
        self.target = None
        self._cursor = 0
