"""The cell-probe table: ``rows × s`` cells of b-bit words, with accounting.

In the static cell-probe model the table is prepared offline (writes are
free); only query-time *reads* are probes and are charged to the
:class:`~repro.cellprobe.counters.ProbeCounter`.  Cells hold unsigned
values below ``2**64``; the reserved sentinel :data:`EMPTY_CELL` marks
unowned / vacant cells (it is outside every universe we allow, since
universes are capped at ``2**62``).
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.errors import TableError
from repro.telemetry.events import BUS, ProbeEvent
from repro.utils.validation import check_positive_integer

#: Sentinel stored in vacant cells; outside any permitted universe.
EMPTY_CELL = (1 << 64) - 1

#: Cell width in bits (DESIGN.md conventions; b = 64 >= log2 N).
CELL_BITS = 64


class Table:
    """An instrumented cell-probe memory of shape ``(rows, s)``.

    Parameters
    ----------
    rows:
        Number of rows; the schemes in this library use one probe per row.
    s:
        Number of cells per row (the paper's table size parameter).
    counter:
        Optional shared :class:`ProbeCounter`; a fresh one is created if
        omitted.
    """

    def __init__(self, rows: int, s: int, counter: ProbeCounter | None = None):
        self.rows = check_positive_integer("rows", rows)
        self.s = check_positive_integer("s", s)
        self._cells = np.full((self.rows, self.s), EMPTY_CELL, dtype=np.uint64)
        #: Cells written during construction — a deterministic proxy for
        #: construction work (writes are free in the model but O(build time)).
        self.writes = 0
        self.counter = counter if counter is not None else ProbeCounter(self.rows * self.s)
        if self.counter.num_cells != self.rows * self.s:
            raise TableError(
                f"counter tracks {self.counter.num_cells} cells, table has "
                f"{self.rows * self.s}"
            )

    # -- construction-time access (free) ------------------------------------

    def write(self, row: int, column: int, value: int) -> None:
        """Store ``value`` (a b-bit word) during construction; not a probe."""
        self._check(row, column)
        if not 0 <= value < (1 << CELL_BITS):
            raise TableError(f"value {value} does not fit a {CELL_BITS}-bit cell")
        self._cells[row, column] = value
        self.writes += 1

    def write_row(self, row: int, values: np.ndarray) -> None:
        """Bulk-store an entire row during construction; not a probe."""
        if not 0 <= row < self.rows:
            raise TableError(f"row {row} out of range [0, {self.rows})")
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (self.s,):
            raise TableError(f"row must have shape ({self.s},), got {values.shape}")
        self._cells[row, :] = values
        self.writes += self.s

    def peek(self, row: int, column: int) -> int:
        """Read without charging a probe (analysis / debugging only)."""
        self._check(row, column)
        return int(self._cells[row, column])

    def peek_row(self, row: int) -> np.ndarray:
        """Copy an entire row without charging probes (scrub/rebuild I/O).

        The healing layer charges its own repair counter explicitly per
        cell, so the raw read must stay off the query-path counter.
        """
        if not 0 <= row < self.rows:
            raise TableError(f"row {row} out of range [0, {self.rows})")
        return self._cells[row].copy()

    # -- query-time access (charged) -----------------------------------------

    def read(self, row: int, column: int, step: int) -> int:
        """Probe cell ``(row, column)`` at query step ``step`` and return it.

        The probe is charged to the table's counter under step index
        ``step`` (0-based), realizing one sample of ``Y^(t)(x, j)``.
        """
        self._check(row, column)
        self.counter.record(step, row * self.s + column)
        if BUS.active:
            BUS.emit(ProbeEvent(step=step, probes=1))
        return int(self._cells[row, column])

    def read_batch(
        self, rows: np.ndarray | int, columns: np.ndarray, step: int
    ) -> np.ndarray:
        """Probe many cells at one or more query steps and return their values.

        ``rows`` broadcasts against ``columns`` (pass a scalar row to probe
        one row at many columns).  A 1-D ``columns`` probes at ``step``; a
        2-D one of shape ``(k, batch)`` (with ``rows`` shaped ``(k, 1)``)
        probes its row ``i`` at step ``step + i`` — k consecutive steps
        fused into one bounds check, one gather and one
        :meth:`ProbeCounter.record_batch`, charged exactly as k 1-D calls.
        Entries with ``column < 0`` are *skipped*: no probe is charged and
        :data:`EMPTY_CELL` is returned in their place — this is how batched
        query algorithms express per-key steps that the scalar algorithm
        would not execute (e.g. a second cuckoo probe after a first-table
        hit).  With the bus active, one :class:`ProbeEvent` is emitted per
        step, in step order.
        """
        columns = np.asarray(columns, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        rows_arr = np.broadcast_to(rows, columns.shape)
        active = columns >= 0
        all_active = bool(active.all())
        if all_active:
            r_act, c_act = rows, columns
        else:
            r_act, c_act = rows_arr[active], columns[active]
        if c_act.size and (
            int(r_act.min()) < 0
            or int(r_act.max()) >= self.rows
            or int(c_act.max()) >= self.s
        ):
            raise TableError(
                f"batch probe out of range for table "
                f"({self.rows} rows x {self.s} cells)"
            )
        flat = rows_arr * self.s + columns
        if not all_active:
            flat = np.where(active, flat, -1)
        self.counter.record_batch(step, flat)
        if BUS.active:
            steps = active if active.ndim == 2 else active.reshape(1, -1)
            for i, hits in enumerate(steps):
                BUS.emit(ProbeEvent(
                    step=step + i, probes=int(np.count_nonzero(hits))
                ))
        out = self._cells.take(flat)
        if all_active:
            return out
        return np.where(active, out, np.uint64(EMPTY_CELL))

    # -- misc ------------------------------------------------------------------

    def flat_index(self, row: int, column: int) -> int:
        """Flat cell index used by counters and the contention engine."""
        self._check(row, column)
        return row * self.s + column

    @property
    def num_cells(self) -> int:
        """Total number of cells (the paper's space in words)."""
        return self.rows * self.s

    def occupancy(self) -> float:
        """Fraction of cells not holding :data:`EMPTY_CELL`."""
        return float(np.count_nonzero(self._cells != EMPTY_CELL)) / self.num_cells

    def _check(self, row: int, column: int) -> None:
        if not (0 <= row < self.rows and 0 <= column < self.s):
            raise TableError(
                f"cell ({row}, {column}) out of range for table "
                f"({self.rows} rows x {self.s} cells)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table(rows={self.rows}, s={self.s}, occupancy={self.occupancy():.3f})"
