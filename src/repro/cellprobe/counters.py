"""Per-cell, per-step probe accounting.

:class:`ProbeCounter` is the empirical side of Definition 1: after running
``E`` query executions, ``counter.contention_per_step() / E`` estimates
the per-step contention matrix ``Phi_t(j)`` and
``counter.total_contention() / E`` estimates the total contention
``Phi(j) = sum_t Phi_t(j)``.  The exact analytic counterpart lives in
:mod:`repro.contention.exact`; tests check the two converge.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ParameterError
from repro.telemetry.events import BUS, ExecutionEvent
from repro.utils.validation import check_positive_integer


class ProbeCounter:
    """Counts probes to each flat cell index, stratified by query step.

    Step arrays are allocated lazily: most schemes probe a bounded number
    of steps, but the counter does not need to know the bound up front.
    A running total is kept beside them, so :meth:`total_probes` is O(1)
    and a per-dispatch delta never re-sums the step arrays.
    """

    def __init__(self, num_cells: int):
        self.num_cells = check_positive_integer("num_cells", num_cells)
        self._per_step: list[np.ndarray] = []
        self._total = 0
        self.executions = 0

    @classmethod
    def from_counts(
        cls, num_cells: int, per_step, executions: int = 0
    ) -> "ProbeCounter":
        """A counter holding copies of ``per_step`` rows and ``executions``."""
        out = cls(num_cells)
        out._per_step = [
            np.array(row, dtype=np.int64, copy=True) for row in per_step
        ]
        out._total = int(sum(int(row.sum()) for row in out._per_step))
        out.executions = int(executions)
        return out

    def __setstate__(self, state: dict) -> None:
        # Counters pickled before the running total existed (inside older
        # checkpoints) carry only their step rows; rebuild the total.
        self.__dict__.update(state)
        if "_total" not in state:
            self._total = int(sum(int(row.sum()) for row in self._per_step))

    def _grow_to(self, step: int) -> None:
        """Allocate every step row up to and including ``step``."""
        while len(self._per_step) <= step:
            self._per_step.append(np.zeros(self.num_cells, dtype=np.int64))

    # -- recording -------------------------------------------------------------

    def record(self, step: int, flat_cell: int) -> None:
        """Record one probe of ``flat_cell`` at 0-based query ``step``."""
        if step < 0:
            raise ParameterError("step must be non-negative")
        if not 0 <= flat_cell < self.num_cells:
            raise ParameterError(
                f"cell {flat_cell} out of range [0, {self.num_cells})"
            )
        self._grow_to(step)
        self._per_step[step][flat_cell] += 1
        self._total += 1

    def record_batch(self, step: int, flat_cells: np.ndarray) -> None:
        """Record one probe per non-negative entry of ``flat_cells``.

        A 1-D ``flat_cells`` is charged at ``step``; a 2-D one of shape
        ``(k, batch)`` charges its row ``i`` at ``step + i`` (k
        consecutive steps in one call).  Step rows up to the last one
        named are allocated even when all of their entries are skipped.

        Negative entries are *skipped entirely*: they charge no probe to
        any cell and they do not advance :attr:`executions` (only
        :meth:`finish_execution` ever does).  This is the contract the
        batched query algorithms rely on to express per-key steps the
        scalar algorithm would not execute, and it is pinned by an
        explicit test (``tests/test_cellprobe_counters.py``).
        """
        if step < 0:
            raise ParameterError("step must be non-negative")
        flat_cells = np.asarray(flat_cells, dtype=np.int64)
        if flat_cells.ndim != 2:
            flat_cells = flat_cells.reshape(1, -1)
        if flat_cells.size and int(flat_cells.max()) >= self.num_cells:
            raise ParameterError("cell index out of range in batch")
        skips = bool(flat_cells.size) and int(flat_cells.min()) < 0
        self._grow_to(step + flat_cells.shape[0] - 1)
        for i, row in enumerate(flat_cells):
            if skips:
                row = row[row >= 0]
            np.add.at(self._per_step[step + i], row, 1)
            self._total += row.size

    def finish_execution(self, count: int = 1) -> None:
        """Mark ``count`` completed query executions (the normalizer)."""
        if count < 1:
            raise ParameterError("count must be positive")
        self.executions += count
        if BUS.active:
            BUS.emit(ExecutionEvent(count=count))

    def merge(self, other: "ProbeCounter") -> "ProbeCounter":
        """Fold another counter's tallies into this one (in place).

        Per-worker counters (e.g. one per parallel experiment shard or
        per replica view) can be combined into a single global counter:
        per-step count matrices add element-wise (the shorter counter's
        missing steps count as zero) and execution counts add.  Both
        counters must track the same number of cells.  Returns ``self``
        for chaining.
        """
        if not isinstance(other, ProbeCounter):
            raise ParameterError(
                f"can only merge ProbeCounter, got {type(other).__name__}"
            )
        if other.num_cells != self.num_cells:
            raise ParameterError(
                f"cannot merge counter over {other.num_cells} cells into "
                f"one over {self.num_cells}"
            )
        self._grow_to(len(other._per_step) - 1)
        for step, counts in enumerate(other._per_step):
            self._per_step[step] += counts
        self._total += other._total
        self.executions += other.executions
        return self

    # -- reading ----------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Number of distinct step indices recorded so far."""
        return len(self._per_step)

    def counts_per_step(self) -> np.ndarray:
        """Raw counts, shape ``(num_steps, num_cells)`` (a copy)."""
        if not self._per_step:
            return np.zeros((0, self.num_cells), dtype=np.int64)
        return np.stack(self._per_step)

    def total_counts(self) -> np.ndarray:
        """Raw probe counts summed over steps, shape ``(num_cells,)``."""
        if not self._per_step:
            return np.zeros(self.num_cells, dtype=np.int64)
        return np.sum(self._per_step, axis=0)

    def contention_per_step(self) -> np.ndarray:
        """Empirical ``Phi_t(j)``: counts / executions, per step and cell."""
        if self.executions == 0:
            raise ParameterError("no executions recorded yet")
        return self.counts_per_step() / float(self.executions)

    def total_contention(self) -> np.ndarray:
        """Empirical total contention ``Phi(j) = sum_t Phi_t(j)``."""
        if self.executions == 0:
            raise ParameterError("no executions recorded yet")
        return self.total_counts() / float(self.executions)

    def max_contention(self) -> float:
        """``max_j Phi(j)`` — the headline quantity of the paper."""
        return float(self.total_contention().max(initial=0.0))

    def max_step_contention(self) -> float:
        """``max_{t,j} Phi_t(j)`` — the balanced-scheme bound (Def. 2)."""
        per = self.contention_per_step()
        return float(per.max(initial=0.0)) if per.size else 0.0

    def total_probes(self) -> int:
        """Total probes recorded across all steps and cells (O(1))."""
        return self._total

    def digest(self) -> str:
        """SHA-256 over the exact accounting state (steps, counts, E).

        Two counters digest equally iff their per-step count matrices
        and execution counts are byte-identical — the comparison the
        E20/E21 "observation changes nothing" gates are stated in.
        """
        h = hashlib.sha256()
        h.update(f"{self.num_cells}:{self.executions}:".encode())
        for counts in self._per_step:
            h.update(counts.tobytes())
        return h.hexdigest()

    def reset(self) -> None:
        """Clear all counts and the execution counter."""
        self._per_step = []
        self._total = 0
        self.executions = 0
