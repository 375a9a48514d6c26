"""The low-contention dictionary facade and its query algorithm (§2.3).

The query for x proceeds in four phases, every random choice uniform
over its replica range:

1. **Hash recovery** — for each of the 2d coefficient rows, read one
   uniformly random cell (the whole row stores the same word); then read
   one random replica of z[g(x)] from the z row (columns ≡ g(x) mod r).
   Now h(x) = (f(x) + z_{g(x)}) mod s and h'(x) = h(x) mod m are known.
2. **Group metadata** — read one random replica of GBAS(h'(x)) (columns
   ≡ h'(x) mod m of the GBAS row) and one random replica of each of the
   rho histogram words of group h'(x); decode all bucket loads of the
   group.
3. **Bucket location** — the span of bucket h(x) starts at
   GBAS(h'(x)) + sum of squared loads of the group's earlier members
   and has length load**2; an empty bucket answers 0 immediately.
4. **Perfect hashing** — read the perfect-hash word at a uniformly
   random cell of the span, evaluate h*(x), and compare the key at
   span_start + h*(x).

Probes: one per row = 2d + rho + 4 total (2 fewer for empty buckets);
every step's distribution is uniform over a replica set of size
Ω(s / log n) or over a perfect-hash span, which is what drives the
O(1/n) contention of Theorem 3.
"""

from __future__ import annotations

import numpy as np

from repro.cellprobe.steps import BatchStridedStep, FixedCell, ProbeStep, UniformStrided
from repro.core.construction import ConstructionResult, construct
from repro.core.params import SchemeParameters
from repro.dictionaries.base import StaticDictionary
from repro.hashing.perfect import PerfectHashFunction
from repro.hashing.polynomial import PolynomialHashFunction, horner_eval_batch
from repro.utils.bits import (
    decode_unary_histogram,
    decode_unary_histogram_batch,
    unpack_pair_batch,
)
from repro.utils.rng import as_generator


class LowContentionDictionary(StaticDictionary):
    """Theorem 3's (O(n), b, O(1), O(1/n))-balanced cell-probing scheme."""

    name = "low-contention"

    def __init__(
        self,
        keys,
        universe_size: int,
        rng=None,
        params: SchemeParameters | None = None,
        max_trials: int = 500,
    ):
        rng = as_generator(rng)
        self.universe_size = int(universe_size)
        self.keys = self._sorted_keys(keys, self.universe_size)
        if params is None:
            params = SchemeParameters(n=self.n)
        self.construction: ConstructionResult = construct(
            self.keys, self.universe_size, params, rng, max_trials
        )
        self.params = self.construction.params
        self.table = self.construction.table
        self.prime = self.construction.prime
        # Vectorized per-bucket inner-hash parameters for batch plans.
        inner = self.construction.inner
        self._inner_a = np.array(
            [h.a if h else 0 for h in inner], dtype=np.uint64
        )
        self._inner_c = np.array(
            [h.c if h else 0 for h in inner], dtype=np.uint64
        )

    # -- honest query (reads only) -----------------------------------------------

    def query(self, x: int, rng=None) -> bool:
        x = self.check_key(x)
        rng = as_generator(rng)
        p = self.params
        table = self.table
        d = p.degree

        # Phase 1: recover f, g from random cells of the coefficient rows.
        words = [
            table.read(i, int(rng.integers(0, p.s)), i)
            for i in range(2 * d)
        ]
        f = PolynomialHashFunction(self.prime, p.s, words[:d])
        g = PolynomialHashFunction(self.prime, p.r, words[d:])
        gx = g(x)
        k = int(rng.integers(0, p.z_copies(gx)))
        z_val = table.read(p.z_row, gx + k * p.r, 2 * d)
        hx = (f(x) + z_val) % p.s
        group = hx % p.m
        member = hx // p.m

        # Phase 2: GBAS and the group histogram.
        k = int(rng.integers(0, p.group_size))
        gbas = table.read(p.gbas_row, group + k * p.m, 2 * d + 1)
        hist_words = []
        for i, row in enumerate(p.histogram_rows):
            k = int(rng.integers(0, p.group_size))
            hist_words.append(table.read(row, group + k * p.m, 2 * d + 2 + i))
        member_loads = decode_unary_histogram(
            hist_words, p.group_size, p.word_bits
        )

        # Phase 3: locate the bucket's span.
        load = member_loads[member]
        if load == 0:
            return False
        span_start = gbas + sum(v * v for v in member_loads[:member])
        span_len = load * load

        # Phase 4: perfect hash and the final comparison.
        j = int(rng.integers(0, span_len))
        phf_word = table.read(p.phf_row, span_start + j, 2 * d + 2 + p.rho)
        h_star = PerfectHashFunction.from_packed_word(
            phf_word, self.prime, span_len
        )
        probe = span_start + h_star(x)
        return table.read(p.data_row, probe, 2 * d + 3 + p.rho) == x

    def query_batch(self, xs: np.ndarray, rng=None) -> np.ndarray:
        """Vectorized honest query: same four phases, whole batch at once."""
        xs = self.check_keys_batch(xs)
        rng = as_generator(rng)
        batch = xs.shape[0]
        p = self.params
        table = self.table
        d = p.degree

        # Phase 1: recover f, g from random cells of the coefficient rows
        # (steps 0..2d-1 in one fused read; columns drawn row by row).
        words = table.read_batch(
            np.arange(2 * d)[:, None],
            np.stack([rng.integers(0, p.s, size=batch) for _ in range(2 * d)]),
            0,
        )
        fx = horner_eval_batch(words[:d], xs, self.prime, p.s)
        gx = horner_eval_batch(words[d:], xs, self.prime, p.r)
        z_copies = (p.s - gx + p.r - 1) // p.r
        k = np.minimum(
            (rng.random(batch) * z_copies).astype(np.int64), z_copies - 1
        )
        z_val = table.read_batch(p.z_row, gx + k * p.r, 2 * d).astype(np.int64)
        hx = (fx + z_val) % p.s
        group = hx % p.m
        member = hx // p.m

        # Phase 2: GBAS and the group histogram (steps 2d+1..2d+1+rho in
        # one fused read; replica offsets drawn row by row).
        meta_rows = [p.gbas_row, *p.histogram_rows]
        meta = table.read_batch(
            np.array(meta_rows)[:, None],
            group + np.stack([
                rng.integers(0, p.group_size, size=batch) for _ in meta_rows
            ]) * p.m,
            2 * d + 1,
        )
        gbas = meta[0].astype(np.int64)
        hist_words = meta[1:].T
        member_loads = decode_unary_histogram_batch(
            hist_words, p.group_size, p.word_bits
        )

        # Phase 3: locate the bucket's span.
        rows_idx = np.arange(batch)
        load = member_loads[rows_idx, member]
        nonempty = load > 0
        sq = member_loads * member_loads
        span_start = gbas + np.cumsum(sq, axis=1)[rows_idx, member] - sq[
            rows_idx, member
        ]
        span_len = load * load

        # Phase 4: perfect hash and the final comparison.
        sl = np.maximum(span_len, 1)
        j = np.minimum((rng.random(batch) * sl).astype(np.int64), sl - 1)
        phf_word = table.read_batch(
            p.phf_row,
            np.where(nonempty, span_start + j, -1),
            2 * d + 2 + p.rho,
        )
        a, c = unpack_pair_batch(phf_word)
        pf = np.uint64(self.prime)
        v = (a * (xs.astype(np.uint64) % pf) + c) % pf
        probe = span_start + (v % sl.astype(np.uint64)).astype(np.int64)
        data = table.read_batch(
            p.data_row, np.where(nonempty, probe, -1), 2 * d + 3 + p.rho
        )
        return nonempty & (data == xs.astype(np.uint64))

    # -- analytic probe plans ---------------------------------------------------------

    def probe_plan(self, x: int) -> list[ProbeStep]:
        x = self.check_key(x)
        p = self.params
        con = self.construction
        plan: list[ProbeStep] = [
            UniformStrided(row=i, start=0, stride=1, count=p.s)
            for i in range(2 * p.degree)
        ]
        gx = con.h.g(x)
        plan.append(
            UniformStrided(
                row=p.z_row, start=gx, stride=p.r, count=p.z_copies(gx)
            )
        )
        hx = con.h(x)
        group = hx % p.m
        plan.append(
            UniformStrided(
                row=p.gbas_row, start=group, stride=p.m, count=p.group_size
            )
        )
        for row in p.histogram_rows:
            plan.append(
                UniformStrided(
                    row=row, start=group, stride=p.m, count=p.group_size
                )
            )
        load = int(con.loads[hx])
        if load == 0:
            return plan
        start = int(con.span_starts[hx])
        plan.append(
            UniformStrided(
                row=p.phf_row, start=start, stride=1, count=load * load
            )
        )
        plan.append(FixedCell(p.data_row, start + con.inner[hx](x)))
        return plan

    def probe_plan_batch(self, xs: np.ndarray) -> list[BatchStridedStep]:
        xs = np.asarray(xs, dtype=np.int64)
        batch = xs.shape[0]
        p = self.params
        con = self.construction
        zeros = np.zeros(batch, dtype=np.int64)
        ones = np.ones(batch, dtype=np.int64)
        steps: list[BatchStridedStep] = [
            BatchStridedStep(
                row=i,
                starts=zeros,
                strides=ones,
                counts=np.full(batch, p.s, dtype=np.int64),
                shared=True,
            )
            for i in range(2 * p.degree)
        ]
        gx = con.h.g.eval_batch(xs)
        z_counts = (p.s - gx + p.r - 1) // p.r
        steps.append(
            BatchStridedStep(
                row=p.z_row,
                starts=gx,
                strides=np.full(batch, p.r, dtype=np.int64),
                counts=z_counts,
            )
        )
        hx = con.h.eval_batch(xs)
        group = hx % p.m
        group_counts = np.full(batch, p.group_size, dtype=np.int64)
        m_strides = np.full(batch, p.m, dtype=np.int64)
        steps.append(
            BatchStridedStep(
                row=p.gbas_row, starts=group, strides=m_strides,
                counts=group_counts,
            )
        )
        for row in p.histogram_rows:
            steps.append(
                BatchStridedStep(
                    row=row, starts=group, strides=m_strides,
                    counts=group_counts,
                )
            )
        load = con.loads[hx]
        nonempty = load > 0
        span_len = load.astype(np.int64) ** 2
        start = con.span_starts[hx]
        steps.append(
            BatchStridedStep(
                row=p.phf_row,
                starts=np.where(nonempty, start, 0),
                strides=ones,
                counts=np.where(nonempty, span_len, 0),
            )
        )
        pf = np.uint64(self.prime)
        xv = xs.astype(np.uint64) % pf
        v = (self._inner_a[hx] * xv + self._inner_c[hx]) % pf
        inner_pos = (v % np.maximum(span_len.astype(np.uint64), 1)).astype(np.int64)
        steps.append(
            BatchStridedStep(
                row=p.data_row,
                starts=np.where(nonempty, start + inner_pos, 0),
                strides=ones,
                counts=nonempty.astype(np.int64),
            )
        )
        return steps

    # -- metadata ---------------------------------------------------------------------

    def row_labels(self) -> list[str]:
        """Semantic name of each table row (for contention breakdowns)."""
        p = self.params
        labels = [f"f-coefficient-{i}" for i in range(p.degree)]
        labels += [f"g-coefficient-{i}" for i in range(p.degree)]
        labels += ["z-vector", "GBAS"]
        labels += [f"group-histogram-{i}" for i in range(p.rho)]
        labels += ["perfect-hash-spans", "data"]
        return labels

    @property
    def max_probes(self) -> int:
        return self.params.max_probes

    @property
    def construction_trials(self) -> int:
        """Rejection-sampling trials used to satisfy property P(S)."""
        return self.construction.trials
