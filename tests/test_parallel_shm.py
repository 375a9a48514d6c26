"""Shared-memory segments: headers, checksums, counters, lifecycle."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cellprobe import ProbeCounter
from repro.cellprobe.table import Table
from repro.errors import ParameterError, SegmentFormatError
from repro.parallel import (
    KIND_COUNTER,
    KIND_RING,
    KIND_TABLE,
    ShmProbeCounter,
    attach_segment,
    attach_table,
    create_counter_segment,
    create_segment,
    destroy_segment,
    pack_table,
    read_counter,
    segment_name,
    verify_header,
    write_header,
)


def _shm_names() -> set[str]:
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro")}


# -- headers -------------------------------------------------------------------


def test_header_roundtrip():
    seg = create_segment(segment_name("repro-test", "hdr"), 256)
    try:
        write_header(seg.buf, KIND_RING, 11, 22, 33)
        assert verify_header(seg.buf, KIND_RING, seg.name) == (11, 22, 33)
    finally:
        destroy_segment(seg)


@pytest.mark.parametrize("word,value", [(0, 0xDEAD), (1, 99), (6, 0)])
def test_header_corruption_detected(word, value):
    seg = create_segment(segment_name("repro-test", "hdr"), 256)
    try:
        write_header(seg.buf, KIND_RING, 7)
        np.ndarray(8, dtype=np.uint64, buffer=seg.buf)[word] = value
        with pytest.raises(SegmentFormatError):
            verify_header(seg.buf, KIND_RING, seg.name)
    finally:
        destroy_segment(seg)


def test_header_kind_mismatch_detected():
    seg = create_segment(segment_name("repro-test", "hdr"), 256)
    try:
        write_header(seg.buf, KIND_RING, 7)
        with pytest.raises(SegmentFormatError):
            verify_header(seg.buf, KIND_TABLE, seg.name)
    finally:
        destroy_segment(seg)


# -- table segments ------------------------------------------------------------


def _small_table(rows=6, s=4, seed=0) -> Table:
    t = Table(rows, s, counter=ProbeCounter(rows * s))
    rng = np.random.default_rng(seed)
    for r in range(rows):
        for c in range(s):
            t.write(r, c, int(rng.integers(0, 2**50)))
    return t


def test_pack_attach_table_zero_copy():
    t = _small_table()
    seg = pack_table(segment_name("repro-test", "tab"), t)
    try:
        counter = ProbeCounter(t.rows * t.s)
        att = attach_segment(seg.name)
        view = attach_table(att, counter)
        assert view.rows == t.rows and view.s == t.s
        assert np.array_equal(view._cells, t._cells)
        # Reads through the view charge the attached counter.
        view.read_batch(
            np.arange(3, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            step=0,
        )
        assert counter.total_probes() == 3
        att.close()
    finally:
        destroy_segment(seg)


def test_attach_table_payload_checksum_mismatch():
    t = _small_table()
    seg = pack_table(segment_name("repro-test", "tab"), t)
    try:
        cells = np.ndarray(
            t.rows * t.s, dtype=np.uint64, buffer=seg.buf, offset=64
        )
        cells[5] ^= 1  # one flipped bit after packing
        with pytest.raises(SegmentFormatError):
            attach_table(seg, ProbeCounter(t.rows * t.s))
    finally:
        destroy_segment(seg)


def test_attach_table_counter_geometry_mismatch():
    t = _small_table()
    seg = pack_table(segment_name("repro-test", "tab"), t)
    try:
        with pytest.raises(ParameterError):
            attach_table(seg, ProbeCounter(3))
    finally:
        destroy_segment(seg)


# -- shared counters -----------------------------------------------------------


def _drive(counter) -> None:
    counter.record(0, 2)
    counter.record_batch(1, np.array([0, -1, 3, 3], dtype=np.int64))
    # All-negative batch: charges nothing but still allocates steps —
    # the in-process counter's lazy-allocation contract, pinned here
    # because digest parity depends on it.
    counter.record_batch(4, np.array([-1, -1], dtype=np.int64))


def test_shm_counter_digest_matches_in_process():
    plain = ProbeCounter(8)
    seg = create_counter_segment(segment_name("repro-test", "cnt"), 16, 8)
    try:
        shm = ShmProbeCounter(seg)
        _drive(plain)
        _drive(shm)
        assert shm.num_steps == plain.num_steps == 5
        assert shm.total_probes() == plain.total_probes() == 4
        assert shm.digest() == plain.digest()
        assert read_counter(seg).digest() == plain.digest()
    finally:
        destroy_segment(seg)


def test_shm_counter_merge_and_resume():
    seg = create_counter_segment(segment_name("repro-test", "cnt"), 16, 8)
    try:
        shm = ShmProbeCounter(seg)
        _drive(shm)
        # A fresh attach of the same segment resumes the exact state.
        resumed = ShmProbeCounter(seg)
        assert resumed.num_steps == 5
        assert resumed.total_probes() == 4
        assert resumed.digest() == shm.digest()
        # Merging two worker copies doubles every count.
        merged = ProbeCounter(8)
        merged.merge(read_counter(seg)).merge(read_counter(seg))
        assert merged.total_probes() == 8
    finally:
        destroy_segment(seg)


def test_shm_counter_rejects_steps_beyond_capacity():
    seg = create_counter_segment(segment_name("repro-test", "cnt"), 4, 8)
    try:
        shm = ShmProbeCounter(seg)
        with pytest.raises(ParameterError):
            shm.record(4, 0)
        with pytest.raises(ParameterError):
            shm.record_batch(7, np.array([1], dtype=np.int64))
    finally:
        destroy_segment(seg)


def test_shm_counter_reset_clears_segment():
    seg = create_counter_segment(segment_name("repro-test", "cnt"), 8, 4)
    try:
        shm = ShmProbeCounter(seg)
        shm.record(2, 1)
        shm.reset()
        assert shm.num_steps == 0 and shm.total_probes() == 0
        assert read_counter(seg).total_probes() == 0
    finally:
        destroy_segment(seg)


# -- lifecycle -----------------------------------------------------------------


def test_destroy_segment_unlinks_dev_shm():
    before = _shm_names()
    seg = create_segment(segment_name("repro-test", "life"), 1024)
    created = _shm_names() - before
    assert len(created) == 1
    destroy_segment(seg)
    assert _shm_names() == before
    destroy_segment(seg)  # idempotent


_INTERRUPTED_OWNER = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel import create_segment, segment_name
for i in range(3):
    seg = create_segment(segment_name("repro-kbd", f"leak{{i}}"), 4096)
    print(seg.name, flush=True)
raise KeyboardInterrupt
"""


def test_keyboard_interrupt_owner_leaves_no_segments():
    """An owner dying to ctrl-c still unlinks everything (atexit net)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED_OWNER.format(src=src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    names = proc.stdout.split()
    assert len(names) == 3
    assert proc.returncode != 0  # the interrupt did propagate
    leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
    assert leaked == [], f"KeyboardInterrupt leaked {leaked}"
