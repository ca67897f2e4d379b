"""Slow, per-width / per-row references for the batched speculation
kernels of :mod:`repro.core.batch`.

These are the straightforward formulations: one
:func:`~repro.core.bitops.slice_carry_ins` / ``slice_operand_bits``
pass and one :class:`~repro.core.adder.ST2Adder` per distinct adder
width, sequential dict walks for the history mechanisms
(:class:`ReferencePredictor` for ``prev``).  None of them builds a
:class:`~repro.core.batch.TracePack` or calls a batched kernel, so the
tests replay the production kernels against code they do not share.
"""

from __future__ import annotations

import numpy as np

from repro.core import bitops
from repro.core.adder import ST2Adder
from repro.core.predictors import (MAX_PREDICTIONS, history_keys,
                                   trace_groups, trace_n_predictions)
from repro.core.slices import geometry_for


def columns(packed, k: int = MAX_PREDICTIONS) -> np.ndarray:
    """One byte per row as ``(N, k)`` 0/1 columns, column ``j`` = bit
    ``j`` — how the tests read the production kernels' packed bytes."""
    return np.unpackbits(np.asarray(packed, dtype=np.uint8)[:, None],
                         axis=1, count=k, bitorder="little")


def packed(cols) -> np.ndarray:
    """``(N, k)`` 0/1 columns as one byte per row (inverse of
    :func:`columns`)."""
    return np.packbits(np.asarray(cols, dtype=bool), axis=1,
                       bitorder="little")[:, 0]


def slice_carries(trace) -> np.ndarray:
    """True carry-in of every slice, padded to 8 columns."""
    out = np.zeros((len(trace), MAX_PREDICTIONS + 1), dtype=np.uint8)
    for w in np.unique(trace.width):
        rows = np.nonzero(trace.width == w)[0]
        carries = bitops.slice_carry_ins(
            trace.op_a[rows], trace.op_b[rows], int(w), 8, trace.cin[rows])
        out[rows[:, None], np.arange(carries.shape[1])[None, :]] = carries
    return out


def _msb_pairs(trace):
    """Per width: ``(rows, msb_a, msb_b, n_pred)`` of the slice MSbs."""
    for w in np.unique(trace.width):
        rows = np.nonzero(trace.width == w)[0]
        msb_a = bitops.slice_operand_bits(trace.op_a[rows], int(w), 8)
        msb_b = bitops.slice_operand_bits(trace.op_b[rows], int(w), 8)
        n_pred = msb_a.shape[1] - 1
        if n_pred > 0:
            yield rows, msb_a[:, :n_pred], msb_b[:, :n_pred], n_pred


def peek(trace) -> tuple:
    """``(known, value)`` of the runtime Peek rule."""
    n = len(trace)
    known = np.zeros((n, MAX_PREDICTIONS), dtype=bool)
    value = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    for rows, a, b, n_pred in _msb_pairs(trace):
        cols = rows[:, None], np.arange(n_pred)[None, :]
        known[cols] = ((a & b) == 1) | ((a | b) == 0)
        value[cols] = ((a & b) == 1).astype(np.uint8)
    return known, value


class ReferencePredictor:
    """Sequential, dict-based oracle for the ``prev`` mechanism: one
    history-table entry per index, walked row by row."""

    def __init__(self, config):
        if config.mechanism != "prev":
            raise ValueError("ReferencePredictor models the prev mechanism")
        self.config = config
        self._table: dict = {}

    def _key(self, pc: int, gtid: int, ltid: int, sm: int):
        cfg = self.config
        if cfg.pc_index == "none":
            pc_part = 0
        elif cfg.pc_index == "full":
            pc_part = pc
        elif cfg.pc_index == "mod":
            pc_part = pc % (1 << cfg.pc_bits)
        else:  # xor fold
            pc_part, v, m = 0, pc, (1 << cfg.pc_bits) - 1
            while v:
                pc_part ^= v & m
                v >>= cfg.pc_bits
        thread_part = {"": 0, "gtid": gtid, "ltid": ltid}[cfg.thread_key]
        sm_part = sm if cfg.sm_scoped else 0
        return (pc_part, thread_part, sm_part)

    def predict_row(self, pc: int, gtid: int, ltid: int, sm: int,
                    n_preds: int) -> np.ndarray:
        entry = self._table.get(self._key(pc, gtid, ltid, sm))
        bits = np.zeros(MAX_PREDICTIONS, dtype=np.uint8)
        if entry is not None:
            bits[:] = entry
        return bits[:n_preds]

    def update_row(self, pc: int, gtid: int, ltid: int, sm: int,
                   carries: np.ndarray) -> None:
        """Store a row's true slice carries (bits it produced only)."""
        key = self._key(pc, gtid, ltid, sm)
        entry = self._table.setdefault(
            key, np.zeros(MAX_PREDICTIONS, dtype=np.uint8))
        entry[:len(carries)] = carries

    def predict_trace(self, trace) -> np.ndarray:
        """Group-at-a-time predictions over a trace.

        All lanes of one warp instruction (same ``seq`` and ``warp``)
        read the table before any of them writes back, matching the
        hardware register-read / write-back staging.
        """
        n_preds = trace_n_predictions(trace)
        carries = slice_carries(trace)
        groups = (trace.seq.astype(np.int64) << 24) \
            + trace.warp.astype(np.int64)
        out = np.zeros((len(trace), MAX_PREDICTIONS), dtype=np.uint8)
        i = 0
        n = len(trace)
        while i < n:
            j = i
            while j < n and groups[j] == groups[i]:
                j += 1
            for r in range(i, j):
                kk = int(n_preds[r])
                out[r, :kk] = self.predict_row(
                    int(trace.pc[r]), int(trace.gtid[r]),
                    int(trace.ltid[r]), int(trace.sm[r]), kk)
            for r in range(i, j):
                kk = int(n_preds[r])
                self.update_row(int(trace.pc[r]), int(trace.gtid[r]),
                                int(trace.ltid[r]), int(trace.sm[r]),
                                carries[r, 1:kk + 1])
            i = j
        if self.config.peek:
            known, value = peek(trace)
            out = np.where(known, value, out)
        return out


def previous(keys: np.ndarray, groups: np.ndarray,
             valid: np.ndarray) -> np.ndarray:
    """Sequential history predecessor of every valid row: the last
    valid row with the same key written *before* the row's group."""
    prev = np.full(len(keys), -1, dtype=np.int64)
    last: dict = {}
    pending: list = []
    for r in range(len(keys)):
        if r and groups[r] != groups[r - 1]:
            last.update(pending)
            pending = []
        if valid[r]:
            prev[r] = last.get(int(keys[r]), -1)
            pending.append((int(keys[r]), r))
    return prev


def previous_columns(keys: np.ndarray, groups: np.ndarray,
                     valid_cols: np.ndarray) -> np.ndarray:
    """Sorted-run history predecessors, recomputed for every column of
    ``valid_cols`` — the production kernel before it shared columns
    with equal valid sets.  Exact for any ``groups``, contiguous or
    not."""
    n, k = valid_cols.shape
    prev = np.full((n, k), -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(keys, kind="stable")
    for j in range(k):
        si = order[valid_cols[order, j]]
        m = len(si)
        if m < 2:
            continue
        sk = keys[si]
        sg = groups[si]
        pos = np.arange(m)
        run_start = np.ones(m, dtype=bool)
        run_start[1:] = (sk[1:] != sk[:-1]) | (sg[1:] != sg[:-1])
        source = np.maximum.accumulate(np.where(run_start, pos, 0)) - 1
        ok = (source >= 0) & (sk[np.maximum(source, 0)] == sk)
        prev[si[ok], j] = si[source[ok]]
    return prev


def predict(trace, config) -> tuple:
    """``(bits, has_prev)`` of ``config`` over ``trace``."""
    n = len(trace)
    n_preds = trace_n_predictions(trace)
    carries = slice_carries(trace)
    bits = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    has_prev = np.zeros((n, MAX_PREDICTIONS), dtype=bool)
    if config.mechanism == "static1":
        bits[:] = 1
    elif config.mechanism == "operand":
        for rows, a, b, n_pred in _msb_pairs(trace):
            bits[rows[:, None], np.arange(n_pred)[None, :]] = a & b
    elif config.mechanism == "valhalla":
        heavy: dict = {}
        for r in range(n):
            gtid = int(trace.gtid[r])
            if gtid in heavy:
                bits[r, :] = heavy[gtid]
            k = int(n_preds[r])
            heavy[gtid] = int(2 * int(carries[r, 1:k + 1].sum())
                              > max(k, 1))
    elif config.mechanism == "prev":
        bits = ReferencePredictor(config).predict_trace(trace)
        keys = history_keys(trace, config)
        groups = trace_groups(trace)
        for j in range(MAX_PREDICTIONS):
            has_prev[:, j] = previous(keys, groups, n_preds > j) >= 0
        return bits, has_prev
    if config.peek:
        known, value = peek(trace)
        bits = np.where(known, value, bits)
    return bits, has_prev


def evaluate(trace, bits: np.ndarray) -> tuple:
    """``(mispredicted, recomputed, wrong_bits)`` per row, from one
    :class:`ST2Adder` per distinct width."""
    n = len(trace)
    mispredicted = np.zeros(n, dtype=bool)
    recomputed = np.zeros(n, dtype=np.int64)
    wrong_bits = np.zeros(n, dtype=np.int64)
    for w in np.unique(trace.width):
        rows = np.nonzero(trace.width == w)[0]
        geo = geometry_for(int(w))
        if geo.n_predictions == 0:
            continue
        out = ST2Adder(geo).add(trace.op_a[rows], trace.op_b[rows],
                                bits[rows, :geo.n_predictions],
                                cin=trace.cin[rows])
        mispredicted[rows] = out.mispredicted
        recomputed[rows] = out.recomputed_slices
        wrong_bits[rows] = (bits[rows, :geo.n_predictions]
                            != out.slice_carries[:, 1:]).sum(axis=1)
    return mispredicted, recomputed, wrong_bits
