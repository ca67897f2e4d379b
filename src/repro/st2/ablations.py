"""Ablation studies around the ST2 design point.

The paper's design-space exploration covers three axes — spatial (PC
bits), temporal (history depth) and thread sharing — plus two practical
concerns it argues away qualitatively: CRF write-port contention
("random arbitration suffices") and the slice width (fixed at 8 bits by
the circuit study). This module quantifies each on the actual traces:

* :func:`history_depth_sweep` — deeper per-entry history (keep the last
  N carry vectors, predict by agreement) vs the paper's depth-1 "Prev";
* :func:`contention_sweep` — ST2 with realistic CRF write arbitration
  (simultaneous writers to one entry drop all but a random winner)
  versus the idealised table;
* :func:`slice_width_speculation_sweep` — the *misprediction* cost of
  narrower/wider slices on real value streams (complementing the
  circuit-level energy sweep of Section V-B).

The value of *compile-time* carry facts is measured per unit by the
evaluation engine (the ``metrics.static_peek`` row of every result).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.core.batch import (TracePack, build_pack, evaluate_trace_batch,
                              pack_bits, previous_same_key_batch,
                              unpack_bits)
from repro.core.predictors import (MAX_PREDICTIONS, SpeculationConfig,
                                   history_keys, run_speculation,
                                   trace_groups)
from repro.core.speculation import ST2_DESIGN


def _rate(mispredicted: np.ndarray) -> float:
    """Thread misprediction rate of one evaluation (0 for no rows)."""
    return float(mispredicted.mean()) if len(mispredicted) else 0.0


# ----------------------------------------------------------------------
# history depth
# ----------------------------------------------------------------------


def _depth_predictions(pack: TracePack, prevs: np.ndarray, depth: int,
                       peek: bool) -> np.ndarray:
    """Prediction bits using the last ``depth`` carry vectors per entry.

    ``prevs`` are the per-boundary history predecessors of the config's
    index.  Depth-1 is the paper's Prev. For deeper history the
    prediction is the majority vote of the stored vectors (ties
    resolved toward the most recent) — the natural hardware
    generalisation (a small shift register per entry).  Returns one
    byte per row, like every prediction.
    """
    carries = unpack_bits(pack.carries)
    n = pack.n_rows
    bits = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    for j in range(MAX_PREDICTIONS):
        if not (pack.n_preds > j).any():
            continue
        # chain of predecessors: prev, prev-of-prev, ...
        prev = prevs[:, j]
        ancestors = [prev]
        for _ in range(depth - 1):
            last = ancestors[-1]
            nxt = np.where(last >= 0, prev[np.maximum(last, 0)], -1)
            ancestors.append(nxt)
        votes = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for anc in ancestors:
            has = anc >= 0
            votes[has] += carries[anc[has], j]
            counts[has] += 1
        # majority, most-recent-wins on ties
        recent = np.zeros(n, dtype=np.uint8)
        has0 = ancestors[0] >= 0
        recent[has0] = carries[ancestors[0][has0], j]
        with np.errstate(invalid="ignore"):
            maj = np.where(2 * votes > counts, 1,
                           np.where(2 * votes < counts, 0, recent))
        bits[:, j] = maj.astype(np.uint8)
    packed = pack_bits(bits)
    if peek:
        packed = (packed & ~pack.peek_known) | pack.peek_value
    return packed


@dataclass
class DepthPoint:
    depth: int
    misprediction_rate: float


def history_depth_sweep(trace, depths=(1, 2, 3, 4),
                        config: SpeculationConfig = ST2_DESIGN) -> list:
    """Misprediction rate vs history depth at the ST2 index."""
    pack = build_pack(trace)
    prevs = previous_same_key_batch(
        history_keys(trace, config), trace_groups(trace),
        unpack_bits(pack.valid).astype(bool))
    points = []
    for depth in depths:
        bits = _depth_predictions(pack, prevs, depth, config.peek)
        points.append(DepthPoint(
            depth=depth,
            misprediction_rate=_rate(evaluate_trace_batch(pack, bits)[0])))
    return points


# ----------------------------------------------------------------------
# CRF write-port contention
# ----------------------------------------------------------------------

@dataclass
class ContentionResult:
    ideal_rate: float
    contended_rate: float
    updates_dropped_fraction: float

    @property
    def rate_penalty(self) -> float:
        return self.contended_rate - self.ideal_rate


def contention_sweep(trace, config: SpeculationConfig = ST2_DESIGN,
                     writeback_width: int = 4, seed: int = 0,
                     max_rows: int = 120_000) -> ContentionResult:
    """ST2 misprediction with realistic CRF write arbitration.

    Warp instructions retiring in the same cycle are modelled as the
    groups of ``writeback_width`` consecutive dynamic warp instructions
    per SM (the SM has that many write-back slots). Within one cycle,
    updates that target the same CRF entry conflict: one random winner
    writes, the rest are dropped (the paper's arbitration). Dropping
    updates only stales predictions — correctness is untouched.
    """
    if len(trace) > max_rows:
        trace = trace.select(np.arange(max_rows))
    pack = build_pack(trace)
    ideal = run_speculation(trace, config, pack)

    rng = np.random.default_rng(seed)
    carries = unpack_bits(pack.carries)
    n_preds = pack.n_preds.astype(np.int64)
    keys = history_keys(trace, config)
    groups = trace_groups(trace)
    n = len(trace)

    # a CRF *entry* is the key without its lane component: all lanes of
    # a warp write disjoint bit fields of one entry (no intra-warp
    # conflict); two warps retiring in the same cycle conflict when
    # they target the same entry
    lane_mask = np.int64(((1 << 32) - 1) << 24)
    entry_ids = keys & ~lane_mask

    bits = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    table: dict = {}
    dropped = 0
    total_updates = 0

    # walk the trace warp-instruction by warp-instruction; a "cycle"
    # spans `writeback_width` instructions (the SM's write-back slots)
    group_edges = np.nonzero(np.diff(groups, prepend=groups[0] - 1))[0]
    cycle_updates: dict = {}   # entry_id -> list of per-warp writes
    groups_in_cycle = 0

    def flush_cycle():
        nonlocal dropped, cycle_updates, groups_in_cycle
        for writers in cycle_updates.values():
            if len(writers) > 1:
                keep = int(rng.integers(len(writers)))
                dropped += len(writers) - 1
                writers = [writers[keep]]
            for key, vec, width_bits in writers[0]:
                slot = table.setdefault(
                    key, np.zeros(MAX_PREDICTIONS, dtype=np.uint8))
                slot[:width_bits] = vec[:width_bits]
        cycle_updates = {}
        groups_in_cycle = 0

    for gi, start in enumerate(group_edges):
        end = group_edges[gi + 1] if gi + 1 < len(group_edges) else n
        rows = range(start, end)
        # register-read stage: lanes see the pre-cycle table state
        for r in rows:
            stored = table.get(int(keys[r]))
            if stored is not None:
                bits[r, :n_preds[r]] = stored[:n_preds[r]]
        # write-back stage: one atomic entry write per warp instruction
        warp_write = [(int(keys[r]), carries[r], int(n_preds[r]))
                      for r in rows]
        total_updates += 1
        cycle_updates.setdefault(int(entry_ids[start]), []).append(
            warp_write)
        groups_in_cycle += 1
        if groups_in_cycle >= writeback_width:
            flush_cycle()
    flush_cycle()

    packed = pack_bits(bits)
    if config.peek:
        packed = (packed & ~pack.peek_known) | pack.peek_value
    return ContentionResult(
        ideal_rate=ideal.thread_misprediction_rate,
        contended_rate=_rate(evaluate_trace_batch(pack, packed)[0]),
        updates_dropped_fraction=dropped / max(total_updates, 1))


# ----------------------------------------------------------------------
# slice width (speculation cost, on real traces)
# ----------------------------------------------------------------------

@dataclass
class SliceWidthPoint:
    slice_width: int
    misprediction_rate: float
    boundaries_per_64bit_op: int


def slice_width_speculation_sweep(trace, widths=(4, 8, 16),
                                  config: SpeculationConfig = ST2_DESIGN,
                                  max_rows: int = 200_000) -> list:
    """Misprediction cost of other slice widths on real operands.

    Narrower slices mean more predicted boundaries per op (more chances
    to stall); wider slices mean fewer. Run per-width Prev+Peek
    prediction directly on the trace operands.
    """
    if len(trace) > max_rows:
        trace = trace.select(np.arange(max_rows))
    keys = history_keys(trace, config)
    groups = trace_groups(trace)
    points = []
    for sw in widths:
        max_nb = (64 + sw - 1) // sw - 1
        n = len(trace)
        n_bound = (trace.width.astype(np.int64) + sw - 1) // sw - 1
        # true carries at this slicing
        carr = np.zeros((n, max_nb + 1), dtype=np.uint8)
        peek_known = np.zeros((n, max_nb), dtype=bool)
        peek_val = np.zeros((n, max_nb), dtype=np.uint8)
        for w in np.unique(trace.width):
            rows = np.nonzero(trace.width == w)[0]
            c = bitops.slice_carry_ins(trace.op_a[rows],
                                       trace.op_b[rows], int(w), sw,
                                       trace.cin[rows])
            carr[rows[:, None], np.arange(c.shape[1])[None, :]] = c
            ma = bitops.slice_operand_bits(trace.op_a[rows], int(w), sw)
            mb = bitops.slice_operand_bits(trace.op_b[rows], int(w), sw)
            nb = ma.shape[1] - 1
            if nb <= 0:
                continue
            one = (ma[:, :nb] & mb[:, :nb]) == 1
            zero = (ma[:, :nb] | mb[:, :nb]) == 0
            peek_known[rows[:, None], np.arange(nb)[None, :]] = one | zero
            peek_val[rows[:, None], np.arange(nb)[None, :]] = \
                one.astype(np.uint8)
        # prev prediction per boundary
        bits = np.zeros((n, max_nb), dtype=np.uint8)
        prevs = previous_same_key_batch(
            keys, groups, np.arange(max_nb)[None, :] < n_bound[:, None])
        for j in range(max_nb):
            prev = prevs[:, j]
            has = prev >= 0
            bits[has, j] = carr[prev[has], j + 1]
        bits = np.where(peek_known, peek_val, bits)
        in_range = np.arange(max_nb)[None, :] < n_bound[:, None]
        wrong = (bits != carr[:, 1:]) & in_range
        miss = wrong.any(axis=1)
        points.append(SliceWidthPoint(
            slice_width=sw,
            misprediction_rate=float(miss.mean()),
            boundaries_per_64bit_op=max_nb))
    return points
