"""Batched carry-speculation kernels: the one evaluation path.

Every prediction and ST2-adder evaluation in the repository runs here,
over a *whole trace* in padded ``(N, 8)`` / ``(N, 7)`` arrays:

* :class:`TracePack` — every config-independent derived array of one
  trace: true slice carries, per-slice generate/propagate summaries
  (the ``cout = G | (P & cin)`` identity of
  :meth:`~repro.core.adder.ST2Adder._slice_carry_outs`), runtime Peek
  facts and the slice-validity masks.
* :func:`previous_same_key_batch` — the history-table predecessor for
  all 7 slice boundaries from **one** stable argsort (the per-boundary
  valid sets are subsequences of the same time order, and a stable
  sort of a subsequence is the subsequence of the stable sort).
* :func:`predict_trace_batch` / :func:`evaluate_trace_batch` — padded
  whole-trace prediction and ST2-adder evaluation.

Every caller builds one pack per trace and passes it to every kernel
call on that trace: the evaluation engine through its cached plan,
:func:`~repro.core.predictors.run_speculation` (the one counted
in-process convenience), the design-space, correlation and ablation
studies, and the fuzzer's adder oracle.  Correctness comes from slow,
independent references in ``tests/core/reference_speculation.py`` (a
dict-based history walk and per-width
:mod:`~repro.core.bitops` / :class:`~repro.core.adder.ST2Adder`
passes), cross-checked in the tests.  No ``repro.obs``
instrumentation happens at this level; callers count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.predictors import (MAX_PREDICTIONS, Prediction,
                                   SpeculationConfig, history_keys,
                                   trace_groups, trace_n_predictions)

#: widest supported adder: 64 bits = 8 slices of 8 bits
N_SLICES_MAX = MAX_PREDICTIONS + 1

_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _operands_u64(trace) -> tuple:
    """``(a, b, width, mask)`` with both operands reinterpreted as
    unsigned and masked to each row's width — the vectorised-over-rows
    form of :func:`~repro.core.bitops.to_unsigned`."""
    width = np.asarray(trace.width).astype(_U64)
    m = _ALL_ONES >> (_U64(64) - width)
    a = np.asarray(trace.op_a).astype(np.int64).view(_U64) & m
    b = np.asarray(trace.op_b).astype(np.int64).view(_U64) & m
    return a, b, width, m


def _slice_carries_all(trace) -> np.ndarray:
    """``(N, 8)`` true slice carry-ins, one pass over every width.

    Slice ``j`` always starts at bit ``8j``, and a row's carry word is
    masked to its width, so shifting past it reads zero — the padding
    for slices a narrow adder does not have.
    """
    a, b, width, m = _operands_u64(trace)
    cin = np.asarray(trace.cin, dtype=_U64)
    with np.errstate(over="ignore"):    # uint64 wrap-around intended
        s = (a + b + cin) & m
    carries = a ^ b ^ s                 # < 2**width by construction
    out = np.empty((len(width), N_SLICES_MAX), dtype=np.uint8)
    for j in range(N_SLICES_MAX):
        out[:, j] = (carries >> _U64(8 * j)) & _U64(1)
    return out


def _peek_all(trace, pred_valid: np.ndarray) -> tuple:
    """``(known, value)`` of the runtime Peek rule, one pass over every
    width.

    The MSB of slice ``j`` sits at ``min(8j + 8, width) - 1``; columns
    past a row's last boundary are masked off with ``pred_valid``.
    ``value`` (both MSbs one) is also the CASA-style ``operand``
    prediction: the generate bit of the previous slice's MSB.
    """
    width = np.asarray(trace.width).astype(_U64)
    # only bits below each row's width are read, so the raw uint64
    # reinterpretation needs no mask
    a = np.asarray(trace.op_a).astype(np.int64).view(_U64)
    b = np.asarray(trace.op_b).astype(np.int64).view(_U64)
    known = np.empty((len(width), MAX_PREDICTIONS), dtype=bool)
    value = np.empty((len(width), MAX_PREDICTIONS), dtype=np.uint8)
    one = _U64(1)
    for j in range(MAX_PREDICTIONS):
        pos = np.minimum(_U64(8 * j + 8), width) - one
        a_bit = (a >> pos) & one
        b_bit = (b >> pos) & one
        both_one = (a_bit & b_bit) == one
        both_zero = (a_bit | b_bit) == 0
        known[:, j] = both_one | both_zero
        value[:, j] = both_one
    known &= pred_valid
    value &= pred_valid
    return known, value


@dataclass
class TracePack:
    """Config-independent derived arrays of one :class:`AddTrace`.

    Built once per trace (a few vectorised passes over the memmapped
    columns) and shared by every SpeculationConfig evaluated against
    it, by the static-peek overlay and by the auxiliary VaLHALLA and
    Figure 3 measurements.
    """

    n_rows: int
    n_preds: np.ndarray         # (N,)  int64 — speculated carries/row
    carries: np.ndarray         # (N, 8) uint8 — true slice carry-ins
    gen: np.ndarray             # (N, 8) uint8 — slice generate bits
    prop: np.ndarray            # (N, 8) uint8 — slice propagate bits
    pred_valid: np.ndarray      # (N, 7) bool — boundary j < n_preds
    peek_known: np.ndarray      # (N, 7) bool — runtime Peek facts
    peek_value: np.ndarray      # (N, 7) uint8
    cin: np.ndarray             # (N,)  uint8 — architectural carry-in

    @property
    def history_lookups(self) -> int:
        """Total (row, boundary) pairs a history table would look up —
        ``core.predict.history_lookups`` per prediction."""
        return int(self.pred_valid.sum())

    def rows(self, idx: np.ndarray) -> "TracePack":
        """The pack restricted to ``idx`` — a row-subset view used to
        re-evaluate only the rows a prediction overlay changed."""
        return TracePack(
            n_rows=len(idx), n_preds=self.n_preds[idx],
            carries=self.carries[idx], gen=self.gen[idx],
            prop=self.prop[idx], pred_valid=self.pred_valid[idx],
            peek_known=self.peek_known[idx],
            peek_value=self.peek_value[idx], cin=self.cin[idx])


def _gen_prop_all(trace) -> tuple:
    """Per-slice generate/propagate summaries, one pass over every
    width: ``g`` is the slice's carry-out under carry-in 0, ``p`` marks
    carry-in 1 flipping it.  Columns past a row's last slice are zero.
    """
    a, b, width, _m = _operands_u64(trace)
    n = len(width)
    gen = np.zeros((n, N_SLICES_MAX), dtype=np.uint8)
    prop = np.zeros((n, N_SLICES_MAX), dtype=np.uint8)
    one = _U64(1)
    for j in range(N_SLICES_MAX):
        lo = _U64(8 * j)
        exists = width > lo
        if not exists.any():
            break                       # slices are a prefix per row
        hi = np.minimum(lo + _U64(8), width)
        sw = np.where(exists, hi - lo, one)     # clamp dead rows' shifts
        smask = _ALL_ONES >> (_U64(64) - sw)
        sa = (a >> lo) & smask
        sb = (b >> lo) & smask
        msb = sw - one
        with np.errstate(over="ignore"):
            s0 = (sa + sb) & smask
            s1 = (sa + sb + one) & smask
        g0 = (sa & sb) >> msb & one
        p0 = (sa ^ sb) >> msb & one
        g = g0 | (p0 & ((sa ^ sb ^ s0) >> msb & one))
        cout1 = g0 | (p0 & ((sa ^ sb ^ s1) >> msb & one))
        gen[:, j] = np.where(exists, g, 0)
        prop[:, j] = np.where(exists, (cout1 & ~g) & one, 0)
    return gen, prop


def build_pack(trace) -> TracePack:
    """Derive every config-independent array of ``trace``.

    Raises :class:`ValueError` naming the ``width`` field when a row's
    adder width is outside the 1–64-bit range the packed uint64
    arithmetic covers.
    """
    n = len(trace)
    width = np.asarray(trace.width)
    if n and (int(width.min()) < 1 or int(width.max()) > 64):
        bad = int(width.min()) if int(width.min()) < 1 \
            else int(width.max())
        raise ValueError(f"trace field 'width': adder width {bad} "
                         f"outside [1, 64]")
    n_preds = trace_n_predictions(trace)
    pred_valid = (np.arange(MAX_PREDICTIONS)[None, :]
                  < n_preds[:, None])
    peek_known, peek_value = _peek_all(trace, pred_valid)
    gen, prop = _gen_prop_all(trace)
    return TracePack(
        n_rows=n, n_preds=n_preds, carries=_slice_carries_all(trace),
        gen=gen, prop=prop, pred_valid=pred_valid,
        peek_known=peek_known, peek_value=peek_value,
        cin=np.asarray(trace.cin, dtype=np.uint8))


def previous_same_key_batch(keys: np.ndarray, groups: np.ndarray,
                            valid_cols: np.ndarray) -> np.ndarray:
    """Per-boundary history predecessors from one stable argsort.

    For each column ``j`` of ``valid_cols`` (shape ``(N, k)``), the
    index of the previous valid row with the same key, or -1.  Rows
    are in logical-time order; this is the core of every history-table
    mechanism.  The ``keys`` array is sorted only once: each column's
    valid subset is a subsequence of the rows in time order, and the
    stable sort of a subsequence equals the subsequence of the stable
    sort of the whole array.  A column whose valid set equals the
    previous column's copies its predecessors instead of recomputing
    them: validity is a per-row prefix of ``n_preds`` boundaries, so a
    trace with few distinct adder widths has few distinct columns.

    ``groups`` marks rows that execute *simultaneously* (the lanes of
    one warp instruction): a row never takes its prediction from
    another row of its group, because in hardware every lane reads the
    history entry in the register-read stage, before any lane of that
    instruction has written back.  Pass ``np.arange(N)`` for the
    no-groups semantics, where every row is its own group.
    """
    n, k = valid_cols.shape
    prev = np.full((n, k), -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(keys, kind="stable")
    sk_full = keys[order]
    sg_full = groups[order]
    sel_full = valid_cols[order]
    for j in range(k):
        sel = sel_full[:, j]
        if j and np.array_equal(sel, sel_full[:, j - 1]):
            # same valid set as the previous boundary: same predecessors
            prev[:, j] = prev[:, j - 1]
            continue
        si = order[sel]
        m = len(si)
        if m < 2:
            continue
        sk = sk_full[sel]
        sg = sg_full[sel]
        pos = np.arange(m)
        run_start = np.ones(m, dtype=bool)
        run_start[1:] = (sk[1:] != sk[:-1]) | (sg[1:] != sg[:-1])
        start_pos = np.maximum.accumulate(np.where(run_start, pos, 0))
        source = start_pos - 1
        ok = (source >= 0) & (sk[np.maximum(source, 0)] == sk)
        prev[si[ok], j] = si[source[ok]]
    return prev


def _valhalla_predictions(trace, carries: np.ndarray,
                          n_preds: np.ndarray) -> np.ndarray:
    """Single history bit per adder, broadcast to every slice.

    Our VaLHALLA reconstruction: each (hardware) adder — identified by
    the thread it serves — remembers whether the previous operation's
    carry chain was carry-heavy (majority of slice boundaries saw a
    carry) and broadcasts that single bit as the prediction for *all*
    slices of the next operation.
    """
    n = len(trace)
    keys = trace.gtid.astype(np.int64)
    prev = previous_same_key_batch(keys, np.arange(n),
                                   np.ones((n, 1), dtype=bool))[:, 0]
    carry_sum = np.zeros(n, dtype=np.int64)
    for j in range(MAX_PREDICTIONS):
        carry_sum += carries[:, j + 1] * (n_preds > j)
    broadcast = np.zeros(n, dtype=np.uint8)
    has = prev >= 0
    prev_sum = carry_sum[prev[has]]
    prev_n = np.maximum(n_preds[prev[has]], 1)
    broadcast[has] = (2 * prev_sum > prev_n).astype(np.uint8)
    return np.repeat(broadcast[:, None], MAX_PREDICTIONS, axis=1)


def predict_trace_batch(trace, config: SpeculationConfig,
                        pack: TracePack) -> Prediction:
    """Every carry prediction ``config`` makes over a whole trace.

    ``bits`` are the predicted carries, ``has_prev`` marks history
    hits (``prev`` mechanism) and ``peek_known`` the boundaries the
    runtime Peek rule resolved.
    """
    n = pack.n_rows
    has_prev = np.zeros((n, MAX_PREDICTIONS), dtype=bool)
    if config.mechanism == "static0":
        bits = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    elif config.mechanism == "static1":
        bits = np.ones((n, MAX_PREDICTIONS), dtype=np.uint8)
    elif config.mechanism == "operand":
        bits = pack.peek_value.copy()
    elif config.mechanism == "valhalla":
        bits = _valhalla_predictions(trace, pack.carries, pack.n_preds)
    else:  # prev
        keys = history_keys(trace, config)
        groups = trace_groups(trace)
        prev = previous_same_key_batch(keys, groups, pack.pred_valid)
        has_prev = prev >= 0
        idx = np.where(has_prev, prev, 0)
        # bits[r, j] = carries[prev[r, j], j + 1] in one gather
        vals = np.take_along_axis(pack.carries[:, 1:], idx, axis=0)
        bits = np.where(has_prev, vals, np.uint8(0))
    peek_known = np.zeros((n, MAX_PREDICTIONS), dtype=bool)
    if config.peek:
        peek_known = pack.peek_known
        bits = np.where(peek_known, pack.peek_value, bits)
    return Prediction(config=config, bits=bits, has_prev=has_prev,
                      peek_known=peek_known)


def evaluate_trace_batch(pack: TracePack, bits: np.ndarray) -> tuple:
    """ST2-adder outcome of a whole trace against prediction ``bits``.

    Returns ``(mispredicted, recomputed, wrong_bits)`` per row, from
    the padded generate/propagate tables.  Boundary ``j`` of a row only
    participates while ``j < n_preds`` (rows with a single slice never
    mispredict).
    """
    n = pack.n_rows
    assumed = np.empty((n, N_SLICES_MAX), dtype=np.uint8)
    assumed[:, 0] = pack.cin
    assumed[:, 1:] = bits
    # cycle-1 carry-out of each slice under its *assumed* carry-in
    couts = pack.gen | (pack.prop & assumed)
    # E[i]: prediction for slice i vs predecessor's cycle-1 carry-out
    errors = (bits != couts[:, :MAX_PREDICTIONS]) & pack.pred_valid
    # S[i] = OR of E[1..i]: suspicion propagates to every higher slice
    suspect = np.cumsum(errors, axis=1) > 0
    mispredicted = errors.any(axis=1)
    recomputed = (suspect & pack.pred_valid).sum(axis=1) \
        .astype(np.int64)
    wrong_bits = ((bits != pack.carries[:, 1:]) & pack.pred_valid) \
        .sum(axis=1).astype(np.int64)
    return mispredicted, recomputed, wrong_bits


def carry_match_rate_batch(trace, config: SpeculationConfig,
                           pack: TracePack) -> float:
    """Figure 3 metric over a pack: the fraction of slice carry-ins
    equal to the history predecessor's under ``config``'s index, over
    the (row, slice) pairs that have a predecessor (NaN if none)."""
    pred = predict_trace_batch(
        trace, replace(config, mechanism="prev", peek=False), pack)
    if not pred.has_prev.any():
        return float("nan")
    return float((pred.bits == pack.carries[:, 1:])[pred.has_prev]
                 .mean())
