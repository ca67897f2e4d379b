"""Batched carry-speculation kernels: the one evaluation path.

Every prediction and ST2-adder evaluation in the repository runs here,
over a *whole trace*, on one byte per row and array.

**Bit layout.**  The widest adder (64 bits) has 8 slices of 8 bits and
7 speculated slice boundaries, so every per-row slice quantity fits in
one ``uint8``: bit ``j`` is slice ``j`` (``gen``, ``prop``) or the
boundary into slice ``j + 1`` (``carries``, the Peek facts and every
prediction).  A row of ``n_preds`` boundaries uses bits
``0 .. n_preds - 1`` (its last slice's ``gen``/``prop`` bit stays
zero: no boundary follows it); its *valid mask* is
``valid = (1 << n_preds) - 1`` and every consumer ANDs with it, so bits
past a row's last boundary never reach an output.  :func:`unpack_bits` / :func:`pack_bits`
convert to and from ``(N, k)`` 0/1 columns (``np.unpackbits`` /
``np.packbits`` with ``bitorder="little"``) for readers that want one
column per boundary.

* :class:`TracePack` — every config-independent derived byte of one
  trace: true boundary carries, per-slice generate/propagate summaries
  (the ``cout = G | (P & cin)`` identity of
  :meth:`~repro.core.adder.ST2Adder._slice_carry_outs`), runtime Peek
  facts, the architectural carry-in, ``n_preds`` and ``valid``.
* :func:`predict_trace_batch` — a whole-trace prediction.  The ``prev``
  mechanism sorts the history keys once and computes one predecessor
  array per *distinct* valid set (one per distinct ``n_preds``, since
  validity is a per-row prefix), each followed by one byte gather
  ``carries[prev] & group_mask``.
* :func:`evaluate_trace_batch` — the ST2-adder outcome from byte ops
  only: ``assumed = cin | bits << 1``, ``couts = gen | (prop &
  assumed)``, ``errors = (bits ^ couts) & valid``, every slice from the
  lowest error up is suspect, and the counts come from a 256-entry
  popcount table.
* :func:`previous_same_key_batch` — per-column history predecessors
  for callers with their own column layouts (the ablation studies).

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
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.predictors import (MAX_PREDICTIONS, Prediction,
                                   SpeculationConfig, history_keys,
                                   trace_groups, trace_n_predictions)

#: widest supported adder: 64 bits = 8 slices of 8 bits
N_SLICES_MAX = MAX_PREDICTIONS + 1

#: every boundary bit of a packed row
BOUNDARY_MASK = (1 << MAX_PREDICTIONS) - 1

#: set bits of every byte value (numpy < 2.0 has no ``bitwise_count``)
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)],
                    dtype=np.int64)

#: ``valid`` mask of a row with ``k`` boundaries, indexed by ``k``
_VALID = np.array([(1 << k) - 1 for k in range(N_SLICES_MAX + 1)],
                  dtype=np.uint8)

#: the history-table identity of a ``prev`` config: every field
#: :func:`~repro.core.predictors.history_keys` reads
HistoryKey = Tuple[str, int, str, bool]

_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BYTE_LSBS = np.uint64(0x0101010101010101)
_BYTE_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_BYTE_MSBS = np.uint64(0x8080808080808080)
# multiplying bits 8j (j = 0..7) by this lands bit 8j on bit 56 + j,
# with no two partial products on the same bit
_GATHER = np.uint64(0x0102040810204080)


def pack_bits(cols: np.ndarray) -> np.ndarray:
    """``(N, k)`` 0/1 columns (``k <= 8``) as one byte per row, bit
    ``j`` = column ``j``."""
    return np.packbits(np.asarray(cols, dtype=bool), axis=1,
                       bitorder="little")[:, 0]


def unpack_bits(packed: np.ndarray,
                k: int = MAX_PREDICTIONS) -> np.ndarray:
    """One byte per row as ``(N, k)`` uint8 columns, column ``j`` = bit
    ``j`` — the inverse of :func:`pack_bits`."""
    return np.unpackbits(np.asarray(packed, dtype=np.uint8)[:, None],
                         axis=1, count=k, bitorder="little")


def count_bits(packed: np.ndarray) -> int:
    """Total set bits over an array of bytes."""
    return int(np.count_nonzero(np.unpackbits(packed)))


def _byte_lsbs(word: np.ndarray) -> np.ndarray:
    """Bit ``8j`` of every uint64 ``word`` gathered into bit ``j`` of
    one byte."""
    return (((word & _BYTE_LSBS) * _GATHER) >> _U64(56)).astype(np.uint8)


def _operands_u64(trace: Any) -> Tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
    """``(a, b, width, mask)`` with both operands reinterpreted as
    unsigned and masked to each row's width — the vectorised-over-rows
    form of :func:`~repro.core.bitops.to_unsigned`."""
    width = np.asarray(trace.width).astype(_U64)
    m = _ALL_ONES >> (_U64(64) - width)
    a = np.asarray(trace.op_a).astype(np.int64).view(_U64) & m
    b = np.asarray(trace.op_b).astype(np.int64).view(_U64) & m
    return a, b, width, m


def _slice_carries_all(trace: Any) -> np.ndarray:
    """True carry into slices 1..7, bit ``j`` = slice ``j + 1``.

    Slice ``j`` always starts at bit ``8j``, and a row's carry word is
    masked to its width, so slices a narrow adder does not have read
    zero.  (The carry into slice 0 is the trace's ``cin``.)
    """
    a, b, _width, m = _operands_u64(trace)
    cin = np.asarray(trace.cin, dtype=_U64)
    s = (a + b + cin) & m               # uint64 wrap-around intended
    return _byte_lsbs((a ^ b ^ s) >> _U64(8))


def _peek_all(trace: Any, valid: np.ndarray) -> Tuple[np.ndarray,
                                                      np.ndarray]:
    """``(known, value)`` bytes of the runtime Peek rule.

    A valid boundary ``j`` ends a full slice, so the MSB it peeks at is
    bit ``8j + 7``; boundaries past a row's last are masked off with
    ``valid``.  ``value`` (both MSbs one) is also the CASA-style
    ``operand`` prediction: the generate bit of the previous slice's
    MSB.
    """
    # only bits below each row's width are read, so the raw uint64
    # reinterpretation needs no mask
    a = np.asarray(trace.op_a).astype(np.int64).view(_U64)
    b = np.asarray(trace.op_b).astype(np.int64).view(_U64)
    known = _byte_lsbs(~(a ^ b) >> _U64(7)) & valid
    value = _byte_lsbs((a & b) >> _U64(7)) & valid
    return known, value


def _gen_prop_all(trace: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slice generate/propagate bytes: bit ``j`` of ``gen`` is
    slice ``j``'s carry-out under carry-in 0, bit ``j`` of ``prop``
    marks carry-in 1 flipping it.  A row's last slice and the slices
    past it are zero: no speculated boundary follows the last slice,
    so its carry-out never reaches an output (``valid`` masks it).

    Both come from byte-isolated sums (no carry crosses a byte): the
    carry out of every bit under slice carry-in 0 and 1, read at each
    full slice's MSB, bit ``8j + 7``.
    """
    a, b, width, _m = _operands_u64(trace)
    x = a ^ b
    g = a & b
    low = (a & _BYTE_LOW7) + (b & _BYTE_LOW7)     # < 0xff per byte
    cout0 = g | (x & (x ^ low ^ (x & _BYTE_MSBS)))
    cout1 = g | (x & (x ^ (low + _BYTE_LSBS) ^ (x & _BYTE_MSBS)))
    # the slices below the row's last one
    below = _VALID[((width - _U64(1)) >> _U64(3)).astype(np.uint8)]
    gen = _byte_lsbs(cout0 >> _U64(7)) & below
    c1 = _byte_lsbs(cout1 >> _U64(7)) & below
    return gen, c1 & ~gen


@dataclass
class TracePack:
    """Config-independent derived bytes of one :class:`AddTrace`, one
    ``uint8`` per row and field (see the module docstring for the bit
    layout).

    Built once per trace (a few vectorised passes over the memmapped
    columns) and shared by every SpeculationConfig evaluated against
    it, by the static-peek overlay and by the auxiliary VaLHALLA and
    Figure 3 measurements.

    ``gen`` and ``prop`` hold bits ``0 .. n_preds - 1`` only: a row's
    last slice feeds no speculated boundary, so its bit is left zero.
    """

    n_rows: int
    n_preds: np.ndarray         # speculated boundaries per row, 0..7
    valid: np.ndarray           # (1 << n_preds) - 1
    carries: np.ndarray         # true carry into slice j + 1
    gen: np.ndarray             # slice j generates a carry-out
    prop: np.ndarray            # slice j propagates its carry-in
    peek_known: np.ndarray      # runtime Peek resolved boundary j
    peek_value: np.ndarray      # ... to this carry
    cin: np.ndarray             # architectural carry-in (0/1)

    @property
    def history_lookups(self) -> int:
        """Total (row, boundary) pairs a history table would look up —
        ``core.predict.history_lookups`` per prediction."""
        return int(self.n_preds.sum())

    def rows(self, idx: np.ndarray) -> "TracePack":
        """The pack restricted to ``idx`` — a row-subset view used to
        re-evaluate only the rows a prediction overlay changed."""
        return TracePack(
            n_rows=len(idx), n_preds=self.n_preds[idx],
            valid=self.valid[idx], carries=self.carries[idx],
            gen=self.gen[idx], prop=self.prop[idx],
            peek_known=self.peek_known[idx],
            peek_value=self.peek_value[idx], cin=self.cin[idx])


def build_pack(trace: Any) -> TracePack:
    """Derive every config-independent byte of ``trace``.

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
    n_preds = trace_n_predictions(trace).astype(np.uint8)
    valid = _VALID[n_preds]
    peek_known, peek_value = _peek_all(trace, valid)
    gen, prop = _gen_prop_all(trace)
    return TracePack(
        n_rows=n, n_preds=n_preds, valid=valid,
        carries=_slice_carries_all(trace), gen=gen, prop=prop,
        peek_known=peek_known, peek_value=peek_value,
        cin=np.asarray(trace.cin, dtype=np.uint8))


def _run_predecessors(si: np.ndarray, sk: np.ndarray,
                      sg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, sources)``: the rows of ``si`` that have a history
    predecessor, and that predecessor.

    ``si`` are row indices in stable key order (keys ``sk``, groups
    ``sg``).  A row's predecessor is the last row of the previous run
    of its key, where a run is the rows of one key and one group.
    """
    m = len(si)
    if m < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    new_key = np.empty(m, dtype=bool)
    new_key[0] = True
    np.not_equal(sk[1:], sk[:-1], out=new_key[1:])
    run_start = new_key.copy()
    run_start[1:] |= sg[1:] != sg[:-1]
    start = np.maximum.accumulate(np.where(run_start, np.arange(m), 0))
    # a run that does not open its key has the previous run's last row
    ok = ~new_key[start]
    return si[ok], si[start[ok] - 1]


def previous_same_key_batch(keys: np.ndarray, groups: np.ndarray,
                            valid_cols: np.ndarray) -> np.ndarray:
    """Per-column history predecessors from one stable argsort.

    For each column ``j`` of ``valid_cols`` (shape ``(N, k)``), the
    index of the previous valid row with the same key, or -1.  Rows
    are in logical-time order; this is the core of every history-table
    mechanism.  The ``keys`` array is sorted only once: each column's
    valid subset is a subsequence of the rows in time order, and the
    stable sort of a subsequence equals the subsequence of the stable
    sort of the whole array.  A column whose valid set equals the
    previous column's copies its predecessors instead of recomputing
    them.

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
            # same valid set as the previous column: same predecessors
            prev[:, j] = prev[:, j - 1]
            continue
        rows, sources = _run_predecessors(order[sel], sk_full[sel],
                                          sg_full[sel])
        prev[rows, j] = sources
    return prev


def _history_predictions(trace: Any, config: SpeculationConfig,
                         pack: TracePack, groups: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """``(bits, hits)`` of the ``prev`` mechanism without Peek, for the
    trace's :func:`~repro.core.predictors.trace_groups` ``groups``.

    Boundary ``j`` is looked up by the rows with ``n_preds > j``, so the
    boundaries between two consecutive distinct ``n_preds`` values
    share one valid set — and one predecessor array, gathered from
    ``carries`` under that boundary group's mask.
    """
    n = pack.n_rows
    bits = np.zeros(n, dtype=np.uint8)
    hits = np.zeros(n, dtype=np.uint8)
    counts = np.bincount(pack.n_preds, minlength=N_SLICES_MAX)
    if n < 2 or not counts[1:].any():
        return bits, hits
    keys = history_keys(trace, config)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    sg = groups[order]
    sn = pack.n_preds[order]
    done = 0                                    # boundaries covered
    for d in np.flatnonzero(counts[1:]) + 1:
        group = np.uint8(_VALID[d] & ~_VALID[done])
        if counts[:d].any():
            sel = sn >= d
            rows, sources = _run_predecessors(order[sel], sk[sel],
                                              sg[sel])
        else:                                   # every row is valid
            rows, sources = _run_predecessors(order, sk, sg)
        bits[rows] |= pack.carries[sources] & group
        hits[rows] |= group
        done = d
    return bits, hits


def _valhalla_predictions(trace: Any, pack: TracePack) -> np.ndarray:
    """Single history bit per adder, broadcast to every slice.

    Our VaLHALLA reconstruction: each (hardware) adder — identified by
    the thread it serves — remembers whether the previous operation's
    carry chain was carry-heavy (majority of slice boundaries saw a
    carry) and broadcasts that single bit as the prediction for *all*
    slices of the next operation.
    """
    n = pack.n_rows
    bits = np.zeros(n, dtype=np.uint8)
    order = np.argsort(trace.gtid.astype(np.int64), kind="stable")
    rows, sources = _run_predecessors(
        order, trace.gtid.astype(np.int64)[order], order)
    carry_sum = _POPCOUNT[pack.carries[sources] & pack.valid[sources]]
    heavy = 2 * carry_sum > np.maximum(pack.n_preds[sources], 1)
    bits[rows] = np.where(heavy, BOUNDARY_MASK, 0)
    return bits


class HistoryMemo:
    """One trace's memo of the ``prev`` mechanism: its
    :func:`~repro.core.predictors.trace_groups` column, computed on
    first use, and the ``(bits, hits)`` predictions per history key.
    ``len()`` is the number of keys predicted."""

    def __init__(self) -> None:
        self._groups: Optional[np.ndarray] = None
        self.predictions: Dict[HistoryKey,
                               Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.predictions)

    def groups(self, trace: Any) -> np.ndarray:
        """The trace's simultaneity groups (read-only)."""
        if self._groups is None:
            self._groups = trace_groups(trace)
            self._groups.flags.writeable = False
        return self._groups


def predict_trace_batch(trace: Any, config: SpeculationConfig,
                        pack: TracePack,
                        history: Optional[HistoryMemo] = None
                        ) -> Prediction:
    """Every carry prediction ``config`` makes over a whole trace.

    ``bits`` are the predicted carries, ``has_prev`` marks history
    hits (``prev`` mechanism) and ``peek_known`` the boundaries the
    runtime Peek rule resolved — one byte per row each.

    ``history`` memoises, for this trace, the ``prev`` mechanism's
    simultaneity groups (config-independent) and its ``(bits, hits)``
    per history index (``pc_index``, ``pc_bits``, ``thread_key``,
    ``sm_scoped``), so configs that differ only in ``peek`` share one
    sort.  A prediction's arrays may be shared with the pack or the
    memo (the memoised ones are read-only): callers never write to
    them.
    """
    n = pack.n_rows
    has_prev = np.zeros(n, dtype=np.uint8)
    if config.mechanism == "static0":
        bits = np.zeros(n, dtype=np.uint8)
    elif config.mechanism == "static1":
        bits = np.full(n, BOUNDARY_MASK, dtype=np.uint8)
    elif config.mechanism == "operand":
        bits = pack.peek_value.copy()
    elif config.mechanism == "valhalla":
        bits = _valhalla_predictions(trace, pack)
    else:  # prev
        key = (config.pc_index, config.pc_bits, config.thread_key,
               config.sm_scoped)
        if history is None:
            history = HistoryMemo()
        memo = history.predictions.get(key)
        if memo is None:
            memo = _history_predictions(trace, config, pack,
                                        history.groups(trace))
            for arr in memo:
                arr.flags.writeable = False
            history.predictions[key] = memo
        bits, has_prev = memo
    peek_known = np.zeros(n, dtype=np.uint8)
    if config.peek:
        peek_known = pack.peek_known
        bits = (bits & ~peek_known) | pack.peek_value
    return Prediction(config=config, bits=bits, has_prev=has_prev,
                      peek_known=peek_known)


def evaluate_trace_batch(pack: TracePack, bits: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ST2-adder outcome of a whole trace against prediction ``bits``
    (one byte per row).

    Returns ``(mispredicted, recomputed, wrong_bits)`` per row.
    Boundary ``j`` of a row only participates while ``j < n_preds``
    (rows with a single slice never mispredict).
    """
    valid = pack.valid
    # cycle-1 carry-out of each slice under its *assumed* carry-in
    couts = pack.gen | (pack.prop & (pack.cin | (bits << 1)))
    # E[j]: prediction into slice j + 1 vs slice j's cycle-1 carry-out
    errors = (bits ^ couts) & valid
    # S[j] = OR of E[0..j]: every slice from the lowest error upward
    suspect = ~((errors & -errors) - 1) & valid
    return (errors != 0, _POPCOUNT[suspect],
            _POPCOUNT[(bits ^ pack.carries) & valid])


def carry_match_rate_batch(trace: Any, config: SpeculationConfig,
                           pack: TracePack) -> float:
    """Figure 3 metric over a pack: the fraction of slice carry-ins
    equal to the history predecessor's under ``config``'s index, over
    the (row, slice) pairs that have a predecessor (NaN if none)."""
    pred = predict_trace_batch(
        trace, replace(config, mechanism="prev", peek=False), pack)
    lookups = count_bits(pred.has_prev)
    if not lookups:
        return float("nan")
    return count_bits(~(pred.bits ^ pack.carries) & pred.has_prev) \
        / lookups
