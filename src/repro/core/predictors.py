"""Carry-speculation mechanisms (the paper's Section IV-B design space).

A :class:`SpeculationConfig` names one point in the design space:

* ``mechanism`` — how the *dynamic* prediction is produced:
  ``static0`` / ``static1`` (always 0 / 1), ``operand`` (CASA-style
  stateless prediction from the operands), ``valhalla`` (a single
  history bit per adder broadcast to every slice — our reconstruction of
  the VaLHALLA GLSVLSI'17 predictor) or ``prev`` (the paper's
  per-slice previous-carry history table).
* ``peek`` — overlay the Peek rule: when the MSbs of both operands of
  the previous slice agree, the carry-in is statically known and no
  dynamic speculation is used (Section IV-B).
* ``pc_index`` / ``pc_bits`` — how the PC participates in the history
  index: ``none`` (all instructions alias), ``full``, ``mod`` (lowest k
  bits — ModPCk) or ``xor`` (XOR-hash of k-bit PC chunks).
* ``thread_key`` — history sharing across threads: ``None`` (all threads
  share), ``"gtid"`` (fully private per thread) or ``"ltid"`` (shared
  across warps by lane — the ST2 choice).
* ``sm_scoped`` — scope tables per SM (the physical CRF is per-SM).

Predictions are computed over an entire :class:`~repro.sim.trace.AddTrace`
at once by the batched kernels of :mod:`repro.core.batch`; the
per-trace functions here are thin wrappers over them.  The history-table
semantics ("the prediction for an operation is the carry vector stored
by the most recent earlier operation with the same index") vectorises
into a grouped shift along the trace's logical time order; a dict-based
sequential reference implementation lives in :mod:`repro.core.history`
and the two are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs

MAX_PREDICTIONS = 7  # the widest adder (64-bit) has 8 slices


@dataclass(frozen=True)
class SpeculationConfig:
    """One point in the carry-speculation design space."""

    name: str
    mechanism: str = "prev"         # static0|static1|operand|valhalla|prev
    peek: bool = False
    pc_index: str = "none"          # none|full|mod|xor
    pc_bits: int = 0
    thread_key: str = ""            # ""|gtid|ltid
    sm_scoped: bool = False

    def __post_init__(self) -> None:
        if self.mechanism not in ("static0", "static1", "operand",
                                  "valhalla", "prev"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.pc_index not in ("none", "full", "mod", "xor"):
            raise ValueError(f"unknown pc_index {self.pc_index!r}")
        if self.pc_index in ("mod", "xor") and self.pc_bits < 1:
            raise ValueError("mod/xor PC indexing needs pc_bits >= 1")
        if self.thread_key not in ("", "gtid", "ltid"):
            raise ValueError(f"unknown thread_key {self.thread_key!r}")

    def table_entries(self, max_threads: int = 2048) -> int:
        """History-table entry count implied by the index (for sizing)."""
        pc_entries = {"none": 1, "full": 1 << 16}.get(
            self.pc_index, 1 << self.pc_bits)
        thread_entries = {"": 1, "gtid": max_threads, "ltid": 32}[
            self.thread_key]
        return pc_entries * thread_entries


# ----------------------------------------------------------------------
# trace-level derived quantities
# ----------------------------------------------------------------------

def trace_n_predictions(trace) -> np.ndarray:
    """Per-row number of speculated carries (slices - 1)."""
    return (trace.width.astype(np.int64) + 7) // 8 - 1


def trace_slice_carries(trace) -> np.ndarray:
    """True carry-in of every slice, padded to 8 columns."""
    from repro.core.batch import build_pack
    return build_pack(trace).carries


def trace_peek(trace) -> tuple:
    """Peek rule over the whole trace.

    Returns ``(known, value)`` of shape ``(N, 7)``: ``known[r, j]`` is
    True when the carry into slice ``j+1`` is statically determined by
    the MSbs of slice ``j`` of both operands (both zero → 0, both one →
    1), and ``value`` holds that static carry.
    """
    from repro.core.batch import build_pack
    pack = build_pack(trace)
    return pack.peek_known, pack.peek_value


def trace_groups(trace) -> np.ndarray:
    """Simultaneity groups: one id per dynamic warp instruction."""
    return (trace.seq.astype(np.int64) << 24) + trace.warp.astype(np.int64)


def _xor_fold(pc: np.ndarray, bits: int) -> np.ndarray:
    """XOR-hash of ``bits``-wide PC chunks (the paper's 'more complex
    PC-based indexing', shown to provide no additional benefit)."""
    folded = np.zeros(len(pc), dtype=np.int64)
    v = pc.astype(np.int64).copy()
    m = (1 << bits) - 1
    while np.any(v):
        folded ^= v & m
        v >>= bits
    return folded


def history_keys(trace, config: SpeculationConfig) -> np.ndarray:
    """Combined history-table index per trace row."""
    pc = trace.pc.astype(np.int64)
    if config.pc_index == "none":
        pc_part = np.zeros(len(trace), dtype=np.int64)
    elif config.pc_index == "full":
        pc_part = pc
    elif config.pc_index == "mod":
        pc_part = pc & ((1 << config.pc_bits) - 1)
    else:  # xor
        pc_part = _xor_fold(pc, config.pc_bits)
    if config.thread_key == "gtid":
        thread_part = trace.gtid.astype(np.int64)
    elif config.thread_key == "ltid":
        thread_part = trace.ltid.astype(np.int64)
    else:
        thread_part = np.zeros(len(trace), dtype=np.int64)
    sm_part = (trace.sm.astype(np.int64) if config.sm_scoped
               else np.zeros(len(trace), dtype=np.int64))
    return pc_part + (thread_part << 24) + (sm_part << 56)


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------

@dataclass
class Prediction:
    """Predictions for a whole trace, padded to 7 columns."""

    config: SpeculationConfig
    bits: np.ndarray            # (N, 7) uint8
    has_prev: np.ndarray        # (N, 7) bool — history hit (prev mechanisms)
    peek_known: np.ndarray      # (N, 7) bool — statically determined bits


def predict_trace(trace, config: SpeculationConfig,
                  carries: np.ndarray = None) -> Prediction:
    """Compute every carry prediction the mechanism would make.

    ``carries`` optionally supplies the trace's precomputed true slice
    carry-ins (:func:`trace_slice_carries`)."""
    from repro.core.batch import build_pack, predict_trace_batch
    with obs.span("core.predict"):
        pack = build_pack(trace)
        if carries is not None:
            pack.carries = carries
        pred = predict_trace_batch(trace, config, pack)
    count_speculation(pack.n_rows, prediction=pred,
                      history_lookups=pack.history_lookups)
    return pred


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@dataclass
class SpeculationResult:
    """Outcome of running ST2 adders over a trace with a mechanism."""

    config: SpeculationConfig
    n_ops: int
    mispredicted: np.ndarray        # (N,) bool — op needed a 2nd cycle
    recomputed: np.ndarray          # (N,) int — suspect slices recomputed
    wrong_bits: np.ndarray          # (N,) int — raw prediction errors

    @property
    def thread_misprediction_rate(self) -> float:
        """The paper's Figures 5/6 metric."""
        return float(self.mispredicted.mean()) if self.n_ops else 0.0

    @property
    def recomputed_per_misprediction(self) -> float:
        """Average slices recomputed per mispredicted operation
        (the paper reports 1.94 on average, up to 2.73)."""
        n_miss = int(self.mispredicted.sum())
        if not n_miss:
            return 0.0
        return float(self.recomputed.sum() / n_miss)

    @property
    def extra_cycle_fraction(self) -> float:
        return self.thread_misprediction_rate


def evaluate_trace(trace, prediction: Prediction) -> SpeculationResult:
    """Run the ST2 adder over the trace with the given predictions."""
    from repro.core.batch import build_pack, evaluate_trace_batch
    n = len(trace)
    with obs.span("core.evaluate"):
        mispredicted, recomputed, wrong_bits = evaluate_trace_batch(
            build_pack(trace), prediction.bits)
    result = SpeculationResult(config=prediction.config, n_ops=n,
                               mispredicted=mispredicted,
                               recomputed=recomputed,
                               wrong_bits=wrong_bits)
    count_speculation(n, result=result)
    return result


def count_speculation(n: int, prediction: Optional[Prediction] = None,
                      history_lookups: int = 0,
                      result: Optional[SpeculationResult] = None
                      ) -> None:
    """Add one prediction (``prediction``, with its ``history_lookups``)
    and/or one adder evaluation (``result``) over ``n`` operations to
    the ``core.predict.*`` / ``core.adder.*`` counters — the one
    emitter behind :func:`predict_trace`, :func:`evaluate_trace` and
    the evaluation engine."""
    if prediction is not None:
        obs.add("core.predict.ops", n)
        obs.add("core.predict.history_lookups", history_lookups)
        obs.add("core.predict.history_hits",
                int(prediction.has_prev.sum()))
        obs.add("core.predict.peek_static",
                int(prediction.peek_known.sum()))
    if result is not None:
        obs.add("core.adder.ops", n)
        obs.add("core.adder.mispredicts", int(result.mispredicted.sum()))
        obs.add("core.adder.recomputed_slices",
                int(result.recomputed.sum()))
        obs.add("core.adder.wrong_bits", int(result.wrong_bits.sum()))


def run_speculation(trace, config: SpeculationConfig) -> SpeculationResult:
    """Predict + evaluate in one call."""
    return evaluate_trace(trace, predict_trace(trace, config))


# ----------------------------------------------------------------------
# static carry facts (compile-time Peek)
# ----------------------------------------------------------------------

def _fact_fields(fact) -> tuple:
    """``(width, {boundary: carry})`` from a fact-table entry.

    Accepts both :class:`repro.lint.facts.CarryFact` objects and the
    plain dicts of a ``st2-lint facts --json`` export (whose carries
    keys are strings).
    """
    if isinstance(fact, dict):
        width = int(fact["width"])
        carries = {int(j): int(c) for j, c in fact["carries"].items()}
    else:
        width = int(fact.width)
        carries = {int(j): int(c) for j, c in fact.carries.items()}
    return width, carries


def trace_static_peek(trace, facts) -> tuple:
    """Compile-time carry facts over the whole trace.

    ``facts`` maps PC labels (``function:line[#tag]``, the identity
    :class:`repro.isa.pc.PcTable` stores) to proven slice-boundary
    carries — the output of ``st2-lint facts`` /
    :func:`repro.lint.facts.facts_for_kernel`.  Returns ``(known,
    value)`` of shape ``(N, 7)`` in the same convention as
    :func:`trace_peek`: ``known[r, j]`` means the carry into slice
    ``j+1`` of row ``r`` is statically proven to be ``value[r, j]``.

    Rows match a fact only on exact label *and* width: labels are not
    unique across op classes (an FP add can share a source line with
    an integer add), so the width check keeps facts from leaking onto
    rows they were not proven for.
    """
    n = len(trace)
    known = np.zeros((n, MAX_PREDICTIONS), dtype=bool)
    value = np.zeros((n, MAX_PREDICTIONS), dtype=np.uint8)
    labels = getattr(trace, "pc_labels", None)
    if not labels or not facts:
        return known, value
    pc = trace.pc.astype(np.int64)
    width = trace.width.astype(np.int64)
    for pc_id, label in enumerate(labels):
        fact = facts.get(label)
        if fact is None:
            continue
        f_width, carries = _fact_fields(fact)
        rows = (pc == pc_id) & (width == f_width)
        if not rows.any():
            continue
        for j, c in carries.items():
            if 0 <= j < MAX_PREDICTIONS:
                known[rows, j] = True
                value[rows, j] = c
    return known, value


def carry_match_rate(trace, config: SpeculationConfig,
                     pack=None) -> float:
    """Figure 3 metric: fraction of slice carry-ins matching the
    predecessor's, over (row, slice) pairs that have a predecessor.

    ``pack`` is the trace's :class:`~repro.core.batch.TracePack` when
    the caller already holds one (built here otherwise)."""
    from repro.core.batch import build_pack, carry_match_rate_batch
    return carry_match_rate_batch(
        trace, config, pack if pack is not None else build_pack(trace))
