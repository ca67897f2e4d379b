"""The shared-schedule timing pair over a pre-resolved plan.

Baseline and ST2 timelines are replayed under one schedule (see
:mod:`repro.sim.pipeline` for the SM model).  Everything about that
schedule is config-independent, so it is split from the replay:

* :func:`build_timing_plan` — once per trace: resident-block
  selection, the planned rows in the reference's ``lexsort((seqs,
  warps))`` order as flat per-row ``dispatch`` / ``latency`` / ``unit``
  columns with each warp's ``[start, end)`` row range (warps in
  ``np.unique`` order, i.e. ascending warp id), the warp-instruction
  keys pre-matched (``searchsorted``) against the trace's
  warp-instruction ids, and the wave count.
* :func:`plan_miss_frac` — per config: the mispredicted-lane fraction
  of every planned row, as one vectorised ``bincount`` + gather.
* :func:`run_pair` — the event loop itself: one heap entry
  ``(dep_b, dep_s, warp_pos, row)`` per warp with rows left, advanced
  in place with ``heapreplace``.  ``warp_pos`` is unique per entry, so
  equal readiness breaks on warp position, which is warp id order
  (the reference's tie-break), and ``row`` is never compared.
* :func:`replay_pair` — the counted per-unit call.  ``run_pair`` is a
  pure function of ``(plan, miss_frac)``, so the plan memoises its
  pairs under a 16-byte digest of the fraction vector: configs whose
  mispredictions give equal fractions replay once.

``TimingResult`` feeds the energy model's duration scaling; the tests
replay this loop against a slow, sequential reference timing model on
every suite kernel with random miss masks.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.isa.opcodes import FunctionalUnit
from repro.sim.config import GPUConfig, TITAN_V
from repro.sim.pipeline import (ILP_DEPTH, TimingResult, _pool_width,
                                _resident_blocks)
from repro.sim.trace import opcode_from_id

_UNITS = list(FunctionalUnit)
_UNIT_INDEX = {unit: i for i, unit in enumerate(_UNITS)}

#: field limits of the warp-instruction key packing
#: ``(block << 44) + (seq << 20) + warp``
_KEY_FIELDS = (("block", 1 << 19), ("seq", 1 << 24), ("warp", 1 << 20))

# run_pair keeps a warp's last ILP_DEPTH completions in two slots
assert ILP_DEPTH == 2, "run_pair's completion slots assume ILP_DEPTH == 2"


@dataclass
class TimingPlan:
    """Everything config-independent about one run's timing pair."""

    #: each warp's planned rows are ``range(starts[i], ends[i])``, warps
    #: in ``np.unique`` order — the order that breaks heap ties
    starts: List[int]
    ends: List[int]
    #: per planned row, already in the reference's
    #: ``lexsort((seqs, warps))`` order
    dispatch: List[int]
    latency: List[int]
    unit: List[int]             # index into ``_UNITS``
    n_insts: int                # resident warp instructions
    waves: int
    #: warp-instruction key per planned row, and its pre-computed match
    #: against the trace's sorted unique warp-instruction ids
    inst_pos: np.ndarray        # (n_insts,) index into the unique ids
    inst_match: np.ndarray      # (n_insts,) bool — key present in trace
    #: the trace side of the match: unique warp-instruction ids with
    #: their lane inverse mapping and lane counts
    lane_inverse: np.ndarray    # (n_trace_rows,)
    lane_counts: np.ndarray     # (n_uniq,) int64
    n_uniq: int
    #: :func:`replay_pair`'s memo: the pair per fraction-vector digest
    pairs: Dict[bytes, Tuple[TimingResult, TimingResult]] = field(
        default_factory=dict, repr=False, compare=False)


def _warp_inst_keys(block: np.ndarray, seq: np.ndarray,
                    warp: np.ndarray) -> np.ndarray:
    """One int64 key per ``(block, seq, warp)`` warp instruction.

    Raises :class:`ValueError` naming the field when an id falls
    outside its packed range (it would alias another instruction).
    """
    for (name, limit), ids in zip(_KEY_FIELDS, (block, seq, warp)):
        if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= limit):
            bad = int(ids.min()) if int(ids.min()) < 0 else int(ids.max())
            raise ValueError(f"field {name!r}: id {bad} outside the "
                             f"packed key range [0, {limit})")
    return ((block.astype(np.int64) << 44)
            + (seq.astype(np.int64) << 20)
            + warp.astype(np.int64))


def _schedule(insts: Any, launch: Any,
              gpu: GPUConfig) -> Tuple[Dict[str, Any], tuple]:
    """The trace-independent half of a plan: the :class:`TimingPlan`
    schedule fields, plus the resident ``(blocks, seqs, warps)`` in
    plan order."""
    resident = _resident_blocks(insts, gpu, launch.block_threads)
    sel = np.isin(insts.block, resident)
    blocks = insts.block[sel]
    seqs = insts.seq[sel]
    warps = insts.warp[sel]
    opcodes = insts.opcode[sel]
    order = np.lexsort((seqs, warps))
    blocks, seqs, warps, opcodes = (a[order] for a in
                                    (blocks, seqs, warps, opcodes))
    opcodes = np.asarray(opcodes, dtype=np.int64)

    # per-opcode-id dispatch / latency / unit, resolved once into
    # lookup tables (any id opcode_from_id accepts is a non-negative
    # enum position, so direct indexing is sound)
    uniq_ops = np.unique(opcodes)
    n_ids = int(uniq_ops[-1]) + 1 if len(uniq_ops) else 0
    disp_lut = np.zeros(n_ids, dtype=np.int64)
    lat_lut = np.zeros(n_ids, dtype=np.int64)
    unit_lut = np.zeros(n_ids, dtype=np.int64)
    for oid in uniq_ops:
        op = opcode_from_id(int(oid))
        unit = op.unit
        width = _pool_width(gpu, unit)
        dispatch = (math.ceil(gpu.warp_size / max(width // 4, 1))
                    if unit != FunctionalUnit.CONTROL else 1)
        disp_lut[oid] = dispatch
        lat_lut[oid] = op.latency
        unit_lut[oid] = _UNIT_INDEX[unit]

    # rows are sorted by warp (the lexsort's primary key), so every
    # warp's plan is a contiguous row range
    uniq_warps = np.unique(warps)
    waves = max(1, math.ceil(launch.grid_blocks
                             / (len(resident) * gpu.n_sms)))
    return dict(
        starts=np.searchsorted(warps, uniq_warps, side="left").tolist(),
        ends=np.searchsorted(warps, uniq_warps, side="right").tolist(),
        dispatch=disp_lut[opcodes].tolist(),
        latency=lat_lut[opcodes].tolist(),
        unit=unit_lut[opcodes].tolist(),
        n_insts=len(blocks), waves=waves), (blocks, seqs, warps)


def build_timing_plan(run: Any, gpu: GPUConfig = TITAN_V) -> TimingPlan:
    """Resolve every config-independent decision of the pair sim."""
    schedule, (blocks, seqs, warps) = _schedule(run.insts, run.launch, gpu)
    # pre-match the planned rows against the trace's warp-instruction
    # ids so per-config miss fractions become a pure gather
    tkey = _warp_inst_keys(run.trace.block, run.trace.seq,
                           run.trace.warp)
    uniq, lane_inverse, lane_counts = np.unique(
        tkey, return_inverse=True, return_counts=True)
    ikey = _warp_inst_keys(blocks, seqs, warps)
    if len(uniq):
        pos = np.searchsorted(uniq, ikey)
        pos = np.clip(pos, 0, len(uniq) - 1)
        match = uniq[pos] == ikey
    else:
        pos = np.zeros(len(ikey), dtype=np.int64)
        match = np.zeros(len(ikey), dtype=bool)
    return TimingPlan(**schedule, inst_pos=pos, inst_match=match,
                      lane_inverse=lane_inverse,
                      lane_counts=lane_counts.astype(np.int64),
                      n_uniq=len(uniq))


def plan_miss_frac(plan: TimingPlan,
                   mispredicted: np.ndarray) -> np.ndarray:
    """Mispredicted-lane fraction of every planned instruction: one
    lane's recompute stalls the whole warp (Section VI), but only that
    lane's adder stays occupied.  Instructions without adder lanes are
    0.0.
    """
    miss_counts = np.bincount(plan.lane_inverse,
                              weights=mispredicted.astype(float),
                              minlength=plan.n_uniq)
    if not plan.n_uniq:
        return np.zeros(len(plan.inst_pos), dtype=np.float64)
    frac = miss_counts / plan.lane_counts
    out: np.ndarray = np.where(plan.inst_match, frac[plan.inst_pos],
                               0.0)
    return out


def run_pair(plan: TimingPlan,
             miss_frac: np.ndarray) -> Tuple[TimingResult, TimingResult]:
    """Replay the baseline/ST2 shared-schedule pair over a plan.

    Scheduling decisions (warp issue order, FU assignment) follow the
    baseline; the ST2 timeline replays the identical instruction order
    with the recompute penalties added.  This isolates the *stall* cost
    of mispredictions from scheduling noise.

    The heap holds ``(dep_b, dep_s, warp_pos, row)`` for each warp with
    rows left: the warp's readiness on both timelines, its position in
    ``np.unique`` order and its next planned row.  Entries equal on both
    readiness times break on warp position, which is warp id order, as
    in the reference; ``warp_pos`` is unique, so ``row`` is never
    compared.  (Equal ``dep_b`` still breaks on ``dep_s`` first, so the
    baseline order can depend on the miss mask: ROADMAP item 1.)  The
    issued warp's entry is replaced in place (``heapreplace``) and
    popped after its last row.  Each warp keeps its last ``ILP_DEPTH``
    completions in two slots, ``-inf`` until written so that a warp's
    first two rows wait on nothing.

    Every float is formed in the reference's order: ``start +
    dispatch``, then ``+ latency``, then the recompute cycle (``+ 0``
    is left out: it is the identity on these non-negative floats).  The
    ``a if a > b else b`` forms ARE ``max(b, a)``: floats that compare
    equal are the same value, so branch choice cannot change the result
    — only the per-iteration builtin-call cost.
    """
    frac_of: List[float] = miss_frac.tolist()
    dispatch_of = plan.dispatch
    latency_of = plan.latency
    unit_of = plan.unit
    ends = plan.ends
    fu_free_b = [0.0] * len(_UNITS)
    fu_free_s = [0.0] * len(_UNITS)
    n_warps = len(ends)
    last_b = [-math.inf] * n_warps      # the warp's latest completion
    last_s = [-math.inf] * n_warps
    back_b = [-math.inf] * n_warps      # ... and the one before it
    back_s = [-math.inf] * n_warps
    stall_b = 0.0
    extra = 0
    makespan_b = 0.0
    makespan_s = 0.0

    # already a heap: every entry is ready at 0, in warp order
    heap: List[Tuple[float, float, int, int]] = [
        (0.0, 0.0, pos, start) for pos, start in enumerate(plan.starts)]
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    while heap:
        dep_b, dep_s, pos, row = heap[0]
        d = back_b[pos]
        if d > dep_b:
            dep_b = d
        d = back_s[pos]
        if d > dep_s:
            dep_s = d

        unit = unit_of[row]
        f = fu_free_b[unit]
        start_b = f if f > dep_b else dep_b
        f = fu_free_s[unit]
        start_s = f if f > dep_s else dep_s
        stall_b += start_b - dep_b

        dispatch = dispatch_of[row]
        latency = latency_of[row]
        next_b = start_b + dispatch
        next_s = start_s + dispatch
        fu_free_b[unit] = next_b
        done_b = next_b + latency
        frac = frac_of[row]
        if frac > 0:
            extra += 1
            fu_free_s[unit] = next_s + frac
            done_s = next_s + latency + 1
        else:
            fu_free_s[unit] = next_s
            done_s = next_s + latency
        back_b[pos] = last_b[pos]
        last_b[pos] = done_b
        back_s[pos] = last_s[pos]
        last_s[pos] = done_s
        if done_b > makespan_b:
            makespan_b = done_b
        if done_s > makespan_s:
            makespan_s = done_s
        row += 1
        if row < ends[pos]:
            heapreplace(heap, (next_b, next_s, pos, row))
        else:
            heappop(heap)

    base = TimingResult(cycles=int(math.ceil(makespan_b)),
                        waves=plan.waves, instructions=plan.n_insts,
                        stall_cycles_fu=int(stall_b),
                        extra_recompute_insts=0)
    st2 = TimingResult(cycles=int(math.ceil(makespan_s)),
                       waves=plan.waves, instructions=plan.n_insts,
                       stall_cycles_fu=int(stall_b),
                       extra_recompute_insts=extra)
    return base, st2


def replay_pair(plan: TimingPlan, mispredicted: np.ndarray
                ) -> Tuple[TimingResult, TimingResult]:
    """:func:`run_pair` for lane-level ``mispredicted`` flags, timed
    and counted in ``repro.obs``.

    Masks with equal miss fractions share one replay, memoised on the
    plan under a 16-byte ``blake2b`` digest of the fraction vector; the
    shared results are frozen.  The counters grow on every call, memo
    hit or not, so they do not depend on what the plan has seen.
    """
    with obs.span("sim.timing.pair"):
        frac = plan_miss_frac(plan, mispredicted)
        key = hashlib.blake2b(frac.tobytes(), digest_size=16).digest()
        pair = plan.pairs.get(key)
        if pair is None:
            pair = plan.pairs[key] = run_pair(plan, frac)
    base, st2 = pair
    obs.add("sim.timing.warp_insts", base.instructions)
    obs.add("sim.timing.stall_cycles_fu", base.stall_cycles_fu)
    obs.add("sim.timing.recompute_insts", st2.extra_recompute_insts)
    return base, st2


def baseline_timing(insts: Any, launch: Any,
                    gpu: GPUConfig = TITAN_V) -> TimingResult:
    """The baseline timeline alone: the planned schedule replayed with
    no mispredictions (no trace needed)."""
    schedule, _ = _schedule(insts, launch, gpu)
    n = schedule["n_insts"]
    plan = TimingPlan(**schedule, inst_pos=np.zeros(n, dtype=np.int64),
                      inst_match=np.zeros(n, dtype=bool),
                      lane_inverse=np.zeros(0, dtype=np.int64),
                      lane_counts=np.zeros(0, dtype=np.int64), n_uniq=0)
    return run_pair(plan, np.zeros(n))[0]
