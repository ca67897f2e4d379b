"""The shared-schedule timing pair over a pre-resolved plan.

Baseline and ST2 timelines are replayed under one schedule (see
:mod:`repro.sim.pipeline` for the SM model).  Everything about that
schedule is config-independent, so it is split from the replay:

* :func:`build_timing_plan` — once per trace: resident-block
  selection, the lexsorted per-warp instruction lists with their
  dispatch/latency/unit already resolved, the warp-instruction keys
  pre-matched (``searchsorted``) against the trace's warp-instruction
  ids, and the wave count.
* :func:`plan_miss_frac` — per config: the mispredicted-lane fraction
  of every planned instruction, as one vectorised ``bincount`` +
  gather.
* :func:`run_pair` — the event loop itself.

``TimingResult`` feeds the energy model's duration scaling; the tests
replay this loop against a slow, sequential reference timing model on
every suite kernel with random miss masks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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


@dataclass
class TimingPlan:
    """Everything config-independent about one run's timing pair."""

    #: per warp id: (dispatch, latency, unit-index, planned-row) lists,
    #: already in the reference's ``lexsort((seqs, warps))`` order
    warps: Dict[int, Tuple[List[int], List[int], List[int], List[int]]]
    warp_ids: List[int]         # np.unique order — fixes heap ties
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


def _schedule(insts: Any, launch: Any, gpu: GPUConfig) -> tuple:
    """The trace-independent half of a plan: ``(warp plans, warp ids,
    waves, resident (blocks, seqs, warps) in plan order)``."""
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
    dl_all = disp_lut[opcodes]
    ll_all = lat_lut[opcodes]
    ul_all = unit_lut[opcodes]

    # rows are sorted by warp (the lexsort's primary key), so every
    # warp's plan is a contiguous slice of the resolved columns
    uniq_warps = np.unique(warps)
    warp_ids = [int(w) for w in uniq_warps]
    starts = np.searchsorted(warps, uniq_warps, side="left")
    ends = np.searchsorted(warps, uniq_warps, side="right")
    warp_plans = {}
    for w, s, e in zip(warp_ids, starts, ends):
        warp_plans[w] = (dl_all[s:e].tolist(), ll_all[s:e].tolist(),
                         ul_all[s:e].tolist(),
                         list(range(int(s), int(e))))

    waves = max(1, math.ceil(launch.grid_blocks
                             / (len(resident) * gpu.n_sms)))
    return warp_plans, warp_ids, waves, (blocks, seqs, warps)


def build_timing_plan(run: Any, gpu: GPUConfig = TITAN_V) -> TimingPlan:
    """Resolve every config-independent decision of the pair sim."""
    warp_plans, warp_ids, waves, (blocks, seqs, warps) = _schedule(
        run.insts, run.launch, gpu)
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
    return TimingPlan(warps=warp_plans, warp_ids=warp_ids,
                      n_insts=len(blocks), waves=waves,
                      inst_pos=pos, inst_match=match,
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


def run_pair(plan: TimingPlan, miss_frac: np.ndarray) -> tuple:
    """Replay the baseline/ST2 shared-schedule pair over a plan.

    Scheduling decisions (warp issue order, FU assignment) follow the
    baseline; the ST2 timeline replays the identical instruction order
    with the recompute penalties added.  This isolates the *stall* cost
    of mispredictions from scheduling noise.  (The ``a if a > b else
    b`` forms below ARE ``max(b, a)``: floats that compare equal are
    the same value, so branch choice cannot change the result — only
    the per-iteration builtin-call cost.)
    """
    frac_list: List[float] = miss_frac.tolist()
    n_units = len(_UNITS)
    fu_free_b = [0.0] * n_units
    fu_free_s = [0.0] * n_units
    warp_ptr = {w: 0 for w in plan.warp_ids}
    comp_b: Dict[int, List[float]] = {w: [] for w in plan.warp_ids}
    comp_s: Dict[int, List[float]] = {w: [] for w in plan.warp_ids}
    stall_b = 0.0
    extra = 0
    makespan_b = 0.0
    makespan_s = 0.0

    heap: List[Tuple[float, float, int]] = [(0.0, 0.0, w)
                                            for w in plan.warp_ids]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    warps = plan.warps
    while heap:
        dep_b, dep_s, w = heappop(heap)
        ptr = warp_ptr[w]
        dl, ll, ul, row_list = warps[w]
        n_w = len(dl)
        if ptr >= n_w:
            continue
        dispatch = dl[ptr]
        latency = ll[ptr]
        unit = ul[ptr]

        cb = comp_b[w]
        cs = comp_s[w]
        if len(cb) >= ILP_DEPTH:
            d = cb[-ILP_DEPTH]
            if d > dep_b:
                dep_b = d
            d = cs[-ILP_DEPTH]
            if d > dep_s:
                dep_s = d

        f = fu_free_b[unit]
        start_b = f if f > dep_b else dep_b
        f = fu_free_s[unit]
        start_s = f if f > dep_s else dep_s
        stall_b += start_b - dep_b

        frac = frac_list[row_list[ptr]]
        if frac > 0:
            extra += 1
        next_b = start_b + dispatch
        next_s = start_s + dispatch
        fu_free_b[unit] = next_b
        fu_free_s[unit] = next_s + frac
        done_b = next_b + latency
        done_s = next_s + latency + (1 if frac > 0 else 0)
        cb.append(done_b)
        if len(cb) > 4:
            del cb[:-4]
        cs.append(done_s)
        if len(cs) > 4:
            del cs[:-4]
        if done_b > makespan_b:
            makespan_b = done_b
        if done_s > makespan_s:
            makespan_s = done_s
        warp_ptr[w] = ptr + 1
        if ptr + 1 < n_w:
            heappush(heap, (next_b, next_s, w))

    base = TimingResult(cycles=int(math.ceil(makespan_b)),
                        waves=plan.waves, instructions=plan.n_insts,
                        stall_cycles_fu=int(stall_b),
                        extra_recompute_insts=0)
    st2 = TimingResult(cycles=int(math.ceil(makespan_s)),
                       waves=plan.waves, instructions=plan.n_insts,
                       stall_cycles_fu=int(stall_b),
                       extra_recompute_insts=extra)
    return base, st2


def replay_pair(plan: TimingPlan, mispredicted: np.ndarray) -> tuple:
    """:func:`run_pair` for lane-level ``mispredicted`` flags, timed
    and counted in ``repro.obs``."""
    with obs.timer("sim.timing.pair"):
        base, st2 = run_pair(plan, plan_miss_frac(plan, mispredicted))
    obs.add("sim.timing.warp_insts", base.instructions)
    obs.add("sim.timing.stall_cycles_fu", base.stall_cycles_fu)
    obs.add("sim.timing.recompute_insts", st2.extra_recompute_insts)
    return base, st2


def baseline_timing(insts: Any, launch: Any,
                    gpu: GPUConfig = TITAN_V) -> TimingResult:
    """The baseline timeline alone: the planned schedule replayed with
    no mispredictions (no trace needed)."""
    warp_plans, warp_ids, waves, (blocks, _, _) = _schedule(insts,
                                                            launch, gpu)
    n = len(blocks)
    plan = TimingPlan(warps=warp_plans, warp_ids=warp_ids, n_insts=n,
                      waves=waves, inst_pos=np.zeros(n, dtype=np.int64),
                      inst_match=np.zeros(n, dtype=bool),
                      lane_inverse=np.zeros(0, dtype=np.int64),
                      lane_counts=np.zeros(0, dtype=np.int64), n_uniq=0)
    return run_pair(plan, np.zeros(n))[0]
