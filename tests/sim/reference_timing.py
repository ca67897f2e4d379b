"""Slow, sequential reference for the shared-schedule timing pair.

This is the original per-instruction event loop of the SM timing model
(:mod:`repro.sim.pipeline`), kept verbatim as ground truth: it
re-derives the resident blocks, the per-warp instruction order and each
opcode's dispatch / latency / functional unit on every call, and looks
each warp instruction's misprediction fraction up in a dict.  The
production path (:func:`repro.sim.vec.timing.run_pair` over a
pre-resolved plan) is replayed against it in ``test_vec_timing.py`` and
``test_pipeline.py``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.isa.opcodes import FunctionalUnit
from repro.sim.config import GPUConfig, TITAN_V
from repro.sim.pipeline import (ILP_DEPTH, TimingResult, _pool_width,
                                _resident_blocks)
from repro.sim.trace import opcode_from_id


def reference_pair(run, mispredicted: np.ndarray,
                   gpu: GPUConfig = TITAN_V) -> tuple:
    """Baseline and ST2 timing of ``run`` under lane-level
    ``mispredicted`` flags, from the sequential loop."""
    return _simulate_sm_pair(run.insts, run.launch,
                             warp_misprediction_map(run.trace,
                                                    mispredicted), gpu)


def warp_misprediction_map(trace, mispredicted: np.ndarray) -> dict:
    """Aggregate lane-level mispredictions to warp instructions.

    Returns ``{(block, seq, warp): mispredicted-lane fraction}`` for
    every dynamic warp instruction in which any lane mispredicted — one
    lane's recompute stalls the whole warp (Section VI), but only that
    lane's adder stays occupied.
    """
    key = ((trace.block.astype(np.int64) << 44)
           + (trace.seq.astype(np.int64) << 20)
           + trace.warp.astype(np.int64))
    uniq, inverse, counts = np.unique(key, return_inverse=True,
                                      return_counts=True)
    miss_counts = np.bincount(inverse, weights=mispredicted.astype(float),
                              minlength=len(uniq))
    out: dict = {}
    hit = miss_counts > 0
    for k, frac in zip(uniq[hit], (miss_counts[hit] / counts[hit])):
        b = int(k >> 44)
        s = int((k >> 20) & ((1 << 24) - 1))
        w = int(k & ((1 << 20) - 1))
        out[(b, s, w)] = float(frac)
    return out


def _simulate_sm_pair(insts, launch, warp_mispredicts: dict,
                      gpu: GPUConfig = TITAN_V) -> tuple:
    resident = _resident_blocks(insts, gpu, launch.block_threads)
    sel = np.isin(insts.block, resident)
    blocks = insts.block[sel]
    seqs = insts.seq[sel]
    warps = insts.warp[sel]
    opcodes = insts.opcode[sel]
    order = np.lexsort((seqs, warps))
    blocks, seqs, warps, opcodes = (a[order] for a in
                                    (blocks, seqs, warps, opcodes))

    warp_ids = np.unique(warps)
    warp_ptr = {int(w): 0 for w in warp_ids}
    warp_rows = {int(w): np.nonzero(warps == w)[0] for w in warp_ids}
    comp_b: dict = {int(w): [] for w in warp_ids}
    comp_s: dict = {int(w): [] for w in warp_ids}

    fu_free_b = {unit: 0.0 for unit in FunctionalUnit}
    fu_free_s = {unit: 0.0 for unit in FunctionalUnit}
    stall_b = 0.0
    extra = 0
    makespan_b = 0.0
    makespan_s = 0.0
    mispred = warp_mispredicts or {}

    heap = [(0.0, 0.0, int(w)) for w in warp_ids]
    heapq.heapify(heap)
    while heap:
        ready_b, ready_s, w = heapq.heappop(heap)
        ptr = warp_ptr[w]
        rows = warp_rows[w]
        if ptr >= len(rows):
            continue
        row = rows[ptr]
        op = opcode_from_id(int(opcodes[row]))
        unit = op.unit
        width = _pool_width(gpu, unit)
        dispatch = math.ceil(gpu.warp_size / max(width // 4, 1)) \
            if unit != FunctionalUnit.CONTROL else 1

        dep_b, dep_s = ready_b, ready_s
        if len(comp_b[w]) >= ILP_DEPTH:
            dep_b = max(dep_b, comp_b[w][-ILP_DEPTH])
            dep_s = max(dep_s, comp_s[w][-ILP_DEPTH])

        start_b = max(dep_b, fu_free_b[unit])
        start_s = max(dep_s, fu_free_s[unit])
        stall_b += start_b - dep_b

        miss_frac = mispred.get(
            (int(blocks[row]), int(seqs[row]), w), 0.0)
        if miss_frac > 0:
            extra += 1
        fu_free_b[unit] = start_b + dispatch
        fu_free_s[unit] = start_s + dispatch + miss_frac
        done_b = start_b + dispatch + op.latency
        done_s = start_s + dispatch + op.latency \
            + (1 if miss_frac > 0 else 0)
        for comp, done in ((comp_b[w], done_b), (comp_s[w], done_s)):
            comp.append(done)
            if len(comp) > 4:
                del comp[0:len(comp) - 4]
        makespan_b = max(makespan_b, done_b)
        makespan_s = max(makespan_s, done_s)
        warp_ptr[w] = ptr + 1
        if ptr + 1 < len(rows):
            heapq.heappush(heap,
                           (start_b + dispatch, start_s + dispatch, w))

    waves = max(1, math.ceil(launch.grid_blocks
                             / (len(resident) * gpu.n_sms)))
    n_total = len(blocks)
    base = TimingResult(cycles=int(math.ceil(makespan_b)), waves=waves,
                        instructions=n_total,
                        stall_cycles_fu=int(stall_b),
                        extra_recompute_insts=0)
    st2 = TimingResult(cycles=int(math.ceil(makespan_s)), waves=waves,
                       instructions=n_total,
                       stall_cycles_fu=int(stall_b),
                       extra_recompute_insts=extra)
    return base, st2
