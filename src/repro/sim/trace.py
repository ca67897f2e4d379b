"""Dynamic traces produced by the functional simulator.

Two granularities are captured:

* :class:`AddTrace` — one row per *lane-level adder operation* (the unit
  the ST2 carry-speculation mechanism operates on): PC, thread identity,
  the adder-domain operands (post SUB-inversion, post mantissa
  alignment), the architectural carry-in, the adder width and the logical
  result value.
* :class:`InstStream` — one row per *warp-level dynamic instruction*
  (every opcode, not only adds): consumed by the instruction-mix study
  (Figure 1), the activity counters behind the power model, and the
  cycle-approximate timing pipeline.

Rows are recorded per block and interleaved into a global logical-time
order at finalisation: ops with the same per-block sequence number are
ordered round-robin across blocks, approximating the concurrent
execution of blocks across (and within) SMs.  This interleave is what
lets Ltid-shared history tables observe the cross-warp "prefetching"
effect the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.opcodes import Opcode

_OPCODES = list(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}


def opcode_id(op: Opcode) -> int:
    return _OPCODE_INDEX[op]


def opcode_from_id(oid: int) -> Opcode:
    if not 0 <= oid < len(_OPCODES):
        raise ValueError(f"field 'opcode': unresolvable opcode id {oid}")
    return _OPCODES[oid]


@dataclass
class AddTrace:
    """Struct-of-arrays trace of lane-level adder operations."""

    pc: np.ndarray
    gtid: np.ndarray
    ltid: np.ndarray
    warp: np.ndarray
    sm: np.ndarray
    block: np.ndarray
    seq: np.ndarray
    op_a: np.ndarray
    op_b: np.ndarray
    cin: np.ndarray
    width: np.ndarray
    opcode: np.ndarray
    value: np.ndarray
    pc_labels: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pc)

    def select(self, mask: np.ndarray) -> "AddTrace":
        """Row subset (mask or index array), preserving order."""
        return AddTrace(
            pc=self.pc[mask], gtid=self.gtid[mask], ltid=self.ltid[mask],
            warp=self.warp[mask], sm=self.sm[mask], block=self.block[mask],
            seq=self.seq[mask], op_a=self.op_a[mask], op_b=self.op_b[mask],
            cin=self.cin[mask], width=self.width[mask],
            opcode=self.opcode[mask], value=self.value[mask],
            pc_labels=self.pc_labels,
        )


@dataclass
class InstStream:
    """Struct-of-arrays stream of warp-level dynamic instructions."""

    seq: np.ndarray
    block: np.ndarray
    warp: np.ndarray       # global warp id
    sm: np.ndarray
    opcode: np.ndarray     # opcode ids
    active: np.ndarray     # active-thread count

    def __len__(self) -> int:
        return len(self.seq)

    def thread_instructions(self) -> int:
        """Total dynamic thread-level instruction count."""
        return int(self.active.sum())

    def mix(self) -> dict:
        """Thread-level dynamic instruction counts per Figure 1 category."""
        counts: dict = {}
        for oid in np.unique(self.opcode):
            op = opcode_from_id(int(oid))
            n = int(self.active[self.opcode == oid].sum())
            counts[op.mix] = counts.get(op.mix, 0) + n
        return counts

    def counts_by_opcode(self) -> dict:
        out = {}
        for oid in np.unique(self.opcode):
            out[opcode_from_id(int(oid))] = \
                int(self.active[self.opcode == oid].sum())
        return out


def _block_phase(block: np.ndarray, spread: int = 29) -> np.ndarray:
    """Deterministic pseudo-random execution-phase offset per block.

    Concurrent blocks do not execute in lockstep on real hardware: warp
    scheduling makes them drift apart by a few instructions.  Without
    this jitter, all blocks would contribute their seq-``s`` instruction
    (same PC!) back-to-back to the global order, which unrealistically
    flatters history tables that do not index by PC.
    """
    h = (block.astype(np.int64) * 1103515245 + 12345) >> 8
    return h % spread


class TraceBuilder:
    """Accumulates per-block rows and assembles globally-ordered traces."""

    def __init__(self) -> None:
        self._add_chunks: list = []
        self._inst_chunks: list = []
        self.pc_labels: list = []

    # -- recording (called by the DSL) ---------------------------------

    def record_add(self, *, pc: int, gtid, ltid, warp, sm: int, block: int,
                   seq: int, op_a, op_b, cin, width: int, opcode: Opcode,
                   value) -> None:
        n = len(np.atleast_1d(gtid))
        self._add_chunks.append((
            np.full(n, pc, dtype=np.int32),
            np.asarray(gtid, dtype=np.int64),
            np.asarray(ltid, dtype=np.int8),
            np.asarray(warp, dtype=np.int32),
            np.full(n, sm, dtype=np.int16),
            np.full(n, block, dtype=np.int32),
            np.full(n, seq, dtype=np.int64),
            np.asarray(op_a, dtype=np.uint64),
            np.asarray(op_b, dtype=np.uint64),
            (np.asarray(cin, dtype=np.uint8) if np.ndim(cin)
             else np.full(n, cin, dtype=np.uint8)),
            np.full(n, width, dtype=np.uint8),
            np.full(n, opcode_id(opcode), dtype=np.int16),
            np.asarray(value, dtype=np.float64),
        ))

    def record_inst(self, *, seq: int, block: int, warps, sm: int,
                    opcode: Opcode, active_per_warp) -> None:
        warps = np.asarray(warps, dtype=np.int32)
        active = np.asarray(active_per_warp, dtype=np.int32)
        keep = active > 0
        warps, active = warps[keep], active[keep]
        n = len(warps)
        if n == 0:
            return
        self._inst_chunks.append((
            np.full(n, seq, dtype=np.int64),
            np.full(n, block, dtype=np.int32),
            warps,
            np.full(n, sm, dtype=np.int16),
            np.full(n, opcode_id(opcode), dtype=np.int16),
            active,
        ))

    # -- finalisation ----------------------------------------------------

    def build(self) -> tuple:
        """Return ``(AddTrace, InstStream)`` in global logical-time order."""
        add = self._build_add()
        inst = self._build_inst()
        return add, inst

    def _build_add(self) -> AddTrace:
        if not self._add_chunks:
            empty = np.array([], dtype=np.int64)
            return AddTrace(*(empty.astype(t) for t in (
                np.int32, np.int64, np.int8, np.int32, np.int16, np.int32,
                np.int64, np.uint64, np.uint64, np.uint8, np.uint8,
                np.int16, np.float64)), pc_labels=self.pc_labels)
        cols = [np.concatenate(c) for c in zip(*self._add_chunks)]
        (pc, gtid, ltid, warp, sm, block, seq, op_a, op_b, cin, width,
         opcode, value) = cols
        order = np.lexsort((ltid, warp, block, seq + _block_phase(block)))
        return AddTrace(
            pc=pc[order], gtid=gtid[order], ltid=ltid[order],
            warp=warp[order], sm=sm[order], block=block[order],
            seq=seq[order], op_a=op_a[order], op_b=op_b[order],
            cin=cin[order], width=width[order], opcode=opcode[order],
            value=value[order], pc_labels=self.pc_labels,
        )

    def _build_inst(self) -> InstStream:
        if not self._inst_chunks:
            empty = np.array([], dtype=np.int64)
            return InstStream(empty, empty.astype(np.int32),
                              empty.astype(np.int32), empty.astype(np.int16),
                              empty.astype(np.int16), empty.astype(np.int32))
        cols = [np.concatenate(c) for c in zip(*self._inst_chunks)]
        seq, block, warp, sm, opcode, active = cols
        order = np.lexsort((warp, block, seq + _block_phase(block)))
        return InstStream(seq=seq[order], block=block[order],
                          warp=warp[order], sm=sm[order],
                          opcode=opcode[order], active=active[order])
