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

Recording is scalars once, lanes once: :class:`TraceBuilder` keeps one
tuple per op holding its lane count, its scalars as Python values and
only the arrays that vary per lane, and finalisation expands every
scalar column with one ``np.repeat`` and joins every lane column with
one ``np.concatenate`` before the single logical-time sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.opcodes import Opcode

_OPCODES = list(Opcode)
# keyed by member name: a str caches its hash, while hashing an Enum
# member is a Python-level ``__hash__`` call on every recorded op
_OPCODE_INDEX = {op._name_: i for i, op in enumerate(_OPCODES)}


def opcode_id(op: Opcode) -> int:
    return _OPCODE_INDEX[op._name_]


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
    """Accumulates per-block rows and assembles globally-ordered traces.

    Recording keeps per op only what varies per lane.  An op's scalars
    (PC, SM, block, sequence number, scalar carry-in, width, opcode id)
    are kept once as Python values beside its lane count, and
    :meth:`build` expands each scalar column with one ``np.repeat``.
    The per-lane arrays (thread ids, operands, a vector carry-in, the
    value; an instruction's kept warps and their active counts) are
    joined with one ``np.concatenate`` per column.
    """

    def __init__(self) -> None:
        #: (lane count, pc, sm, block, seq, cin, width, opcode id,
        #:  gtid, ltid, warp, op_a, op_b, value) per adder op
        self._adds: list = []
        #: (op index, per-lane carry-in) per adder op with a vector cin
        self._cin_vec: list = []
        #: (warp count, seq, block, sm, opcode id, warps, active) per
        #: warp instruction
        self._insts: list = []
        self.pc_labels: list = []

    # -- recording (called by the DSL) ---------------------------------

    def record_add(self, *, pc: int, gtid, ltid, warp, sm: int, block: int,
                   seq: int, op_a, op_b, cin, width: int, opcode: Opcode,
                   value) -> None:
        """One adder op over ``len(gtid)`` lanes.  ``cin`` is an int or
        a per-lane array; the other lane arguments are arrays."""
        if isinstance(cin, np.ndarray):
            self._cin_vec.append((len(self._adds), cin))
            cin = 0
        self._adds.append((len(gtid), pc, sm, block, seq, cin, width,
                           opcode_id(opcode), gtid, ltid, warp, op_a, op_b,
                           value))

    def record_inst(self, *, seq: int, block: int, warps, sm: int,
                    opcode: Opcode, active) -> None:
        """One warp instruction.  ``warps`` are the warps with at least
        one active lane and ``active`` their active-lane counts; an
        instruction no warp issues records nothing."""
        if len(warps):
            self._insts.append((len(warps), seq, block, sm,
                                opcode_id(opcode), warps, active))

    # -- finalisation ----------------------------------------------------

    def build(self) -> tuple:
        """Return ``(AddTrace, InstStream)`` in global logical-time order."""
        add = self._build_add()
        inst = self._build_inst()
        return add, inst

    def _build_add(self) -> AddTrace:
        cols = list(zip(*self._adds)) or [()] * 14
        n = np.array(cols[0], dtype=np.intp)
        pc, sm, block, seq, cin, width, opcode = (
            _repeat(values, dtype, n) for values, dtype in zip(
                cols[1:8], (np.int32, np.int16, np.int32, np.int64,
                            np.uint8, np.uint8, np.int16)))
        gtid, ltid, warp, op_a, op_b, value = (
            _concat(chunks, dtype) for chunks, dtype in zip(
                cols[8:], (np.int64, np.int8, np.int32, np.uint64,
                           np.uint64, np.float64)))
        if self._cin_vec:
            ops, vectors = zip(*self._cin_vec)
            vector_op = np.zeros(len(n), dtype=bool)
            vector_op[list(ops)] = True
            cin[np.repeat(vector_op, n)] = _concat(vectors, np.uint8)
        order = np.lexsort((ltid, warp, block, seq + _block_phase(block)))
        return AddTrace(
            pc=pc[order], gtid=gtid[order], ltid=ltid[order],
            warp=warp[order], sm=sm[order], block=block[order],
            seq=seq[order], op_a=op_a[order], op_b=op_b[order],
            cin=cin[order], width=width[order], opcode=opcode[order],
            value=value[order], pc_labels=self.pc_labels,
        )

    def _build_inst(self) -> InstStream:
        cols = list(zip(*self._insts)) or [()] * 7
        n = np.array(cols[0], dtype=np.intp)
        seq, block, sm, opcode = (
            _repeat(values, dtype, n) for values, dtype in zip(
                cols[1:5], (np.int64, np.int32, np.int16, np.int16)))
        warp, active = (_concat(chunks, np.int32) for chunks in cols[5:])
        order = np.lexsort((warp, block, seq + _block_phase(block)))
        return InstStream(seq=seq[order], block=block[order],
                          warp=warp[order], sm=sm[order],
                          opcode=opcode[order], active=active[order])


def _repeat(values, dtype, counts: np.ndarray) -> np.ndarray:
    """A per-op scalar column expanded to one entry per row."""
    return np.repeat(np.array(values, dtype=dtype), counts)


def _concat(chunks, dtype) -> np.ndarray:
    """Per-op lane arrays joined into one column of ``dtype``."""
    if not chunks:
        return np.array([], dtype=dtype)
    return np.concatenate(chunks, dtype=dtype, casting="unsafe")
