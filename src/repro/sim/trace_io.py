"""Trace column layout and footprint.

The column names of an :class:`~repro.sim.trace.AddTrace` and an
:class:`~repro.sim.trace.InstStream` that persistence and sizing share.
Traces are persisted only by :mod:`repro.sim.trace_store`, which writes
each column as a raw ``.npy`` file opened with ``mmap_mode="r"``.
"""

from __future__ import annotations

from repro.sim.trace import AddTrace, InstStream

_ADD_COLUMNS = ("pc", "gtid", "ltid", "warp", "sm", "block", "seq",
                "op_a", "op_b", "cin", "width", "opcode", "value")
_INST_COLUMNS = ("seq", "block", "warp", "sm", "opcode", "active")


def trace_nbytes(trace: AddTrace, insts: InstStream = None) -> int:
    """In-memory footprint of a trace (and optional instruction
    stream): the runner's per-unit trace-size metric."""
    total = sum(getattr(trace, c).nbytes for c in _ADD_COLUMNS)
    if insts is not None:
        total += sum(getattr(insts, c).nbytes for c in _INST_COLUMNS)
    return total
