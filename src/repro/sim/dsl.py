"""Warp-synchronous CUDA-like kernel DSL.

Kernels are written as Python functions receiving a :class:`BlockContext`
(`k`), vectorised over all threads of a block.  Every DSL operation

* computes its result for all threads (numpy-vectorised),
* records one warp-level dynamic instruction per warp with active lanes
  (feeding the Figure 1 instruction mix and the timing model), and
* for adder-class operations records one lane-level :class:`AddTrace` row
  per active thread, carrying the *adder-domain* operands: integer
  subtracts record ``(a, ~b, cin=1)`` exactly as the hardware SUB mux
  does, FP ops record aligned mantissas (see :mod:`repro.core.floating`).

Divergence is expressed with ``with k.where(cond): ...`` blocks which
mask recording (and should guard stores).  Each ``where()`` pushes one
mask-stack entry that computes, once, everything recording reads of
the mask: ``mask.any()``, the warps with active lanes and their active
counts, and the masked ``gtid``/``ltid``/``warp``; the entry is dropped
when the block exits.  Ops record through the top entry, so per op only
the operands, carry-in and value are gathered, and the op's scalars
(PC, seq, width, opcode) go to the :class:`~repro.sim.trace.TraceBuilder`
as plain values.

Loops are plain Python ``for i in k.range(n)`` — the iterator increment
is a real, recorded IADD at a fixed PC, which is precisely the
"PC1"-style highly-correlated addition of the paper's Figure 2.

Example
-------
>>> def saxpy(k, a, x, y, out, n):
...     i = k.global_id()
...     with k.where(i < n):
...         xi = k.ld_global(x, i)
...         yi = k.ld_global(y, i)
...         k.st_global(out, i, k.ffma(a, xi, yi))
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core import bitops, floating
from repro.isa.opcodes import Opcode
from repro.isa.pc import PcTable
from repro.sim.config import GPUConfig, LaunchConfig
from repro.sim.memory import (SHARED_BASE, DeviceBuffer,
                              MemoryStats)
from repro.sim.trace import TraceBuilder

_INT32_MASK = bitops.mask(32)


def _ivec(x, n: int) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    return arr.astype(np.int64, copy=False)


def _fvec(x, n: int, dtype) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim == 0:
        return np.full(n, float(arr), dtype=dtype)
    return arr.astype(dtype, copy=False)


class _Lanes:
    """One mask-stack entry: a mask and every per-lane column recording
    reads of it, computed once when the entry is pushed."""

    __slots__ = ("mask", "any", "warps", "active", "gtid", "ltid", "warp")

    def __init__(self, ctx: "BlockContext", mask: np.ndarray):
        active = np.bincount(ctx.warp_in_block[mask], minlength=ctx.n_warps)
        keep = active > 0
        self.mask = mask
        self.any = bool(mask.any())
        self.warps = ctx.warp_ids[keep]          # warps with active lanes
        self.active = active[keep].astype(np.int32)
        self.gtid = ctx.gtid[mask]
        self.ltid = ctx.ltid[mask]
        self.warp = ctx.warp[mask]


class BlockContext:
    """Execution context of one thread block (all DSL state lives here)."""

    def __init__(self, launch: LaunchConfig, block_id: int, sm: int,
                 builder: TraceBuilder, pcs: PcTable, gpu: GPUConfig,
                 mem_stats: MemoryStats, sanitizer=None):
        n = launch.block_threads
        self.launch = launch
        self.block_id = block_id
        self.sm = sm
        self.n_threads = n
        self.tid = np.arange(n, dtype=np.int64)          # threadIdx.x
        self.ltid = (self.tid % gpu.warp_size).astype(np.int8)
        self.warp_in_block = (self.tid // gpu.warp_size).astype(np.int32)
        self.n_warps = n // gpu.warp_size
        warp_base = block_id * self.n_warps
        self.warp = (warp_base + self.warp_in_block).astype(np.int32)
        self.warp_ids = np.arange(warp_base, warp_base + self.n_warps,
                                  dtype=np.int32)
        self.gtid = (block_id * n + self.tid).astype(np.int64)

        self._builder = builder
        self._pcs = pcs
        self._gpu = gpu
        self._mem = mem_stats
        self._lanes = [_Lanes(self, np.ones(n, dtype=bool))]
        self._seq = 0
        self._shared_next = SHARED_BASE
        self._san = sanitizer
        self._scope_stack: list = []

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------

    def thread_id(self) -> np.ndarray:
        """threadIdx.x for every thread of the block."""
        return self._ret(self.tid.copy())

    def global_id(self) -> np.ndarray:
        """blockIdx.x * blockDim.x + threadIdx.x."""
        return self._ret(self.gtid.copy())

    @property
    def mask(self) -> np.ndarray:
        return self._lanes[-1].mask

    # ------------------------------------------------------------------
    # recording plumbing
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        s = self._seq
        self._seq += 1
        return s

    def _emit_inst(self, opcode: Opcode, lanes: _Lanes = None) -> int:
        lanes = self._lanes[-1] if lanes is None else lanes
        seq = self._next_seq()
        self._builder.record_inst(
            seq=seq, block=self.block_id, warps=lanes.warps, sm=self.sm,
            opcode=opcode, active=lanes.active)
        return seq

    def _emit_add(self, opcode: Opcode, op_a, op_b, cin, width: int,
                  value, pc: int) -> None:
        lanes = self._lanes[-1]
        seq = self._emit_inst(opcode, lanes)
        if not lanes.any:
            return
        mask = lanes.mask
        self._builder.record_add(
            pc=pc, gtid=lanes.gtid, ltid=lanes.ltid, warp=lanes.warp,
            sm=self.sm, block=self.block_id, seq=seq,
            op_a=np.asarray(op_a)[mask], op_b=np.asarray(op_b)[mask],
            cin=(cin[mask] if isinstance(cin, np.ndarray) else cin),
            width=width, opcode=opcode, value=np.asarray(value)[mask])

    def _ret(self, value):
        """Return path of every value-producing DSL op: in sanitize mode
        the vector is tagged so raw numpy arithmetic on it is caught."""
        if self._san is not None:
            return self._san.wrap_value(value)
        return value

    def _scoped(self, tag: str) -> str:
        """Compose the active ``inline`` scopes into the PC tag, so one
        helper called from several sites interns distinct PCs per site
        (the static-instruction identity compiler inlining would give)."""
        if not self._scope_stack:
            return tag
        prefix = "/".join(self._scope_stack)
        return f"{prefix}|{tag}" if tag else prefix

    def _pc(self, tag: str = "") -> int:
        # depth: kernel code -> DSL op -> _pc -> intern
        return self._pcs.intern(depth=3, tag=self._scoped(tag))

    # ------------------------------------------------------------------
    # integer arithmetic (32-bit ALU adder class)
    # ------------------------------------------------------------------

    def iadd(self, a, b):
        """32-bit integer addition (ST2-able ALU adder op)."""
        a = _ivec(a, self.n_threads)
        b = _ivec(b, self.n_threads)
        res = a + b
        self._emit_add(Opcode.IADD, bitops.to_unsigned(a, 32),
                       bitops.to_unsigned(b, 32), 0, 32, res, self._pc())
        return self._ret(res)

    def isub(self, a, b):
        """32-bit integer subtraction: recorded as ``a + ~b + 1``."""
        a = _ivec(a, self.n_threads)
        b = _ivec(b, self.n_threads)
        res = a - b
        self._emit_add(Opcode.ISUB, bitops.to_unsigned(a, 32),
                       bitops.invert(b, 32), 1, 32, res, self._pc())
        return self._ret(res)

    def imin(self, a, b):
        """Integer min — compares via the adder (a - b), like MIN()."""
        a = _ivec(a, self.n_threads)
        b = _ivec(b, self.n_threads)
        res = np.minimum(a, b)
        self._emit_add(Opcode.IMIN, bitops.to_unsigned(a, 32),
                       bitops.invert(b, 32), 1, 32, res, self._pc())
        return self._ret(res)

    def imax(self, a, b):
        a = _ivec(a, self.n_threads)
        b = _ivec(b, self.n_threads)
        res = np.maximum(a, b)
        self._emit_add(Opcode.IMAX, bitops.to_unsigned(a, 32),
                       bitops.invert(b, 32), 1, 32, res, self._pc())
        return self._ret(res)

    # ------------------------------------------------------------------
    # integer non-adder ops
    # ------------------------------------------------------------------

    def imul(self, a, b):
        self._emit_inst(Opcode.IMUL)
        return self._ret(_ivec(a, self.n_threads)
                         * _ivec(b, self.n_threads))

    def imad(self, a, b, c):
        """a*b + c in the multiplier array (not an ST2 adder op)."""
        self._emit_inst(Opcode.IMAD)
        return self._ret(_ivec(a, self.n_threads)
                         * _ivec(b, self.n_threads)
                         + _ivec(c, self.n_threads))

    def idiv(self, a, b):
        self._emit_inst(Opcode.IDIV)
        b = _ivec(b, self.n_threads)
        safe = np.where(b == 0, 1, b)
        return self._ret(_ivec(a, self.n_threads) // safe)

    def irem(self, a, b):
        self._emit_inst(Opcode.IREM)
        b = _ivec(b, self.n_threads)
        safe = np.where(b == 0, 1, b)
        return self._ret(_ivec(a, self.n_threads) % safe)

    def iand(self, a, b):
        self._emit_inst(Opcode.IAND)
        return self._ret(_ivec(a, self.n_threads)
                         & _ivec(b, self.n_threads))

    def ior(self, a, b):
        self._emit_inst(Opcode.IOR)
        return self._ret(_ivec(a, self.n_threads)
                         | _ivec(b, self.n_threads))

    def ixor(self, a, b):
        self._emit_inst(Opcode.IXOR)
        return self._ret(_ivec(a, self.n_threads)
                         ^ _ivec(b, self.n_threads))

    def shl(self, a, b):
        self._emit_inst(Opcode.SHL)
        return self._ret(_ivec(a, self.n_threads)
                         << _ivec(b, self.n_threads))

    def shr(self, a, b):
        self._emit_inst(Opcode.SHR)
        return self._ret(_ivec(a, self.n_threads)
                         >> _ivec(b, self.n_threads))

    def sel(self, cond, a, b):
        """Predicated select (no adder involved)."""
        self._emit_inst(Opcode.SEL)
        return self._ret(np.where(np.asarray(cond, dtype=bool),
                                  np.asarray(a), np.asarray(b)))

    def cvt_f32(self, a):
        """Integer → FP32 conversion (CVT)."""
        self._emit_inst(Opcode.CVT)
        return self._ret(_ivec(a, self.n_threads).astype(np.float32))

    def cvt_i32(self, a):
        """FP32 → integer conversion (CVT, truncating)."""
        self._emit_inst(Opcode.CVT)
        return self._ret(_fvec(a, self.n_threads, np.float32).astype(np.int64))

    # comparisons: emit a SETP and return the predicate vector
    def _setp(self, pred, opcode=Opcode.SETP):
        self._emit_inst(opcode)
        return self._ret(pred)

    def lt(self, a, b):
        return self._setp(_ivec(a, self.n_threads) < _ivec(b, self.n_threads))

    def le(self, a, b):
        return self._setp(_ivec(a, self.n_threads) <= _ivec(b, self.n_threads))

    def gt(self, a, b):
        return self._setp(_ivec(a, self.n_threads) > _ivec(b, self.n_threads))

    def ge(self, a, b):
        return self._setp(_ivec(a, self.n_threads) >= _ivec(b, self.n_threads))

    def eq(self, a, b):
        return self._setp(_ivec(a, self.n_threads) == _ivec(b, self.n_threads))

    def ne(self, a, b):
        return self._setp(_ivec(a, self.n_threads) != _ivec(b, self.n_threads))

    def flt(self, a, b):
        return self._setp(
            _fvec(a, self.n_threads, np.float32)
            < _fvec(b, self.n_threads, np.float32), Opcode.FSETP)

    def fgt(self, a, b):
        return self._setp(
            _fvec(a, self.n_threads, np.float32)
            > _fvec(b, self.n_threads, np.float32), Opcode.FSETP)

    # ------------------------------------------------------------------
    # FP32 arithmetic (23-bit mantissa adder class)
    # ------------------------------------------------------------------

    def _emit_fp32_add(self, opcode: Opcode, x, y, value, pc: int) -> None:
        op1, op2, cin = floating.fp32_add_operands(x, y)
        self._emit_add(opcode, op1, op2, cin, 23, value, pc)

    def fadd(self, a, b):
        a = _fvec(a, self.n_threads, np.float32)
        b = _fvec(b, self.n_threads, np.float32)
        res = a + b
        self._emit_fp32_add(Opcode.FADD, a, b, res, self._pc())
        return self._ret(res)

    def fsub(self, a, b):
        a = _fvec(a, self.n_threads, np.float32)
        b = _fvec(b, self.n_threads, np.float32)
        res = a - b
        self._emit_fp32_add(Opcode.FSUB, a, -b, res, self._pc())
        return self._ret(res)

    def ffma(self, a, b, c):
        """FP32 fused multiply-add; the accumulate uses the ST2 adder."""
        a = _fvec(a, self.n_threads, np.float32)
        b = _fvec(b, self.n_threads, np.float32)
        c = _fvec(c, self.n_threads, np.float32)
        res = a * b + c
        op1, op2, cin = floating.fp32_fma_operands(a, b, c)
        self._emit_add(Opcode.FFMA, op1, op2, cin, 23, res, self._pc())
        return self._ret(res)

    def fmin(self, a, b):
        a = _fvec(a, self.n_threads, np.float32)
        b = _fvec(b, self.n_threads, np.float32)
        res = np.minimum(a, b)
        self._emit_fp32_add(Opcode.FMIN, a, -b, res, self._pc())
        return self._ret(res)

    def fmax(self, a, b):
        a = _fvec(a, self.n_threads, np.float32)
        b = _fvec(b, self.n_threads, np.float32)
        res = np.maximum(a, b)
        self._emit_fp32_add(Opcode.FMAX, a, -b, res, self._pc())
        return self._ret(res)

    def fmul(self, a, b):
        self._emit_inst(Opcode.FMUL)
        return self._ret(_fvec(a, self.n_threads, np.float32)
                         * _fvec(b, self.n_threads, np.float32))

    def fdiv(self, a, b):
        self._emit_inst(Opcode.FDIV)
        b = _fvec(b, self.n_threads, np.float32)
        safe = np.where(b == 0, np.float32(1), b)
        return self._ret(_fvec(a, self.n_threads, np.float32) / safe)

    def fneg(self, a):
        self._emit_inst(Opcode.FNEG)
        return self._ret(-_fvec(a, self.n_threads, np.float32))

    def fabs(self, a):
        self._emit_inst(Opcode.FABS)
        return self._ret(np.abs(_fvec(a, self.n_threads, np.float32)))

    # ------------------------------------------------------------------
    # FP64 arithmetic (52-bit mantissa adder class, DPU)
    # ------------------------------------------------------------------

    def dadd(self, a, b):
        a = _fvec(a, self.n_threads, np.float64)
        b = _fvec(b, self.n_threads, np.float64)
        res = a + b
        op1, op2, cin = floating.fp64_add_operands(a, b)
        self._emit_add(Opcode.DADD, op1, op2, cin, 52, res, self._pc())
        return self._ret(res)

    def dsub(self, a, b):
        a = _fvec(a, self.n_threads, np.float64)
        b = _fvec(b, self.n_threads, np.float64)
        res = a - b
        op1, op2, cin = floating.fp64_add_operands(a, -b)
        self._emit_add(Opcode.DSUB, op1, op2, cin, 52, res, self._pc())
        return self._ret(res)

    def dfma(self, a, b, c):
        a = _fvec(a, self.n_threads, np.float64)
        b = _fvec(b, self.n_threads, np.float64)
        c = _fvec(c, self.n_threads, np.float64)
        res = a * b + c
        op1, op2, cin = floating.fp64_fma_operands(a, b, c)
        self._emit_add(Opcode.DFMA, op1, op2, cin, 52, res, self._pc())
        return self._ret(res)

    def dmul(self, a, b):
        self._emit_inst(Opcode.DMUL)
        return self._ret(_fvec(a, self.n_threads, np.float64)
                         * _fvec(b, self.n_threads, np.float64))

    # ------------------------------------------------------------------
    # SFU
    # ------------------------------------------------------------------

    def _sfu(self, opcode: Opcode, fn, a):
        self._emit_inst(opcode)
        return self._ret(fn(_fvec(a, self.n_threads, np.float32)))

    def sqrt(self, a):
        return self._sfu(Opcode.SQRT, lambda v: np.sqrt(np.abs(v)), a)

    def rsqrt(self, a):
        return self._sfu(
            Opcode.RSQRT,
            lambda v: 1.0 / np.sqrt(np.maximum(np.abs(v), 1e-30)), a)

    def rcp(self, a):
        return self._sfu(
            Opcode.RCP,
            lambda v: 1.0 / np.where(v == 0, np.float32(1e-30), v), a)

    def sin(self, a):
        return self._sfu(Opcode.SIN, np.sin, a)

    def cos(self, a):
        return self._sfu(Opcode.COS, np.cos, a)

    def exp(self, a):
        return self._sfu(Opcode.EXP,
                         lambda v: np.exp(np.clip(v, -80, 80)), a)

    def log(self, a):
        return self._sfu(Opcode.LOG,
                         lambda v: np.log(np.maximum(np.abs(v), 1e-30)), a)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def shared(self, shape, dtype=np.float32) -> DeviceBuffer:
        """Allocate block-local shared memory."""
        data = np.zeros(shape, dtype=dtype)
        buf = DeviceBuffer(f"shared@{self._shared_next:x}", data,
                           self._shared_next)
        self._shared_next += data.size * data.itemsize
        if self._san is not None:
            self._san.on_shared_alloc(buf)
        return buf

    def _address_add(self, buf: DeviceBuffer, idx: np.ndarray,
                     tag: str) -> np.ndarray:
        """Emit the implicit 64-bit address add (base + byte offset)."""
        offs = buf.byte_offsets(idx)
        addr = buf.base + offs
        # frames: intern -> _address_add -> ld/st_global -> kernel code
        pc = self._pcs.intern(depth=3, tag=self._scoped(tag))
        self._emit_add(Opcode.LEA, np.full(self.n_threads, buf.base,
                                           dtype=np.uint64),
                       offs.astype(np.uint64), 0, 64, addr, pc)
        return addr

    def _clipped(self, buf: DeviceBuffer, idx) -> np.ndarray:
        idx = _ivec(idx, self.n_threads)
        return np.clip(idx, 0, len(buf) - 1)

    def ld_global(self, buf: DeviceBuffer, idx):
        """Global load; emits the address LEA plus the LDG."""
        idx = self._clipped(buf, idx)
        addr = self._address_add(buf, idx, "addr")
        mask = self.mask
        self._mem.record_global(np.asarray(addr)[mask].astype(np.int64),
                                self.warp_in_block[mask], is_store=False)
        self._emit_inst(Opcode.LDG)
        return self._ret(buf.data.reshape(-1)[idx].copy())

    def st_global(self, buf: DeviceBuffer, idx, val) -> None:
        """Global store (masked: only active lanes write)."""
        idx = self._clipped(buf, idx)
        addr = self._address_add(buf, idx, "addr")
        mask = self.mask
        self._mem.record_global(np.asarray(addr)[mask].astype(np.int64),
                                self.warp_in_block[mask], is_store=True)
        self._emit_inst(Opcode.STG)
        flat = buf.data.reshape(-1)
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.full(self.n_threads, val.item())
        flat[idx[mask]] = val[mask].astype(buf.data.dtype)

    def ld_shared(self, buf: DeviceBuffer, idx):
        idx = self._clipped(buf, idx)
        if self._san is not None:
            self._san.on_shared_load(buf, idx, self.mask,
                                     self.warp_in_block)
        self._mem.shared_loads += int(self.mask.sum())
        self._emit_inst(Opcode.LDS)
        return self._ret(buf.data.reshape(-1)[idx].copy())

    def st_shared(self, buf: DeviceBuffer, idx, val) -> None:
        idx = self._clipped(buf, idx)
        mask = self.mask
        if self._san is not None:
            self._san.on_shared_store(buf, idx, mask, self.warp_in_block)
        self._mem.shared_stores += int(mask.sum())
        self._emit_inst(Opcode.STS)
        flat = buf.data.reshape(-1)
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.full(self.n_threads, val.item())
        flat[idx[mask]] = val[mask].astype(buf.data.dtype)

    def ld_const(self, buf: DeviceBuffer, idx):
        idx = self._clipped(buf, idx)
        self._mem.const_loads += int(self.mask.sum())
        self._emit_inst(Opcode.LDC)
        return self._ret(buf.data.reshape(-1)[idx].copy())

    def atomic_add(self, buf: DeviceBuffer, idx, val):
        """``atomicAdd`` on global memory: colliding lanes serialise
        and every increment lands (``np.add.at`` semantics). Returns
        the pre-add values each lane observed, like the CUDA intrinsic.

        The addition itself runs in the memory partition's atomic unit,
        not the SM's ST2 adders, so no AddTrace row is recorded — but
        the memory traffic and the RMW instruction are.
        """
        idx = self._clipped(buf, idx)
        addr = self._address_add(buf, idx, "addr")
        mask = self.mask
        self._mem.record_global(np.asarray(addr)[mask].astype(np.int64),
                                self.warp_in_block[mask], is_store=True)
        self._emit_inst(Opcode.STG)   # RMW issues through the LSU
        flat = buf.data.reshape(-1)
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.full(self.n_threads, val.item())
        # pre-add observation per lane: serialise colliding lanes in
        # lane order (an arbitrary but fixed arbitration, like HW)
        old = np.zeros(self.n_threads, dtype=flat.dtype)
        active = np.nonzero(mask)[0]
        for t in active:
            old[t] = flat[idx[t]]
            flat[idx[t]] += val[t]
        return self._ret(old)

    def atomic_add_shared(self, buf: DeviceBuffer, idx, val):
        """``atomicAdd`` on shared memory (same serialising semantics,
        shared-memory cost)."""
        idx = self._clipped(buf, idx)
        mask = self.mask
        if self._san is not None:
            self._san.on_shared_store(buf, idx, mask, self.warp_in_block,
                                      atomic=True)
        self._mem.shared_stores += int(mask.sum())
        self._emit_inst(Opcode.STS)
        flat = buf.data.reshape(-1)
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.full(self.n_threads, val.item())
        old = np.zeros(self.n_threads, dtype=flat.dtype)
        for t in np.nonzero(mask)[0]:
            old[t] = flat[idx[t]]
            flat[idx[t]] += val[t]
        return self._ret(old)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    @contextmanager
    def where(self, cond):
        """Divergent region: ops inside record only where ``cond`` holds."""
        cond = np.asarray(cond, dtype=bool)
        self._emit_inst(Opcode.BRA)
        self._lanes.append(_Lanes(self, self.mask & cond))
        try:
            yield
        finally:
            self._lanes.pop()

    def range(self, *args):
        """Loop over ``range(*args)``; the iterator increment is a real,
        recorded IADD (plus SETP and BRA), like a compiled loop."""
        frame_pc_add = self._pcs.intern(depth=2,
                                        tag=self._scoped("loop-inc"))
        r = range(*args)
        step = r.step
        for i in r:
            yield i
            # i += step  (the loop-carried addition)
            self._emit_add(Opcode.IADD,
                           bitops.to_unsigned(
                               np.full(self.n_threads, i, dtype=np.int64), 32),
                           bitops.to_unsigned(
                               np.full(self.n_threads, step, dtype=np.int64), 32),
                           0, 32, np.full(self.n_threads, i + step),
                           frame_pc_add)
            self._emit_inst(Opcode.SETP)
            self._emit_inst(Opcode.BRA)

    def syncthreads(self) -> None:
        """Barrier (a no-op functionally — blocks run warp-synchronously)."""
        if self._san is not None:
            self._san.on_barrier(self.mask)
        self._emit_inst(Opcode.BAR, self._lanes[0])

    @contextmanager
    def inline(self, scope: str):
        """Give DSL ops inside the block their own PC namespace.

        A Python helper that emits adder ops and is called from several
        sites of one kernel interns every call to the *same* PCs — the
        ST2 history then conflates streams that separate static
        instructions would keep apart (a compiler inlines each call
        site into its own instructions).  Wrapping each call site in
        ``with k.inline("site-tag"):`` restores per-site PC identity::

            with k.inline("lo"):
                c_lo = find_child(k, keys, node_lo, lo)
            with k.inline("hi"):
                c_hi = find_child(k, keys, node_hi, hi)

        Scopes nest; tags compose into the interned PC label.
        """
        self._scope_stack.append(scope)
        try:
            yield
        finally:
            self._scope_stack.pop()

    # ------------------------------------------------------------------
    # warp shuffles (intra-warp data exchange, SHFL class — ALU other)
    # ------------------------------------------------------------------

    def _shuffle(self, values, source_lane: np.ndarray):
        """Gather ``values`` from per-thread source lanes within each
        warp (out-of-range lanes read their own value, like CUDA)."""
        self._emit_inst(Opcode.MOV)   # SHFL issues like a MOV-class op
        values = np.asarray(values)
        lane = np.asarray(source_lane)
        valid = (lane >= 0) & (lane < 32)
        src_tid = self.warp_in_block * 32 + np.clip(lane, 0, 31)
        out = values[np.where(valid, src_tid, self.tid)]
        return self._ret(out)

    def shfl_down(self, values, delta: int):
        """``__shfl_down_sync``: lane i reads lane i+delta."""
        return self._shuffle(values, self.ltid.astype(np.int64) + delta)

    def shfl_up(self, values, delta: int):
        """``__shfl_up_sync``: lane i reads lane i-delta."""
        return self._shuffle(values, self.ltid.astype(np.int64) - delta)

    def shfl_xor(self, values, mask_bits: int):
        """``__shfl_xor_sync``: butterfly exchange within the warp."""
        return self._shuffle(values,
                             self.ltid.astype(np.int64) ^ mask_bits)

    def warp_reduce_fadd(self, values):
        """Tree reduction within each warp using shfl_down + FADD —
        the canonical CUDA warp-reduction idiom. Lane 0 of each warp
        holds the warp's sum afterwards."""
        acc = _fvec(values, self.n_threads, np.float32)
        delta = 16
        while delta >= 1:
            other = self.shfl_down(acc, delta)
            acc = self.fadd(acc, other)
            delta //= 2
        return acc

    def warp_reduce_iadd(self, values):
        """Integer warp reduction (shfl_down + IADD)."""
        acc = _ivec(values, self.n_threads)
        delta = 16
        while delta >= 1:
            other = self.shfl_down(acc, delta)
            acc = self.iadd(acc, other)
            delta //= 2
        return acc

    def tensor_mma(self) -> None:
        """One HMMA tensor-core op per warp (extension workload)."""
        self._emit_inst(Opcode.HMMA)
