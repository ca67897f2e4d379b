"""The kernel DSL: semantics, recording, divergence, memory."""

import numpy as np

from repro.core import bitops
from repro.isa.opcodes import MixCategory, Opcode
from repro.sim.config import LaunchConfig
from repro.sim.functional import GridLauncher
from repro.sim.trace import opcode_from_id


def run_one_block(fn, threads=64, **params):
    launcher = GridLauncher()
    return launcher, launcher.run(fn, LaunchConfig(1, threads), **params)


class TestIdentity:
    def test_thread_and_global_ids(self):
        captured = {}

        def kernel(k):
            captured["tid"] = k.thread_id()
            captured["gtid"] = k.global_id()
            captured["ltid"] = k.ltid

        launcher = GridLauncher()
        launcher.run(kernel, LaunchConfig(3, 64))
        # last block (id 2) leaves its ids in captured
        assert captured["gtid"][0] == 2 * 64
        assert list(captured["tid"][:3]) == [0, 1, 2]
        assert captured["ltid"][32] == 0  # second warp starts at lane 0


class TestIntegerOps:
    def test_iadd_records_operands_and_result(self):
        def kernel(k):
            k.iadd(k.thread_id(), 100)

        __, run = run_one_block(kernel, threads=32)
        t = run.trace
        assert len(t) == 32
        assert np.array_equal(t.op_a, np.arange(32).astype(np.uint64))
        assert (t.op_b == 100).all()
        assert (t.width == 32).all()
        assert np.array_equal(t.value, np.arange(100, 132).astype(float))

    def test_isub_records_inverted_operand(self):
        def kernel(k):
            k.isub(50, 8)

        __, run = run_one_block(kernel, threads=32)
        t = run.trace
        assert (t.op_b == bitops.invert(8, 32)).all()
        assert (t.cin == 1).all()
        assert (t.value == 42).all()

    def test_imin_value_and_adder_usage(self):
        def kernel(k):
            k.imin(k.thread_id(), 10)

        __, run = run_one_block(kernel, threads=32)
        t = run.trace
        assert np.array_equal(t.value,
                              np.minimum(np.arange(32), 10).astype(float))
        assert (t.cin == 1).all()       # compares through the adder

    def test_non_adder_ops_not_traced(self):
        def kernel(k):
            k.ixor(k.thread_id(), 3)
            k.imul(k.thread_id(), 3)
            k.shl(1, 4)

        __, run = run_one_block(kernel, threads=32)
        assert len(run.trace) == 0
        assert len(run.insts) == 3

    def test_idiv_by_zero_guarded(self):
        def kernel(k):
            out = k.idiv(k.thread_id(), 0)
            assert np.isfinite(out).all()

        run_one_block(kernel, threads=32)


class TestFloatOps:
    def test_fadd_mantissa_domain(self):
        def kernel(k):
            k.fadd(1.5, 2.25)

        __, run = run_one_block(kernel, threads=32)
        t = run.trace
        assert (t.width == 23).all()
        assert np.allclose(t.value, 3.75)

    def test_ffma_value(self):
        def kernel(k):
            k.ffma(2.0, 3.0, 1.0)

        __, run = run_one_block(kernel, threads=32)
        assert np.allclose(run.trace.value, 7.0)

    def test_dadd_uses_52bit_adder(self):
        def kernel(k):
            k.dadd(1.0, 2.0)

        __, run = run_one_block(kernel, threads=32)
        assert (run.trace.width == 52).all()

    def test_effective_subtract_sets_cin(self):
        def kernel(k):
            k.fadd(4.0, -1.0)

        __, run = run_one_block(kernel, threads=32)
        assert (run.trace.cin == 1).all()


class TestDivergence:
    def test_where_masks_trace_recording(self):
        def kernel(k):
            i = k.thread_id()
            with k.where(i < 10):
                k.iadd(i, 1)

        __, run = run_one_block(kernel, threads=64)
        assert len(run.trace) == 10

    def test_nested_where_intersects(self):
        def kernel(k):
            i = k.thread_id()
            with k.where(i < 20):
                with k.where(i >= 10):
                    k.iadd(i, 1)

        __, run = run_one_block(kernel, threads=64)
        assert len(run.trace) == 10
        assert run.trace.gtid.min() == 10

    def test_zero_active_warps_dropped(self):
        """A where() that empties a warp records no row for it."""
        def kernel(k):
            i = k.thread_id()
            with k.where(k.lt(i, 32)):
                k.iadd(i, 1)

        __, run = run_one_block(kernel, threads=64)
        insts = run.insts
        iadd = np.array([opcode_from_id(int(o)) is Opcode.IADD
                         for o in insts.opcode])
        assert list(insts.warp[iadd]) == [0]
        assert list(insts.active[iadd]) == [32]
        assert len(insts) == 5          # SETP and BRA on both warps
        assert insts.thread_instructions() == 64 + 64 + 32
        assert set(run.trace.warp) == {0}

    def test_masked_store_only_writes_active_lanes(self):
        def kernel(k, out):
            i = k.thread_id()
            with k.where(i < 4):
                k.st_global(out, i, 7)

        launcher = GridLauncher()
        out = launcher.buffer("out", np.zeros(64, np.int32))
        launcher.run(kernel, LaunchConfig(1, 64), out=out)
        assert list(out.data[:6]) == [7, 7, 7, 7, 0, 0]

    def test_empty_mask_records_nothing(self):
        def kernel(k):
            with k.where(np.zeros(k.n_threads, bool)):
                k.iadd(1, 1)

        __, run = run_one_block(kernel)
        assert len(run.trace) == 0


class TestLoops:
    def test_range_emits_iterator_adds(self):
        def kernel(k):
            for i in k.range(5):
                pass

        __, run = run_one_block(kernel, threads=32)
        # 5 iterator increments, one per iteration, at one PC
        t = run.trace
        assert len(t) == 5 * 32
        assert len(np.unique(t.pc)) == 1
        assert list(np.unique(t.value)) == [1, 2, 3, 4, 5]

    def test_range_step(self):
        def kernel(k):
            for i in k.range(0, 8, 2):
                pass

        __, run = run_one_block(kernel, threads=32)
        assert sorted(set(run.trace.value)) == [2, 4, 6, 8]


class TestMemory:
    def test_ld_global_emits_lea_and_values(self):
        def kernel(k, buf):
            v = k.ld_global(buf, k.thread_id())
            assert np.array_equal(v, buf.data[:k.n_threads])

        launcher = GridLauncher()
        buf = launcher.buffer("buf", np.arange(64, dtype=np.float32))
        run = launcher.run(kernel, LaunchConfig(1, 64), buf=buf)
        leas = run.trace.opcode
        assert all(opcode_from_id(int(o)) is Opcode.LDG
                   or opcode_from_id(int(o)) is Opcode.LEA
                   for o in leas)
        assert (run.trace.width == 64).all()

    def test_lea_operands_are_base_and_byte_offset(self):
        def kernel(k, buf):
            k.ld_global(buf, k.thread_id())

        launcher = GridLauncher()
        buf = launcher.buffer("buf", np.zeros(64, np.float32))
        run = launcher.run(kernel, LaunchConfig(1, 64), buf=buf)
        t = run.trace
        assert (t.op_a == buf.base).all()
        assert np.array_equal(t.op_b,
                              (np.arange(64) * 4).astype(np.uint64))

    def test_out_of_range_index_clipped(self):
        def kernel(k, buf):
            k.ld_global(buf, k.thread_id() + 1000)

        launcher = GridLauncher()
        buf = launcher.buffer("buf", np.arange(8, dtype=np.int32))
        launcher.run(kernel, LaunchConfig(1, 32), buf=buf)

    def test_shared_memory_roundtrip(self):
        def kernel(k):
            s = k.shared(64, np.int64)
            k.st_shared(s, k.thread_id(), k.thread_id() * 2)
            k.syncthreads()
            got = k.ld_shared(s, k.thread_id())
            assert np.array_equal(got, np.arange(k.n_threads) * 2)

        run_one_block(kernel, threads=64)

    def test_global_store_coalescing_counted(self):
        def kernel(k, buf):
            k.st_global(buf, k.thread_id(), 1)

        launcher = GridLauncher()
        buf = launcher.buffer("buf", np.zeros(64, np.int32))
        run = launcher.run(kernel, LaunchConfig(1, 64), buf=buf)
        assert run.mem.global_stores == 64
        # 64 x int32 = 256B = 8 sectors, buffer base 256B-aligned
        assert run.mem.global_store_transactions == 8


class TestInstructionMix:
    def test_mix_counts_thread_level(self):
        def kernel(k):
            k.iadd(1, 1)       # 32 ALU Add
            k.ixor(1, 1)       # 32 ALU Other
            k.fadd(1.0, 1.0)   # 32 FPU Add
            k.sqrt(2.0)        # 32 Other (SFU)

        __, run = run_one_block(kernel, threads=32)
        mix = run.insts.mix()
        assert mix[MixCategory.ALU_ADD] == 32
        assert mix[MixCategory.ALU_OTHER] == 32
        assert mix[MixCategory.FPU_ADD] == 32
        assert mix[MixCategory.OTHER] == 32

    def test_cvt_ops(self):
        def kernel(k):
            f = k.cvt_f32(k.thread_id())
            i = k.cvt_i32(f)
            assert np.array_equal(i, np.arange(k.n_threads))

        run_one_block(kernel)


class TestInlineScopes:
    def test_inline_gives_helper_calls_distinct_pcs(self):
        def helper(k, x):
            return k.iadd(x, 1)

        def aliased(k):
            t = k.thread_id()
            helper(k, t)
            helper(k, t)

        def scoped(k):
            t = k.thread_id()
            with k.inline("lo"):
                helper(k, t)
            with k.inline("hi"):
                helper(k, t)

        __, run_a = run_one_block(aliased, threads=32)
        __, run_s = run_one_block(scoped, threads=32)
        # aliased: both calls intern the helper's one frame location;
        # scoped: the inline tags split it into two static PCs
        assert run_s.n_static_pcs == run_a.n_static_pcs + 1

    def test_scopes_nest_and_compose(self):
        def helper(k, x):
            return k.iadd(x, 1)

        def kernel(k):
            t = k.thread_id()
            with k.inline("outer"):
                helper(k, t)
                with k.inline("inner"):
                    helper(k, t)

        __, run = run_one_block(kernel, threads=32)
        labels = set(run.pc_table.labels)
        assert any("outer" in lbl and "inner" not in lbl
                   for lbl in labels)
        assert any("outer/inner" in lbl for lbl in labels)

    def test_scope_pops_on_exit(self):
        def kernel(k):
            t = k.thread_id()
            with k.inline("scoped"):
                k.iadd(t, 1)
            k.iadd(t, 2)

        __, run = run_one_block(kernel, threads=32)
        labels = run.pc_table.labels
        assert sum("scoped" in lbl for lbl in labels) == 1
