"""Trace assembly: ordering, interleave, instruction streams."""

import numpy as np

from repro.core.predictors import trace_n_predictions
from repro.isa.opcodes import MixCategory, Opcode
from repro.sim.trace import TraceBuilder, _block_phase


def _record(builder, block, seq, pc=0, n=4, warp0=0):
    builder.record_add(
        pc=pc, gtid=np.arange(n) + block * n, ltid=np.arange(n) % 32,
        warp=np.full(n, warp0 + block), sm=0, block=block, seq=seq,
        op_a=np.ones(n, np.uint64), op_b=np.ones(n, np.uint64),
        cin=0, width=32, opcode=Opcode.IADD, value=np.zeros(n))


class TestAddTraceAssembly:
    def test_lanes_of_one_op_stay_contiguous_in_lane_order(self):
        b = TraceBuilder()
        _record(b, block=0, seq=0, n=8)
        trace, _ = b.build()
        assert list(trace.ltid) == list(range(8))

    def test_blocks_interleave_round_robin_with_phase(self):
        b = TraceBuilder()
        for block in range(3):
            for seq in range(4):
                _record(b, block=block, seq=seq, n=1)
        trace, _ = b.build()
        # every block's ops remain in seq order within the block
        for block in range(3):
            seqs = trace.seq[trace.block == block]
            assert list(seqs) == sorted(seqs)

    def test_scalar_and_vector_carry_ins_land_on_their_rows(self):
        b = TraceBuilder()
        for seq, cin in enumerate((1, np.array([0, 1, 1], np.int64), 0,
                                   np.array([1, 0, 0], bool))):
            b.record_add(
                pc=seq, gtid=np.arange(3), ltid=np.arange(3),
                warp=np.zeros(3), sm=0, block=0, seq=seq,
                op_a=np.ones(3, np.uint64), op_b=np.ones(3, np.uint64),
                cin=cin, width=32, opcode=Opcode.IADD, value=np.zeros(3))
        trace, _ = b.build()
        assert trace.cin.dtype == np.uint8
        assert list(trace.cin) == [1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0]
        assert list(trace.pc) == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3

    def test_phase_jitter_is_deterministic(self):
        blocks = np.arange(100)
        p1 = _block_phase(blocks)
        p2 = _block_phase(blocks)
        assert np.array_equal(p1, p2)
        assert (p1 >= 0).all() and (p1 < 29).all()
        assert len(np.unique(p1)) > 5     # actually spreads blocks

    def test_select_preserves_order(self):
        b = TraceBuilder()
        for seq in range(5):
            _record(b, block=0, seq=seq, n=2)
        trace, _ = b.build()
        sub = trace.select(trace.seq >= 2)
        assert len(sub) == 6
        assert list(sub.seq) == sorted(sub.seq)

    def test_empty_build(self):
        trace, insts = TraceBuilder().build()
        assert len(trace) == 0
        assert len(insts) == 0
        assert insts.thread_instructions() == 0
        assert [trace.pc.dtype, trace.ltid.dtype, trace.op_a.dtype,
                trace.cin.dtype, trace.opcode.dtype, trace.value.dtype] \
            == [np.int32, np.int8, np.uint64, np.uint8, np.int16, np.float64]
        assert [insts.seq.dtype, insts.warp.dtype, insts.sm.dtype] \
            == [np.int64, np.int32, np.int16]


class TestInstStream:
    def test_mix_aggregation(self):
        b = TraceBuilder()
        b.record_inst(seq=0, block=0, warps=[0], sm=0,
                      opcode=Opcode.IADD, active=[32])
        b.record_inst(seq=1, block=0, warps=[0], sm=0,
                      opcode=Opcode.FMUL, active=[16])
        _, insts = b.build()
        mix = insts.mix()
        assert mix[MixCategory.ALU_ADD] == 32
        assert mix[MixCategory.FPU_OTHER] == 16

    def test_counts_by_opcode(self):
        b = TraceBuilder()
        for seq in range(3):
            b.record_inst(seq=seq, block=0, warps=[0], sm=0,
                          opcode=Opcode.LDG, active=[32])
        _, insts = b.build()
        assert insts.counts_by_opcode()[Opcode.LDG] == 96

    def test_n_predictions_column(self):
        b = TraceBuilder()
        _record(b, block=0, seq=0, n=1)
        trace, _ = b.build()
        assert list(trace_n_predictions(trace)) == [3]   # 32-bit -> 4 slices
