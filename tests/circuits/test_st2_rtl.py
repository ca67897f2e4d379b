"""RTL-level ST2 adder: the Figure 4 protocol, clock by clock,
cross-validated against the behavioural model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops
from repro.core.adder import ST2Adder
from repro.core.slices import FP32_MANTISSA, INT32, INT64, AdderGeometry
from tests.circuits.reference_st2_rtl import ST2AdderRTL


def _predictions(rng, geo):
    return rng.integers(0, 2, geo.n_predictions).tolist()


class TestProtocol:
    def test_single_cycle_on_correct_prediction(self):
        geo = INT32
        rtl = ST2AdderRTL(geo)
        # 1 + 2: all carries zero, all-zero predictions correct
        result, cycles, recomputed = rtl.run_op(1, 2, [0, 0, 0])
        assert result == 3
        assert cycles == 1
        assert recomputed == 0

    def test_two_cycles_on_misprediction(self):
        geo = INT32
        rtl = ST2AdderRTL(geo)
        result, cycles, recomputed = rtl.run_op(1, 2, [1, 0, 0])
        assert result == 3
        assert cycles == 2
        assert recomputed == 3      # slices 1..3 all suspect

    def test_stall_signal_visible_between_cycles(self):
        rtl = ST2AdderRTL(INT32)
        rtl.start_op(1, 2, [1, 0, 0])
        rtl.clock()
        assert rtl.stall == 1       # the scoreboard sees the stall
        assert rtl.busy
        rtl.clock()
        assert rtl.stall == 0
        assert not rtl.busy

    def test_error_wires_match_prediction_mismatch(self):
        geo = AdderGeometry(24)
        rtl = ST2AdderRTL(geo)
        # 0x00FFFF + 1: slice0 generates, slice1 propagates
        rtl.start_op(0x00FFFF, 0x000001, [0, 1])
        rtl.clock()
        # E[1]: cpred[0]=0 vs cout[0]=1 -> 1; slice1 then produced
        # cout 0 (computed with wrong cin 0), so E[2]: 1 vs 0 -> 1
        assert rtl.errors == [0, 1, 1]
        rtl.clock()
        assert rtl.result == 0x010000

    def test_state_dffs_or_chain(self):
        geo = INT64
        rtl = ST2AdderRTL(geo)
        # error only at the top boundary: suspect set is slice 7 only
        a = 0x00FF_0000_0000_0000
        b = 0x0001_0000_0000_0000
        true = bitops.slice_carry_ins(np.array([a], np.uint64),
                                      np.array([b], np.uint64), 64)[0]
        preds = list(true[1:])
        preds[6] ^= 1               # corrupt the top prediction
        rtl.start_op(a, b, preds)
        rtl.clock()
        states = [s.state for s in rtl.slices]
        assert states == [0, 0, 0, 0, 0, 0, 0, 1]
        rtl.clock()
        assert rtl.result == (a + b) & ((1 << 64) - 1)

    def test_sub_via_inverted_operand(self):
        rtl = ST2AdderRTL(INT32)
        b_inv = int(bitops.invert(42, 32))
        result, __, __ = rtl.run_op(100, b_inv, [1, 1, 1], cin=1)
        assert result == 58

    def test_prediction_count_validated(self):
        with pytest.raises(ValueError):
            ST2AdderRTL(INT32).start_op(1, 2, [0])


class TestCrossValidation:
    @pytest.mark.parametrize("geo", [INT64, INT32, FP32_MANTISSA])
    def test_matches_behavioural_model(self, geo, rng):
        behavioural = ST2Adder(geo)
        rtl = ST2AdderRTL(geo)
        for _ in range(200):
            a = int(rng.integers(0, bitops.mask(geo.width),
                                 dtype=np.uint64, endpoint=True))
            b = int(rng.integers(0, bitops.mask(geo.width),
                                 dtype=np.uint64, endpoint=True))
            preds = _predictions(rng, geo)
            cin = int(rng.integers(0, 2))
            out = behavioural.add(
                np.array([a], np.uint64), np.array([b], np.uint64),
                np.array([preds], np.uint8), cin=cin)
            result, cycles, recomputed = rtl.run_op(a, b, preds, cin)
            assert result == int(out.result[0])
            assert cycles == int(out.cycles[0])
            assert recomputed == int(out.recomputed_slices[0])

    @given(a=st.integers(0, 2**32 - 1), b=st.integers(0, 2**32 - 1),
           p=st.lists(st.integers(0, 1), min_size=3, max_size=3),
           cin=st.integers(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_always_correct_in_at_most_two_cycles(self, a, b, p, cin):
        """The paper's central hardware claim, at RTL."""
        rtl = ST2AdderRTL(INT32)
        result, cycles, __ = rtl.run_op(a, b, p, cin)
        assert result == (a + b + cin) % (1 << 32)
        assert cycles in (1, 2)

    def test_reusable_across_operations(self, rng):
        """State DFF reset on start_op: no leakage between ops."""
        rtl = ST2AdderRTL(INT32)
        rtl.run_op(0xFFFF, 0x0001, [0, 0, 0])     # forces recompute
        result, cycles, recomputed = rtl.run_op(1, 1, [0, 0, 0])
        assert (result, cycles, recomputed) == (2, 1, 0)
