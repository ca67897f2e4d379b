"""Speculation-mechanism semantics, incl. oracle cross-checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import bitops
from repro.core.batch import (build_pack, carry_match_rate_batch,
                              evaluate_trace_batch, predict_trace_batch,
                              previous_same_key_batch)
from repro.core.predictors import (MAX_PREDICTIONS, SpeculationConfig,
                                   history_keys, run_speculation,
                                   trace_groups, trace_n_predictions)
from tests.conftest import make_trace, random_trace
from tests.core.reference_speculation import ReferencePredictor, columns


def predict(trace, config):
    """``config``'s prediction over ``trace``, on the trace's pack."""
    return predict_trace_batch(trace, config, build_pack(trace))


def carry_match_rate(trace, config):
    """The Figure 3 metric of ``config`` over ``trace``."""
    return carry_match_rate_batch(trace, config, build_pack(trace))


class TestConfigValidation:
    def test_bad_mechanism(self):
        with pytest.raises(ValueError):
            SpeculationConfig("x", "magic")

    def test_mod_requires_bits(self):
        with pytest.raises(ValueError):
            SpeculationConfig("x", "prev", pc_index="mod", pc_bits=0)

    def test_bad_thread_key(self):
        with pytest.raises(ValueError):
            SpeculationConfig("x", "prev", thread_key="warp")

    def test_table_entries(self):
        cfg = SpeculationConfig("x", "prev", pc_index="mod", pc_bits=4,
                                thread_key="ltid")
        assert cfg.table_entries() == 16 * 32
        gtid = SpeculationConfig("x", "prev", pc_index="mod", pc_bits=4,
                                 thread_key="gtid")
        assert gtid.table_entries(2048) == 16 * 2048


def previous_same_key(keys, valid):
    """One history column, every row its own simultaneity group."""
    return previous_same_key_batch(keys, np.arange(len(keys)),
                                   np.asarray(valid)[:, None])[:, 0]


class TestPreviousSameKey:
    def test_basic_chain(self):
        keys = np.array([7, 3, 7, 7, 3], dtype=np.int64)
        prev = previous_same_key(keys, np.ones(5, bool))
        assert list(prev) == [-1, -1, 0, 2, 1]

    def test_validity_mask_skips_rows(self):
        keys = np.array([1, 1, 1], dtype=np.int64)
        prev = previous_same_key(keys, np.array([True, False, True]))
        assert list(prev) == [-1, -1, 0]

    def test_empty(self):
        prev = previous_same_key(np.array([], dtype=np.int64),
                                 np.array([], dtype=bool))
        assert len(prev) == 0


class TestTraceDerived:
    def test_n_predictions_by_width(self):
        t = make_trace([0] * 4, [0] * 4, [0] * 4, [1] * 4, [1] * 4,
                       width=[64, 32, 23, 52])
        assert list(trace_n_predictions(t)) == [7, 3, 2, 6]

    def test_slice_carries_padded(self):
        t = make_trace([0], [0], [0], [0xFF], [0x01], width=[32])
        pack = build_pack(t)
        carries = np.column_stack([pack.cin, columns(pack.carries)])
        assert carries.shape == (1, 8)
        assert list(carries[0]) == [0, 1, 0, 0, 0, 0, 0, 0]

    def test_peek_known_cases(self):
        # slice0 MSB (bit 7) both zero -> carry into slice 1 known 0
        t = make_trace([0, 0, 0], [0, 0, 0], [0, 0, 0],
                       [0x00, 0x80, 0x80], [0x00, 0x80, 0x00], width=16)
        pack = build_pack(t)
        known, value = columns(pack.peek_known), columns(pack.peek_value)
        assert known[0, 0] and value[0, 0] == 0      # both MSbs 0
        assert known[1, 0] and value[1, 0] == 1      # both MSbs 1
        assert not known[2, 0]                       # mixed -> dynamic

    def test_peek_is_always_correct(self, rng):
        """The Peek static rule must never contradict the true carry."""
        t = random_trace(rng, n=2000)
        pack = build_pack(t)
        known, value = columns(pack.peek_known), columns(pack.peek_value)
        known = known.astype(bool)
        carries = columns(pack.carries)
        n_preds = trace_n_predictions(t)
        in_range = np.arange(MAX_PREDICTIONS)[None, :] < n_preds[:, None]
        sel = known & in_range
        assert np.array_equal(value[sel], carries[sel])


class TestTraceGroups:
    """One id per ``(seq, warp)``: equal ids exactly for equal pairs."""

    @staticmethod
    def assert_partition(seq, warp, dtype):
        seq = np.asarray(seq, dtype=np.int64)
        warp = np.asarray(warp, dtype=np.int32)
        groups = trace_groups(SimpleNamespace(seq=seq, warp=warp))
        assert groups.dtype == dtype
        _, by_pair = np.unique(np.stack([seq, warp], axis=1), axis=0,
                               return_inverse=True)
        _, by_group = np.unique(groups, return_inverse=True)
        labels = set(zip(by_pair.ravel().tolist(), by_group.tolist()))
        assert len(labels) == by_pair.max() + 1 == by_group.max() + 1

    def test_small_ids_are_int32(self, rng):
        self.assert_partition(rng.integers(0, 3000, 5000),
                              rng.integers(0, 64, 5000), np.int32)

    def test_negative_warps(self, rng):
        self.assert_partition(rng.integers(0, 50, 2000),
                              rng.integers(-8, 8, 2000), np.int32)

    def test_ids_past_int32_stay_int64(self, rng):
        self.assert_partition(rng.integers(0, 1 << 24, 5000),
                              rng.integers(0, 1 << 10, 5000), np.int64)

    def test_empty(self):
        empty = SimpleNamespace(seq=np.zeros(0, dtype=np.int64),
                                warp=np.zeros(0, dtype=np.int32))
        assert trace_groups(empty).shape == (0,)


class TestHistoryKeys:
    def test_modpc_collapses_pcs(self):
        t = make_trace([0, 16, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1],
                       [1, 1, 1])
        cfg = SpeculationConfig("x", "prev", pc_index="mod", pc_bits=4)
        keys = history_keys(t, cfg)
        assert keys[0] == keys[1] != keys[2]

    def test_ltid_shares_across_warps(self):
        t = make_trace([0, 0], [5, 37], [5, 5], [1, 1], [1, 1])
        cfg = SpeculationConfig("x", "prev", thread_key="ltid")
        keys = history_keys(t, cfg)
        assert keys[0] == keys[1]
        gcfg = SpeculationConfig("x", "prev", thread_key="gtid")
        gkeys = history_keys(t, gcfg)
        assert gkeys[0] != gkeys[1]

    def test_sm_scoping_separates(self):
        t = make_trace([0, 0], [0, 0], [0, 0], [1, 1], [1, 1], sm=[0, 1])
        shared = history_keys(t, SpeculationConfig("x", "prev"))
        scoped = history_keys(t, SpeculationConfig("x", "prev",
                                                   sm_scoped=True))
        assert shared[0] == shared[1]
        assert scoped[0] != scoped[1]


class TestStaticMechanisms:
    def test_static_zero_perfect_on_carryless(self):
        t = make_trace([0] * 8, range(8), range(8), [1] * 8, [1] * 8,
                       width=64)
        r = run_speculation(t, SpeculationConfig("z", "static0"))
        assert r.thread_misprediction_rate == 0.0

    def test_static_one_all_wrong_on_carryless(self):
        t = make_trace([0] * 8, range(8), range(8), [1] * 8, [1] * 8,
                       width=64)
        r = run_speculation(t, SpeculationConfig("o", "static1"))
        assert r.thread_misprediction_rate == 1.0


class TestPrevMechanism:
    def test_prediction_is_previous_carries(self):
        # two ops, same key; second op's prediction = first op's carries
        a = [0xFF, 0x01]
        b = [0x01, 0x01]
        t = make_trace([0, 0], [0, 0], [0, 0], a, b, width=16)
        pack = build_pack(t)
        pred = predict_trace_batch(t, SpeculationConfig("p", "prev"), pack)
        carries0 = np.concatenate([pack.cin[:1],
                                   columns(pack.carries)[0]])
        bits, has_prev = columns(pred.bits), columns(pred.has_prev)
        assert bits[0, 0] == 0                 # cold table predicts 0
        assert bits[1, 0] == carries0[1]       # 0xFF+0x01 generated carry
        assert has_prev[1, 0] and not has_prev[0, 0]

    def test_pc_disambiguation_prevents_aliasing(self):
        # alternating PCs with opposite carry behaviour
        a = [0xFF, 0x00] * 20
        b = [0x01, 0x00] * 20
        pcs = [0, 1] * 20
        t = make_trace(pcs, [0] * 40, [0] * 40, a, b, width=16)
        aliased = run_speculation(t, SpeculationConfig("a", "prev"))
        split = run_speculation(
            t, SpeculationConfig("s", "prev", pc_index="full"))
        assert split.thread_misprediction_rate \
            < aliased.thread_misprediction_rate

    def test_narrow_op_does_not_clobber_high_bits(self):
        """A 23-bit op between two 64-bit ops must leave predictions of
        slices it does not have untouched."""
        a64 = int(bitops.to_unsigned(-1, 64))  # carries at every boundary
        ops = np.array([a64, 0, a64], dtype=np.uint64)
        t = make_trace([0, 0, 0], [0, 0, 0], [0, 0, 0],
                       ops, [1, 0, 1], width=[64, 23, 64])
        pred = predict(t, SpeculationConfig("p", "prev"))
        # third op's low 2 prediction bits were updated by the 23-bit op
        # (carry-free), its high 5 still come from op 0 (all carries)
        assert list(columns(pred.bits)[2]) == [0, 0, 1, 1, 1, 1, 1]


class TestOracleCrossCheck:
    """Vectorised predictions must equal the sequential reference."""

    @pytest.mark.parametrize("cfg", [
        SpeculationConfig("shared", "prev"),
        SpeculationConfig("peek", "prev", peek=True),
        SpeculationConfig("mod4", "prev", pc_index="mod", pc_bits=4),
        SpeculationConfig("full-gtid", "prev", pc_index="full",
                          thread_key="gtid"),
        SpeculationConfig("ltid", "prev", pc_index="mod", pc_bits=4,
                          thread_key="ltid", peek=True),
        SpeculationConfig("xor", "prev", pc_index="xor", pc_bits=4),
        SpeculationConfig("sm", "prev", pc_index="mod", pc_bits=2,
                          sm_scoped=True),
    ])
    def test_matches_reference(self, cfg, rng):
        t = random_trace(rng, n=400, n_pcs=20, n_threads=96)
        fast = columns(predict(t, cfg).bits)
        slow = ReferencePredictor(cfg).predict_trace(t)
        n_preds = trace_n_predictions(t)
        in_range = np.arange(MAX_PREDICTIONS)[None, :] < n_preds[:, None]
        assert np.array_equal(fast[in_range], slow[in_range])


class TestEvaluate:
    def test_wrong_bits_counts_raw_errors(self, rng):
        t = random_trace(rng, n=200)
        pack = build_pack(t)
        res = run_speculation(t, SpeculationConfig("z", "static0"), pack)
        carries = columns(pack.carries)
        n_preds = trace_n_predictions(t)
        in_range = np.arange(MAX_PREDICTIONS)[None, :] < n_preds[:, None]
        expect = (carries != 0)[in_range].sum()
        assert res.wrong_bits.sum() == expect

    def test_recompute_bounded_by_slices(self, rng):
        t = random_trace(rng, n=500)
        res = run_speculation(t, SpeculationConfig("o", "static1"))
        assert (res.recomputed <= 7).all()
        assert (res.recomputed >= res.mispredicted.astype(int)).all()

    def test_misprediction_rate_zero_with_oracle_predictions(self, rng):
        t = random_trace(rng, n=300)
        pack = build_pack(t)
        mispredicted, _, _ = evaluate_trace_batch(pack, pack.carries)
        assert mispredicted.mean() == 0.0


class TestCarryMatchRate:
    def test_fullpc_beats_no_pc_on_structured_stream(self):
        # PC0 counts up slowly (no carries), PC1 oscillates sign
        n = 200
        pcs = np.tile([0, 1], n // 2)
        a = np.where(pcs == 0, np.arange(n) % 50,
                     bitops.to_unsigned(-np.arange(n) % 1000, 64))
        t = make_trace(pcs, [0] * n, [0] * n, a, [1] * n, width=64)
        no_pc = carry_match_rate(t, SpeculationConfig(
            "g", "prev", thread_key="gtid"))
        with_pc = carry_match_rate(t, SpeculationConfig(
            "fg", "prev", pc_index="full", thread_key="gtid"))
        assert with_pc >= no_pc

    def test_perfectly_repeating_stream_matches_fully(self):
        t = make_trace([0] * 50, [0] * 50, [0] * 50, [0xFF] * 50,
                       [0x01] * 50, width=16)
        rate = carry_match_rate(t, SpeculationConfig(
            "x", "prev", pc_index="full", thread_key="gtid"))
        assert rate == 1.0
