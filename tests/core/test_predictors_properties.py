"""Property-based tests: the vectorised history machinery must agree
with the sequential reference on arbitrary traces, and core invariants
must hold for any operands."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (build_pack, evaluate_trace_batch,
                              predict_trace_batch)
from repro.core.predictors import (MAX_PREDICTIONS, SpeculationConfig,
                                   run_speculation, trace_n_predictions)
from tests.conftest import make_trace
from tests.core.reference_speculation import ReferencePredictor, columns


@st.composite
def traces(draw, max_rows=80):
    """Small random traces with grouped warp instructions."""
    n_groups = draw(st.integers(1, max_rows // 4))
    pcs = draw(st.lists(st.integers(0, 6), min_size=n_groups,
                        max_size=n_groups))
    widths = draw(st.lists(st.sampled_from([23, 32, 52, 64]),
                           min_size=n_groups, max_size=n_groups))
    lanes_per_group = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))

    pc, gtid, ltid, warp, op_a, op_b, width, cin = \
        [], [], [], [], [], [], [], []
    for g in range(n_groups):
        w = widths[g]
        for lane in range(lanes_per_group):
            pc.append(pcs[g])
            gtid.append(lane + 32 * (g % 3))
            ltid.append(lane)
            warp.append(g % 3)
            op_a.append(int(rng.integers(0, 1 << min(w, 62))))
            op_b.append(int(rng.integers(0, 1 << min(w, 62))))
            width.append(w)
            cin.append(int(rng.integers(0, 2)))
    t = make_trace(pc, gtid, ltid, op_a, op_b, cin=cin, width=width,
                   warp=warp)
    # group rows into warp instructions: same seq for a group
    t.seq = np.repeat(np.arange(n_groups, dtype=np.int64),
                      lanes_per_group)
    return t


CONFIGS = [
    SpeculationConfig("shared", "prev"),
    SpeculationConfig("ltid", "prev", pc_index="mod", pc_bits=4,
                      thread_key="ltid", peek=True),
    SpeculationConfig("full-gtid", "prev", pc_index="full",
                      thread_key="gtid"),
]


class TestOracleEquivalence:
    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_vectorised_matches_sequential(self, trace):
        pack = build_pack(trace)
        for cfg in CONFIGS:
            fast = columns(predict_trace_batch(trace, cfg, pack).bits)
            slow = ReferencePredictor(cfg).predict_trace(trace)
            n_preds = trace_n_predictions(trace)
            in_range = (np.arange(MAX_PREDICTIONS)[None, :]
                        < n_preds[:, None])
            assert np.array_equal(fast[in_range], slow[in_range]), \
                cfg.name


class TestUniversalInvariants:
    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_peek_bits_always_correct(self, trace):
        pack = build_pack(trace)
        known = columns(pack.peek_known).astype(bool)
        value = columns(pack.peek_value)
        carries = columns(pack.carries)
        n_preds = trace_n_predictions(trace)
        in_range = (np.arange(MAX_PREDICTIONS)[None, :]
                    < n_preds[:, None])
        sel = known & in_range
        assert np.array_equal(value[sel], carries[sel])

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_mispredictions_bounded_by_wrong_bits(self, trace):
        """An op can only stall if at least one raw bit was wrong, and
        every wrong bit forces at least a one-slice recompute."""
        res = run_speculation(trace, CONFIGS[1])
        assert (res.mispredicted <= (res.wrong_bits > 0)).all()
        assert (res.recomputed[res.mispredicted] >= 1).all()
        assert (res.recomputed[~res.mispredicted] == 0).all()

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_static_zero_misses_exactly_on_carries(self, trace):
        pack = build_pack(trace)
        res = run_speculation(trace, SpeculationConfig("z", "static0"),
                              pack)
        carries = columns(pack.carries)
        n_preds = trace_n_predictions(trace)
        in_range = (np.arange(MAX_PREDICTIONS)[None, :]
                    < n_preds[:, None])
        has_carry = (carries.astype(bool) & in_range).any(axis=1)
        # with all-zero predictions, E[i] fires iff some true slice
        # carry-out is 1 — i.e. exactly when a carry crosses a boundary
        assert np.array_equal(res.mispredicted, has_carry)

    @given(trace=traces())
    @settings(max_examples=30, deadline=None)
    def test_oracle_predictions_never_stall(self, trace):
        pack = build_pack(trace)
        mispredicted, _, _ = evaluate_trace_batch(pack, pack.carries)
        assert not mispredicted.any()
