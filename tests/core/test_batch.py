"""The batched carry-speculation kernels vs their slow references.

Every function in :mod:`repro.core.batch` must be bit-identical to the
per-width / per-row formulation in ``tests/core/reference_speculation.py``
(built on :mod:`repro.core.bitops`, :class:`~repro.core.adder.ST2Adder`
and its dict-based ``ReferencePredictor``); these tests
assert it on synthetic traces that sweep odd widths (1, 7, 9, 23, 33,
63 ...) alongside the canonical 23/32/52/64-bit geometries, and on
every width 1..64 with carry-chain edge operands.  The kernels hold one
byte per row; the tests read it through ``np.unpackbits``
(``ref_spec.columns``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitops
from repro.core.batch import (_gen_prop_all, _peek_all,
                              _slice_carries_all, build_pack,
                              evaluate_trace_batch, predict_trace_batch,
                              previous_same_key_batch)
from repro.core.predictors import MAX_PREDICTIONS, trace_n_predictions
from repro.core.predictors import SpeculationConfig
from repro.core.speculation import CASA, PREV, ST2_DESIGN, VALHALLA
from tests.conftest import make_trace
from tests.core import reference_speculation as ref_spec
from tests.core.reference_speculation import columns, packed

#: deliberately awkward adder geometries: single-slice rows, widths
#: one off a slice boundary, and the canonical suite widths
WIDTHS = (1, 7, 8, 9, 16, 23, 24, 32, 33, 52, 63, 64)

CONFIGS = [ST2_DESIGN, PREV, VALHALLA, CASA]


def odd_width_trace(seed: int, n: int = 400):
    """A random trace mixing every width in :data:`WIDTHS`, with
    full-range operands (bit 63 reachable for 64-bit rows)."""
    rng = np.random.default_rng(seed)
    width = rng.choice(WIDTHS, n).astype(np.uint8)
    hi = rng.integers(0, 1 << 32, n, dtype=np.uint64) << np.uint64(32)
    lo = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    mask = np.uint64(0xFFFFFFFFFFFFFFFF) >> \
        (np.uint64(64) - width.astype(np.uint64))
    op_a = (hi | lo) & mask
    hi = rng.integers(0, 1 << 32, n, dtype=np.uint64) << np.uint64(32)
    lo = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    op_b = (hi | lo) & mask
    gtid = rng.integers(0, 96, n)
    return make_trace(rng.integers(0, 8, n), gtid, gtid % 32,
                      op_a, op_b, cin=rng.integers(0, 2, n),
                      width=width, sm=gtid % 4)


@pytest.fixture(scope="module", params=[0, 1, 2])
def trace(request):
    return odd_width_trace(request.param)


@pytest.fixture(scope="module")
def pack(trace):
    """The trace's one pack, shared by every kernel call on it."""
    return build_pack(trace)


def valid_columns(trace) -> np.ndarray:
    """``(N, 7)`` bool: boundary ``j`` exists in row ``r``."""
    return (np.arange(MAX_PREDICTIONS)[None, :]
            < trace_n_predictions(trace)[:, None])


class TestPackBuilders:
    def test_slice_carries_match_reference(self, trace):
        carries = np.column_stack([trace.cin,
                                   columns(_slice_carries_all(trace))])
        np.testing.assert_array_equal(carries,
                                      ref_spec.slice_carries(trace))

    def test_peek_matches_reference(self, trace):
        known, value = _peek_all(trace, packed(valid_columns(trace)))
        ref_known, ref_value = ref_spec.peek(trace)
        np.testing.assert_array_equal(columns(known), ref_known)
        np.testing.assert_array_equal(columns(value), ref_value)

    def test_gen_prop_match_bitops_loop(self, trace):
        """The one-pass G/P tables vs the per-row, per-slice
        :func:`bitops.carry_out` definition: ``g`` is the slice's
        carry-out under carry-in 0, ``p`` marks carry-in 1 flipping
        it."""
        gen, prop = _gen_prop_all(trace)
        assert_gen_prop(trace, gen, prop, rows_sample(trace))

    def test_pack_rows_subset(self, trace, pack):
        idx = np.array([0, 5, 17, len(trace) - 1])
        sub = pack.rows(idx)
        assert sub.n_rows == len(idx)
        np.testing.assert_array_equal(sub.carries, pack.carries[idx])
        np.testing.assert_array_equal(sub.valid, pack.valid[idx])
        np.testing.assert_array_equal(sub.gen, pack.gen[idx])
        np.testing.assert_array_equal(sub.cin, pack.cin[idx])

    def test_valid_mask_is_n_preds_prefix(self, trace, pack):
        np.testing.assert_array_equal(
            columns(pack.valid).astype(bool), valid_columns(trace))
        np.testing.assert_array_equal(pack.n_preds,
                                      trace_n_predictions(trace))

    def test_at_most_8_bytes_per_row(self, trace, pack):
        arrays = [v for v in vars(pack).values()
                  if isinstance(v, np.ndarray)]
        assert all(a.dtype == np.uint8 and a.shape == (len(trace),)
                   for a in arrays)
        assert sum(a.nbytes for a in arrays) / pack.n_rows <= 8


def assert_gen_prop(trace, gen, prop, rows) -> None:
    """``gen`` / ``prop`` bytes vs :func:`bitops.carry_out` per row and
    slice below each speculated boundary ``0 .. n_preds - 1``; the last
    slice's bit and every bit past it are zero."""
    gen, prop = columns(gen, 8), columns(prop, 8)
    n_preds = trace_n_predictions(trace)
    for r in rows:
        w = int(trace.width[r])
        bounds = bitops.slice_bounds(w, 8)
        assert len(bounds) == n_preds[r] + 1
        for j in range(8):
            if j >= n_preds[r]:
                assert gen[r, j] == 0 and prop[r, j] == 0, (r, j, w)
                continue
            lo, hi = bounds[j]
            sw = hi - lo
            sa = (int(trace.op_a[r]) >> lo) & ((1 << sw) - 1)
            sb = (int(trace.op_b[r]) >> lo) & ((1 << sw) - 1)
            g = int(bitops.carry_out(sa, sb, sw, cin=0))
            c1 = int(bitops.carry_out(sa, sb, sw, cin=1))
            assert gen[r, j] == g, (r, j, w)
            assert prop[r, j] == (c1 & ~g & 1), (r, j, w)


def rows_sample(trace, per_width: int = 6):
    """A few row indices of every distinct width (keeps the pure-Python
    reference loop affordable)."""
    out = []
    for w in np.unique(trace.width):
        out.extend(np.nonzero(trace.width == w)[0][:per_width])
    return out


class TestPredictEvaluateParity:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[c.name for c in CONFIGS])
    def test_predict_matches_reference(self, trace, pack, config):
        bits, has_prev = ref_spec.predict(trace, config)
        vec = predict_trace_batch(trace, config, pack)
        # a history table answers only for boundaries a row has
        valid = valid_columns(trace)
        np.testing.assert_array_equal(columns(vec.bits)[valid],
                                      bits[valid])
        np.testing.assert_array_equal(columns(vec.has_prev), has_prev)
        expect_known = ref_spec.peek(trace)[0] if config.peek \
            else np.zeros_like(valid)
        np.testing.assert_array_equal(columns(vec.peek_known),
                                      expect_known)

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[c.name for c in CONFIGS])
    def test_evaluate_matches_reference(self, trace, pack, config):
        bits = predict_trace_batch(trace, config, pack).bits
        mis, rec, wrong = evaluate_trace_batch(pack, bits)
        ref_mis, ref_rec, ref_wrong = ref_spec.evaluate(trace,
                                                        columns(bits))
        np.testing.assert_array_equal(mis, ref_mis)
        np.testing.assert_array_equal(rec, ref_rec)
        np.testing.assert_array_equal(wrong, ref_wrong)

    def test_evaluate_arbitrary_bits(self, trace, pack):
        """Parity must hold for *any* prediction overlay, not just ones
        a mechanism produces (the static-fact path feeds synthetic
        bits)."""
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (len(trace), MAX_PREDICTIONS),
                            dtype=np.uint8)
        mis, rec, wrong = evaluate_trace_batch(pack, packed(bits))
        ref_mis, ref_rec, ref_wrong = ref_spec.evaluate(trace, bits)
        np.testing.assert_array_equal(mis, ref_mis)
        np.testing.assert_array_equal(rec, ref_rec)
        np.testing.assert_array_equal(wrong, ref_wrong)


#: every mechanism, with and without the Peek overlay
MECHANISM_CONFIGS = [
    SpeculationConfig(f"{mechanism}{'+Peek' * peek}", mechanism, peek=peek)
    for mechanism in ("static0", "static1", "operand", "valhalla", "prev")
    for peek in (False, True)]


def width_trace(width: int, seed: int, n_random: int = 48):
    """Rows of one adder ``width``: random operands plus carry-chain
    edge cases — all ones plus one, all ones plus all ones, ``a = ~b``
    (every bit propagates) under carry-in 0 and 1, and zero plus zero
    with carry-in 1."""
    rng = np.random.default_rng(seed)
    mask = (1 << width) - 1

    def draw() -> list:
        return [int(v) & mask for v in
                rng.integers(0, 1 << 64, n_random, dtype=np.uint64)]

    edges = [(mask, 1, 0), (mask, mask, 0), (mask, mask, 1), (0, 0, 1),
             (0, mask, 0), (0, mask, 1)]
    edges += [(x, ~x & mask, cin) for x in draw()[:4] for cin in (0, 1)]
    op_a = draw() + [e[0] for e in edges]
    op_b = draw() + [e[1] for e in edges]
    cin = list(rng.integers(0, 2, n_random)) + [e[2] for e in edges]
    n = len(op_a)
    gtid = rng.integers(0, 6, n)
    return make_trace(rng.integers(0, 3, n), gtid, gtid % 32,
                      np.asarray(op_a, dtype=np.uint64),
                      np.asarray(op_b, dtype=np.uint64), cin=cin,
                      width=width, sm=gtid % 2)


class TestEveryWidthGroundTruth:
    """The packed kernels replayed against the per-width ``ST2Adder`` /
    Peek references on every adder width 1..64, under all five
    mechanisms."""

    @pytest.mark.parametrize("width", range(1, 65))
    def test_predict_and_evaluate(self, width):
        trace = width_trace(width, seed=width)
        pack = build_pack(trace)
        valid = valid_columns(trace)
        np.testing.assert_array_equal(
            np.column_stack([pack.cin, columns(pack.carries)]),
            ref_spec.slice_carries(trace))
        assert_gen_prop(trace, pack.gen, pack.prop, range(len(trace)))
        ref_known, ref_value = ref_spec.peek(trace)
        np.testing.assert_array_equal(columns(pack.peek_known), ref_known)
        np.testing.assert_array_equal(columns(pack.peek_value), ref_value)
        for config in MECHANISM_CONFIGS:
            bits, has_prev = ref_spec.predict(trace, config)
            vec = predict_trace_batch(trace, config, pack)
            np.testing.assert_array_equal(
                columns(vec.bits)[valid], bits[valid], err_msg=config.name)
            np.testing.assert_array_equal(columns(vec.has_prev), has_prev)
            got = evaluate_trace_batch(pack, vec.bits)
            expect = ref_spec.evaluate(trace, columns(vec.bits))
            for g, e in zip(got, expect):
                np.testing.assert_array_equal(g, e, err_msg=config.name)


class TestPreviousSameKeyBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_boundary_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 300, MAX_PREDICTIONS
        keys = rng.integers(0, 12, n)
        groups = np.repeat(np.arange((n + 3) // 4), 4)[:n]
        valid = rng.random((n, k)) < 0.6
        batch = previous_same_key_batch(keys, groups, valid)
        for j in range(k):
            ref = ref_spec.previous(keys, groups, valid[:, j])
            np.testing.assert_array_equal(batch[:, j], ref, err_msg=str(j))

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_columns_match_per_column_loop(self, seed):
        """Copying a column whose valid set repeats the previous one is
        exact for any mask shape: duplicate, shifted, empty, all-valid,
        prefix-shaped and random columns, under random (non-contiguous)
        groups."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        k = int(rng.integers(1, 2 * MAX_PREDICTIONS))
        keys = rng.integers(0, int(rng.integers(1, 10)), n)
        groups = rng.integers(0, max(n // 3, 1), n)
        n_preds = rng.integers(0, k + 1, n)
        cols = []
        for j in range(k):
            kind = rng.integers(0, 6)
            if kind == 0 and cols:
                col = cols[-1].copy()
            elif kind == 5 and cols:
                # as many valid rows as the previous column, other rows
                col = np.roll(cols[-1], 1)
            elif kind == 1:
                col = np.zeros(n, dtype=bool)
            elif kind == 2:
                col = np.ones(n, dtype=bool)
            elif kind == 3:
                col = n_preds > j
            else:
                col = rng.random(n) < rng.random()
            cols.append(col)
        valid = np.stack(cols, axis=1).reshape(n, k)
        np.testing.assert_array_equal(
            previous_same_key_batch(keys, groups, valid),
            ref_spec.previous_columns(keys, groups, valid))

    def test_short_input(self):
        prev = previous_same_key_batch(
            np.array([3]), np.array([0]),
            np.ones((1, MAX_PREDICTIONS), dtype=bool))
        assert (prev == -1).all()
