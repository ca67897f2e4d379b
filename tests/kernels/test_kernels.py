"""Per-kernel functional correctness and trace sanity.

Every kernel must (a) compute the right answer where one is defined —
these are real algorithm implementations, not op generators — and
(b) produce a trace with the structural properties the studies rely on.
"""

import numpy as np
import pytest

from repro.isa.opcodes import MixCategory
from repro.kernels import (backprop, binomial, btree, dct8x8, dwt2d,
                           histogram, kmeans, mergesort, mriq, pathfinder,
                           qrng, sad, sgemm, sobol, sorting_networks,
                           sradv1, walsh)

SCALE = 0.2


class TestPathfinder:
    def test_dp_matches_reference(self):
        prep = pathfinder.prepare(scale=SCALE, seed=3)
        prep.run()
        wall = prep.params["gpu_wall"].data
        src = prep.params["gpu_src"].data
        dst = prep.params["gpu_dst"].data
        cols = prep.params["cols"]
        iteration = prep.params["iteration"]
        start = prep.params["start_step"]
        # reference DP, restricted to columns interior to each block
        # tile (the halo shrinks the valid region per iteration)
        grid = np.arange(cols)
        bs = pathfinder.BLOCK_SIZE
        small = bs - 2 * iteration
        # the kernel's own math was already exercised; verify cells far
        # from tile borders match the unrestricted DP
        ref = src.astype(np.int64).copy()
        for i in range(iteration):
            left = np.roll(ref, 1)
            right = np.roll(ref, -1)
            best = np.minimum(np.minimum(left, ref), right)
            ref = best + wall[(start + i) * cols + grid]
        tile_pos = grid - (grid // small) * small
        interior = (tile_pos > iteration) & (tile_pos < small - iteration)
        interior &= (grid > iteration) & (grid < cols - iteration - 1)
        assert np.array_equal(dst[interior], ref[interior])

    def test_scale_limit_is_a_named_error(self):
        """Past scale 3.5 the halo leaves no block-tile columns; that is
        refused by name, not by numpy's negative-dimension error."""
        assert pathfinder.prepare(scale=3.5).params["cols"] > 0
        with pytest.raises(ValueError, match=r"scale=3\.6\b.*3\.5"):
            pathfinder.prepare(scale=3.6)

    def test_trace_has_loop_structure(self):
        run = pathfinder.prepare(scale=SCALE, seed=0).run()
        pcs, counts = np.unique(run.trace.pc, return_counts=True)
        # the in-loop PCs each execute many times
        assert counts.max() > 100
        assert len(pcs) >= 7     # at least the paper's 7 addition PCs


class TestKmeans:
    def test_membership_is_nearest_centre(self):
        prep = kmeans.prepare(scale=SCALE, seed=2)
        prep.run()
        n = prep.params["npoints"]
        nf = prep.params["nfeatures"]
        nc = prep.params["nclusters"]
        feats = prep.params["features"].data.reshape(nf, n)
        centres = prep.params["clusters"].data.reshape(nc, nf)
        membership = prep.params["membership"].data[:n]
        dists = ((feats.T[:, None, :].astype(np.float32)
                  - centres[None, :, :]) ** 2).sum(axis=2)
        expect = dists.argmin(axis=1)
        agree = (membership == expect).mean()
        assert agree > 0.99     # fp32 summation-order ties allowed


class TestBackprop:
    def test_layerforward_partial_sums(self):
        prep = backprop.prepare_k1(scale=SCALE, seed=1)
        prep.run()
        n_in = prep.params["n_inputs"]
        n_hid = prep.params["n_hidden"]
        inputs = prep.params["inputs"].data
        weights = prep.params["weights"].data.reshape(n_in, n_hid)
        sums = prep.params["partial_sums"].data
        h = backprop.HEIGHT
        for blk in range(min(3, n_in // h)):
            rows = slice(blk * h, (blk + 1) * h)
            expect = (inputs[rows, None] * weights[rows]).sum(axis=0)
            got = sums[blk * n_hid:(blk + 1) * n_hid]
            assert np.allclose(got, expect, rtol=1e-4)

    def test_adjust_weights_update_rule(self):
        prep = backprop.prepare_k2(scale=SCALE, seed=1)
        w_before = prep.params["w"].data.copy()
        old_before = prep.params["oldw"].data.copy()
        ly = prep.params["ly"].data
        delta = prep.params["delta"].data
        n_hid = prep.params["n_hidden"]
        prep.run()
        w_after = prep.params["w"].data
        # check one touched weight
        row, tx = 1, 2
        index = row * (n_hid + 1) + tx
        grad = backprop.ETA * delta[tx] * ly[row]
        dw = grad + backprop.MOMENTUM * old_before[index]
        assert w_after[index] == pytest.approx(w_before[index] + dw,
                                               rel=1e-5)


class TestSgemm:
    def test_matches_numpy(self):
        prep = sgemm.prepare(scale=0.5, seed=4)
        m, n, kk = (prep.params[x] for x in ("m", "n", "kk"))
        a = prep.params["a"].data.reshape(m, kk).copy()
        b = prep.params["b"].data.reshape(kk, n).copy()
        c0 = prep.params["c"].data.reshape(m, n).copy()
        prep.run()
        got = prep.params["c"].data.reshape(m, n)
        expect = 1.0 * (a @ b) + 0.5 * c0
        assert np.allclose(got, expect, rtol=1e-4)

    def test_ffma_is_a_major_mix_component(self):
        """The tiled inner product makes FFMA a dominant FPU-add source
        (1 per 5 inner-loop instructions without register blocking)."""
        run = sgemm.prepare(scale=0.5, seed=4).run()
        mix = run.insts.mix()
        assert mix[MixCategory.FPU_ADD] > 0.12 * sum(mix.values())


class TestSortingKernels:
    def test_bitonic_shared_sorts_each_chunk(self):
        prep = sorting_networks.prepare_k1(scale=SCALE, seed=5)
        prep.run()
        keys = prep.params["keys"].data
        chunk = sorting_networks.CHUNK
        for c in range(len(keys) // chunk):
            part = keys[c * chunk:(c + 1) * chunk]
            assert (np.diff(part) >= 0).all(), f"chunk {c} unsorted"

    def test_merge_global_pass_moves_keys(self):
        prep = sorting_networks.prepare_k2(scale=SCALE, seed=5)
        before = prep.params["keys"].data.copy()
        prep.run()
        after = prep.params["keys"].data
        assert sorted(before) == sorted(after)   # permutation only

    def test_mergesort_shared_sorts_each_tile(self):
        prep = mergesort.prepare_k1(scale=SCALE, seed=6)
        prep.run()
        keys = prep.params["keys"].data
        chunk = mergesort.CHUNK
        for c in range(len(keys) // chunk):
            part = keys[c * chunk:(c + 1) * chunk]
            assert (np.diff(part) >= 0).all()

    def test_merge_intervals_produces_sorted_pairs(self):
        prep = mergesort.prepare_k2(scale=SCALE, seed=6)
        prep.run()
        dst = prep.params["dst"].data
        tile = prep.params["tile"]
        for p in range(len(dst) // (2 * tile)):
            pair = dst[p * 2 * tile:(p + 1) * 2 * tile]
            assert (np.diff(pair) >= 0).all(), f"pair {p} unsorted"


class TestBtree:
    def test_point_queries_find_leaf_values(self):
        prep = btree.prepare_k1(scale=SCALE, seed=7)
        prep.run()
        answers = prep.params["answers"].data
        n_q = prep.params["n_queries"]
        # every query key exists in the tree; answers are leaf values
        # (key+1), and must be > 0 (a real leaf was reached)
        assert (answers[:n_q] > 0).all()

    def test_range_queries_nonnegative_span(self):
        prep = btree.prepare_k2(scale=SCALE, seed=7)
        prep.run()
        answers = prep.params["answers"].data
        n_q = prep.params["n_queries"]
        assert (answers[:n_q] >= 0).all()


class TestHistogram:
    def test_partial_histograms_sum_to_data(self):
        prep = histogram.prepare(scale=SCALE, seed=8)
        prep.run()
        partial = prep.params["partial_hist"].data
        data = prep.params["data"].data
        bins = histogram.BINS
        got = partial.reshape(-1, bins).sum(axis=0)
        bytes_ = data.view(np.uint8) & (bins - 1)
        expect = np.bincount(bytes_, minlength=bins)
        # per-thread sub-histograms are conflict-free: exact counts
        assert np.array_equal(got, expect)


class TestNumericalKernels:
    def test_dct_energy_preserved(self):
        """An orthonormal 8-point DCT preserves row L2 norms."""
        prep = dct8x8.prepare(scale=SCALE, seed=9)
        img = prep.params["image"].data.copy()
        prep.run()
        coef = prep.params["coeffs"].data
        w = prep.params["blocks_per_row"] * 8
        img2 = (img.reshape(-1, w) - 128).reshape(-1, 8)
        coef2 = coef.reshape(-1, 8)
        assert np.allclose((img2 ** 2).sum(axis=1),
                           (coef2 ** 2).sum(axis=1), rtol=1e-3)

    def test_walsh_batch1_is_walsh_transform(self):
        prep = walsh.prepare_k2(scale=SCALE, seed=10)
        data_before = prep.params["data"].data.copy()
        prep.run()
        data_after = prep.params["data"].data
        chunk = 2 * walsh.BLOCK
        # reference Walsh-Hadamard on the first chunk
        ref = data_before[:chunk].astype(np.float64).copy()
        h = 1
        while h < chunk:
            for i in range(0, chunk, h * 2):
                for j in range(i, i + h):
                    x, y = ref[j], ref[j + h]
                    ref[j], ref[j + h] = x + y, x - y
            h *= 2
        assert np.allclose(np.sort(np.abs(data_after[:chunk])),
                           np.sort(np.abs(ref)), rtol=1e-3)

    def test_dwt_lifting_predict_step(self):
        prep = dwt2d.prepare(scale=SCALE, seed=11)
        img = prep.params["image"].data.copy()
        prep.run()
        high = prep.params["high_out"].data
        # detail coefficient of pair 1 (interior): d = odd - (s0+s1)>>1
        i = 1
        s0, d0, s1 = img[2 * i], img[2 * i + 1], img[2 * i + 2]
        assert high[i] == d0 - ((s0 + s1) >> 1)

    def test_binomial_prices_positive_and_below_spot(self):
        prep = binomial.prepare(scale=SCALE, seed=12)
        prep.run()
        prices = prep.params["results"].data
        spots = prep.params["spots"].data
        assert (prices >= 0).all()
        assert (prices <= spots * 3).all()

    def test_sradv1_coefficients_clamped(self):
        prep = sradv1.prepare(scale=SCALE, seed=13)
        prep.run()
        c = prep.params["c_out"].data
        assert (c >= 0).all() and (c <= 1).all()

    def test_mriq_accumulates_bounded_magnitudes(self):
        prep = mriq.prepare(scale=SCALE, seed=14)
        prep.run()
        qr = prep.params["qr"].data
        phi = prep.params["phi_mag"].data
        assert np.abs(qr).max() <= phi.sum() + 1e-3

    def test_sad_zero_for_identical_frames(self):
        prep = sad.prepare(scale=SCALE, seed=15)
        prep.params["ref"].data[:] = prep.params["cur"].data
        prep.run()
        sads = prep.params["sad_out"].data
        # the zero-offset candidate (cand == SEARCH//2) must be 0
        zero_cand = sads[sad.SEARCH // 2::sad.SEARCH]
        assert (zero_cand == 0).all()


class TestQuasirandom:
    def test_qrng_output_in_unit_interval(self):
        prep = qrng.prepare_k1(scale=SCALE, seed=16)
        prep.run()
        out = prep.params["output"].data
        assert (out >= 0).all() and (out < 1).all()

    def test_qrng_deterministic(self):
        a = qrng.prepare_k1(scale=SCALE, seed=16)
        a.run()
        b = qrng.prepare_k1(scale=SCALE, seed=16)
        b.run()
        assert np.array_equal(a.params["output"].data,
                              b.params["output"].data)

    def test_inverse_cnd_monotone_in_central_region(self):
        prep = qrng.prepare_k2(scale=SCALE, seed=17)
        prep.run()
        out = prep.params["output"].data
        samples = prep.params["samples"].data
        central = (samples > 0.2) & (samples < 0.8)
        order = np.argsort(samples[central])
        assert (np.diff(out[central][order]) >= -1e-4).all()

    def test_sobol_covers_unit_interval(self):
        prep = sobol.prepare(scale=SCALE, seed=18)
        prep.run()
        out = prep.params["output"].data
        assert (out >= 0).all() and (out < 1).all()
        assert out.std() > 0.2      # actually spreads out
