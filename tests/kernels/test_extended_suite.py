"""Extension kernels: secondary kernels of the suite workloads."""

import numpy as np
import pytest

from repro.core.predictors import run_speculation
from repro.core.speculation import ST2_DESIGN
from repro.kernels import dct8x8, histogram, mriq, sradv1
from repro.kernels.suite import (EXTENDED_NAMES, EXTENDED_SUITE,
                                 run_kernel)

SCALE = 0.2


class TestRegistry:
    def test_extension_kernels_registered(self):
        assert len(EXTENDED_SUITE) == 10
        assert "tensorGemm" in EXTENDED_NAMES
        assert "reduction" in EXTENDED_NAMES
        assert "affineChain" in EXTENDED_NAMES

    def test_run_kernel_reaches_extensions(self):
        run = run_kernel("mri-q_K2", scale=SCALE)
        assert len(run.trace) > 0

    def test_extensions_work_with_st2_machinery(self):
        run = run_kernel("histo_K2", scale=SCALE)
        res = run_speculation(run.trace, ST2_DESIGN)
        assert 0.0 <= res.thread_misprediction_rate <= 1.0


class TestSrad2:
    def test_update_moves_image_toward_smoothness(self):
        prep = sradv1.prepare_k2(scale=SCALE, seed=0)
        before = prep.params["image"].data.copy()
        prep.run()
        after = prep.params["image"].data
        assert not np.array_equal(before, after)
        # diffusion smooths: total variation must not increase much
        rows, cols = prep.params["rows"], prep.params["cols"]
        tv = lambda img: np.abs(
            np.diff(img.reshape(rows, cols), axis=1)).sum()
        assert tv(after) < tv(before) * 1.05


class TestDct2D:
    def test_column_pass_completes_2d_dct(self):
        prep = dct8x8.prepare_k2(scale=SCALE, seed=0)
        prep.run()
        out = prep.params["out"].data
        w = prep.params["blocks_per_row"] * 8
        # Parseval over each 8x8 tile: 2-D DCT preserves tile energy
        coeffs = prep.params["coeffs"].data.reshape(-1, w)
        out2 = out.reshape(-1, w)
        for by in range(coeffs.shape[0] // 8):
            for bx in range(w // 8):
                tile_in = coeffs[by * 8:(by + 1) * 8,
                                 bx * 8:(bx + 1) * 8]
                tile_out = out2[by * 8:(by + 1) * 8,
                                bx * 8:(bx + 1) * 8]
                assert np.allclose((tile_in ** 2).sum(),
                                   (tile_out ** 2).sum(), rtol=1e-3)


class TestHistogramMerge:
    def test_merged_totals_exact(self):
        prep = histogram.prepare_merge(scale=SCALE, seed=0)
        partial = prep.params["partial_hist"].data.copy()
        prep.run()
        merged = prep.params["hist"].data
        expect = partial.reshape(-1, histogram.BINS).sum(axis=0)
        assert np.array_equal(merged, expect)


class TestReduction:
    def test_block_sums_match_reference(self):
        from repro.kernels import reduction
        prep = reduction.prepare(scale=0.3, seed=0)
        data = prep.params["data"].data.copy()
        n = prep.params["n"]
        ipt = prep.params["items_per_thread"]
        total_threads = prep.launch.total_threads
        prep.run()
        partial = prep.params["partial"].data
        for b in range(prep.launch.grid_blocks):
            tids = np.arange(b * 128, (b + 1) * 128)
            idxs = np.concatenate(
                [tids + i * total_threads for i in range(ipt)])
            idxs = idxs[idxs < n]
            expect = data[idxs].astype(np.float64).sum()
            assert partial[b] == pytest.approx(expect, rel=1e-4)

    def test_warp_reduction_traces_fpu_adds(self):
        from repro.isa.opcodes import MixCategory
        from repro.kernels import reduction
        run = reduction.prepare(scale=0.2, seed=1).run()
        mix = run.insts.mix()
        assert mix[MixCategory.FPU_ADD] > 0


class TestJacobiDP:
    def test_stencil_math(self):
        from repro.kernels import dp_stencil
        prep = dp_stencil.prepare(scale=SCALE, seed=0)
        rows, cols = prep.params["rows"], prep.params["cols"]
        g = prep.params["grid_in"].data.reshape(rows, cols).copy()
        prep.run()
        out = prep.params["grid_out"].data.reshape(rows, cols)
        expect = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                         + g[1:-1, :-2] + g[1:-1, 2:])
        assert np.allclose(out[1:-1, 1:-1], expect)
        # boundaries untouched
        assert np.array_equal(out[0], g[0])

    def test_uses_the_dpu_mantissa_adder(self):
        from repro.kernels import dp_stencil
        run = dp_stencil.prepare(scale=SCALE, seed=0).run()
        assert 52 in np.unique(run.trace.width)
        # 52-bit ops predict 6 carries (7 slices)
        from repro.core.predictors import trace_n_predictions
        n_preds = trace_n_predictions(run.trace)
        assert 6 in np.unique(n_preds)

    def test_st2_predicts_smooth_fp64_fields_well(self):
        from repro.kernels import dp_stencil
        run = dp_stencil.prepare(scale=0.5, seed=0).run()
        res = run_speculation(run.trace, ST2_DESIGN)
        assert res.thread_misprediction_rate < 0.5


class TestHotspot:
    def test_transient_step(self):
        from repro.kernels import hotspot
        prep = hotspot.prepare(scale=SCALE, seed=0)
        tin = prep.params["temp_in"].data.copy()
        prep.run()
        rows, cols = prep.params["rows"], prep.params["cols"]
        t = tin.reshape(rows, cols).astype(np.float64)
        p = prep.params["power"].data.reshape(rows, cols)
        vert = (t[:-2, 1:-1] + t[2:, 1:-1] - 2 * t[1:-1, 1:-1]) * 0.1
        horiz = (t[1:-1, :-2] + t[1:-1, 2:] - 2 * t[1:-1, 1:-1]) * 0.1
        sink = (300.0 - t[1:-1, 1:-1]) * 0.05
        expect = t[1:-1, 1:-1] + 0.5 * (vert + horiz
                                        + p[1:-1, 1:-1] + sink)
        out = prep.params["temp_out"].data.reshape(rows, cols)
        assert np.allclose(out[1:-1, 1:-1], expect, rtol=1e-4)

    def test_smooth_fields_predict_well(self):
        from repro.kernels import hotspot
        run = hotspot.prepare(scale=0.4, seed=0).run()
        res = run_speculation(run.trace, ST2_DESIGN)
        assert res.thread_misprediction_rate < 0.45


class TestNeedle:
    def test_dp_matches_host_reference(self):
        from repro.kernels import needle
        prep = needle.prepare(scale=SCALE, seed=3)
        score0 = prep.params["score"].data.copy()
        ref = prep.params["reference"].data.copy()
        n = prep.params["n"]
        prep.run()
        got = prep.params["score"].data.reshape(n + 1, n + 1)
        expect = needle.nw_reference(score0, ref, n)
        assert np.array_equal(got, expect)

    def test_wavefront_has_loop_structure(self):
        from repro.kernels import needle
        run = needle.prepare(scale=SCALE, seed=0).run()
        pcs, counts = np.unique(run.trace.pc, return_counts=True)
        assert counts.max() > 50     # diagonal loop re-executes PCs


class TestPhiMag:
    def test_magnitudes(self):
        prep = mriq.prepare_phimag(scale=SCALE, seed=0)
        prep.run()
        r = prep.params["phi_r"].data
        i = prep.params["phi_i"].data
        mag = prep.params["phi_mag"].data
        assert np.allclose(mag, r * r + i * i, rtol=1e-5)
