"""Calibration + validation workflow (paper Section V-C)."""

import itertools

import numpy as np
import pytest

from repro.kernels.suite import run_suite
from repro.power.activity import activity_from_run
from repro.power.calibration import (calibrate, calibrated_model, nnls,
                                     stressor_system)
from repro.power.components import MODEL_ENERGY_PJ
from repro.power.hardware import (TRUE_P_CONST_W, TRUE_P_IDLE_SM_W,
                                  SyntheticSilicon)
from repro.power.microbench import build_microbenchmarks
from repro.power.model import GPUPowerModel
from repro.power.validation import validate
from repro.sim.pipeline import simulate_sm


@pytest.fixture(scope="module")
def calibration():
    return calibrate(SyntheticSilicon(seed=11))


class TestCalibration:
    def test_recovers_constant_power(self, calibration):
        assert calibration.model.p_const_w \
            == pytest.approx(TRUE_P_CONST_W, rel=0.15)

    def test_recovers_idle_sm_power(self, calibration):
        assert calibration.model.p_idle_sm_w \
            == pytest.approx(TRUE_P_IDLE_SM_W, rel=0.2)

    def test_scales_near_unity(self, calibration):
        """Model energies are roughly right, so fitted scales should be
        O(1) — none degenerate to zero, none explode."""
        for c, s in calibration.model.scales.items():
            assert 0.2 < s < 5.0, f"{c} scale degenerate: {s}"

    def test_training_error_small(self, calibration):
        assert calibration.training_mape < 0.06

    def test_uses_all_123_stressors(self, calibration):
        assert calibration.n_benchmarks == 123

    def test_memoised_model(self):
        assert calibrated_model() is calibrated_model()


def _coefficients(model) -> dict:
    return {**{c.name: s for c, s in model.scales.items()},
            "p_const_w": model.p_const_w,
            "p_idle_sm_w": model.p_idle_sm_w}


class TestCommittedModel:
    """``calibrated_model()`` ships the seed-0 fit as constants."""

    def test_matches_live_seed0_fit(self):
        live = _coefficients(calibrate(SyntheticSilicon(seed=0)).model)
        committed = _coefficients(calibrated_model())
        fresh = "\n".join(f"  {name}: {value.hex()}"
                          for name, value in live.items())
        assert committed.keys() == live.keys()
        for name, value in committed.items():
            assert value == pytest.approx(live[name], rel=1e-12), (
                f"{name} drifted from the live seed-0 fit; fresh "
                f"values:\n{fresh}")

    def test_energies_are_the_model_defaults(self):
        assert calibrated_model().energies_pj == MODEL_ENERGY_PJ


def _exhaustive_nnls(a, b):
    """Reference NNLS: the best feasible unconstrained solve over every
    possible set of free variables."""
    n = a.shape[1]
    best = np.zeros(n), float(np.linalg.norm(b))
    for k in range(1, n + 1):
        for free in itertools.combinations(range(n), k):
            cols = list(free)
            x = np.zeros(n)
            x[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if (x >= 0).all():
                residual = float(np.linalg.norm(a @ x - b))
                if residual < best[1]:
                    best = x, residual
    return best


def _random_problems(count=50):
    """Seeded problems with some constraints binding.  One column
    blends the others, so it often enters the free set first and must
    leave again once they enter: the active-set method's backtracking
    step."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n + 2, 3 * n + 3))
        base = rng.normal(size=(m, n - 1))
        blend = base @ rng.uniform(0.5, 1.0, size=n - 1) \
            + 0.3 * rng.normal(size=m)
        a = np.column_stack([base, blend])[:, rng.permutation(n)]
        x_true = rng.uniform(0.5, 1.5, size=n - 1) \
            * rng.choice([1.0, 1.0, -1.0], size=n - 1)
        yield a, base @ x_true + 0.1 * rng.normal(size=m)


class TestNNLS:
    def test_matches_exhaustive_active_sets(self):
        """Agreement with the exhaustive optimum, plus the KKT
        conditions: ``x >= 0``, gradient ``w = a^T (b - a x) <= 0`` and
        ``w_i = 0`` wherever ``x_i > 0``."""
        binding = 0
        for a, b in _random_problems():
            x, residual = nnls(a, b)
            ref, ref_residual = _exhaustive_nnls(a, b)
            np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)
            assert residual == pytest.approx(ref_residual, rel=1e-9)
            w = a.T @ (b - a @ x)
            scale = np.abs(a).sum() * np.abs(b).max()
            assert (x >= 0).all()
            assert (w <= 1e-10 * scale).all()
            np.testing.assert_allclose(w[x > 0], 0.0, atol=1e-10 * scale)
            binding += int((x == 0).any())
        assert binding >= 25

    def test_all_negative_target_gives_zero(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x, residual = nnls(a, np.array([-1.0, -1.0, -1.0]))
        assert (x == 0).all()
        assert residual == pytest.approx(np.sqrt(3.0))

    def test_agrees_with_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        stressors = stressor_system(SyntheticSilicon(seed=0),
                                    build_microbenchmarks(),
                                    GPUPowerModel())
        for a, b in [stressors, *_random_problems()]:
            x, residual = nnls(a, b)
            ref, ref_residual = optimize.nnls(a, b)
            np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)
            assert residual == pytest.approx(ref_residual, rel=1e-9)


class TestValidation:
    @pytest.fixture(scope="class")
    def result(self, calibration):
        runs = run_suite(scale=0.15, seed=0)
        acts = {n: activity_from_run(r, simulate_sm(r.insts, r.launch),
                                     name=n)
                for n, r in runs.items()}
        return validate(calibration.model, acts,
                        SyntheticSilicon(seed=11))

    def test_error_in_papers_regime(self, result):
        """Paper: 10.5 % +/- 3.8 %; the kernel suite is a held-out set
        so some error is expected, but it must stay usable."""
        assert 0.01 < result.mape < 0.20

    def test_strong_correlation(self, result):
        """Paper: Pearson r = 0.8."""
        assert result.pearson_r > 0.75

    def test_ci_reported(self, result):
        assert result.mape_ci95 > 0

    def test_summary_format(self, result):
        s = result.summary()
        assert "MAPE" in s and "Pearson" in s and "23 kernels" in s

    def test_validation_is_out_of_sample(self, result):
        """No kernel name may appear among the stressor names."""
        from repro.power.microbench import build_microbenchmarks
        stressors = {m.name for m in build_microbenchmarks()}
        assert not (set(result.kernel_names) & stressors)
