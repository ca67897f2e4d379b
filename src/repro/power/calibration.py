"""Least-squares calibration of the power model (paper Section V-C).

For every micro-benchmark we know the model's raw component powers
``P_i`` and measure the synthetic silicon; Eq. (1) is linear in the
unknowns ``(Scale_1..Scale_9, P_const, P_idleSM)``, so a non-negative
least-squares solve recovers them.

:func:`calibrate` runs that whole workflow live.  The model every
simulation uses, :func:`calibrated_model`, is the seed-0 fit shipped
as committed coefficients instead, so no process pays for the fit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.power.components import Component
from repro.power.hardware import SyntheticSilicon
from repro.power.microbench import build_microbenchmarks
from repro.power.model import GPUPowerModel


def nnls(a, b) -> tuple:
    """``argmin ||a x - b||_2`` subject to ``x >= 0``, by the
    Lawson–Hanson active-set method.  Returns ``(x, ||a x - b||_2)``.

    Variables enter the passive (free) set one at a time, steepest
    descent first; whenever the unconstrained solve on the passive set
    leaves a variable non-positive, the step is cut back to the
    feasible boundary and the variables that hit zero leave the set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    limit = 3 * n
    tol = 10.0 * max(a.shape) * np.finfo(float).eps \
        * float(np.abs(a).sum(axis=0).max(initial=0.0))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ b
    for _ in range(limit):
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (s[passive] > 0).all():
                break
            blocking = passive & (s <= 0)
            step = x[blocking] / np.maximum(x[blocking] - s[blocking],
                                            np.finfo(float).tiny)
            x += step.min() * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = s
        w = a.T @ (b - a @ x)
    else:
        raise RuntimeError(f"nnls: no convergence in {limit} iterations")
    return x, float(np.linalg.norm(a @ x - b))


@dataclass
class CalibrationResult:
    model: GPUPowerModel
    residual_w: float           # solver residual norm
    n_benchmarks: int
    measurements_w: np.ndarray
    predictions_w: np.ndarray

    @property
    def training_mape(self) -> float:
        err = np.abs(self.predictions_w - self.measurements_w)
        return float((err / self.measurements_w).mean())


def stressor_system(silicon: SyntheticSilicon, microbenches,
                    base: GPUPowerModel) -> tuple:
    """The Eq. (1) least-squares system ``(a, y)``: per stressor, the
    raw component powers then ``[1, N_idleSM]``, and its measured
    watts."""
    rows = []
    measured = []
    for mb in microbenches:
        raw = [base.raw_component_power_w(mb, c) for c in Component]
        rows.append(raw + [1.0, float(mb.n_idle_sms)])
        measured.append(silicon.measure_w(mb))
    return np.array(rows), np.array(measured)


def calibrate(silicon: SyntheticSilicon = None, microbenches=None,
              base_model: GPUPowerModel = None) -> CalibrationResult:
    """Fit the Eq. (1) scale factors on the stressor suite."""
    silicon = silicon or SyntheticSilicon()
    microbenches = microbenches or build_microbenchmarks()
    base = base_model or GPUPowerModel()

    a, y = stressor_system(silicon, microbenches, base)
    solution, residual = nnls(a, y)
    scales = {c: float(s) for c, s in zip(Component, solution)}
    model = GPUPowerModel(scales=scales,
                          p_const_w=float(solution[-2]),
                          p_idle_sm_w=float(solution[-1]),
                          energies_pj=dict(base.energies_pj))
    predictions = a @ solution
    return CalibrationResult(model=model, residual_w=residual,
                             n_benchmarks=len(microbenches),
                             measurements_w=y, predictions_w=predictions)


#: ``calibrate(SyntheticSilicon(seed=0)).model``, bit for bit as
#: ``scipy.optimize.nnls`` (scipy 1.17.1) fitted it when the result
#: pins were recorded.  :func:`nnls` agrees to about 4e-14 relative,
#: which is enough to flip 12-digit result digests, so these bits stay
#: until the pins are regenerated; tests/power/test_calibration.py
#: prints fresh values when the live fit drifts from them.
_SEED0_SCALES = {
    Component.ALU_FPU: float.fromhex("0x1.1169251b495e2p+0"),
    Component.INT_MULDIV: float.fromhex("0x1.3aaa30d128e0fp+0"),
    Component.FP_MULDIV: float.fromhex("0x1.3c1d2bc3606e7p+0"),
    Component.SFU: float.fromhex("0x1.19e1d4ecfad6dp+0"),
    Component.REGFILE: float.fromhex("0x1.4b68bb0b2ac01p+0"),
    Component.CACHES_MC: float.fromhex("0x1.ce0a4f42b5014p-1"),
    Component.NOC: float.fromhex("0x1.0e4e0d87e775ep+1"),
    Component.OTHERS: float.fromhex("0x1.0d58e0f403a12p+0"),
    Component.DRAM: float.fromhex("0x1.1b0cdf8270c09p-1"),
}
_SEED0_P_CONST_W = float.fromhex("0x1.58513a06a346fp+5")
_SEED0_P_IDLE_SM_W = float.fromhex("0x1.30df0511e8a4fp-1")


@functools.lru_cache(maxsize=None)
def calibrated_model() -> GPUPowerModel:
    """The calibrated model every simulation uses: the seed-0 fit, from
    the committed coefficients (memoised: every call returns the same
    instance)."""
    return GPUPowerModel(scales=dict(_SEED0_SCALES),
                         p_const_w=_SEED0_P_CONST_W,
                         p_idle_sm_w=_SEED0_P_IDLE_SM_W)
