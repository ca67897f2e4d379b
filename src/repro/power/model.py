"""The GPUWattch-style linear power model — Eq. (1) of the paper:

    P_total = P_const + N_idleSM * P_idleSM + sum_i(P_i * Scale_i)

``P_i`` is the model's estimate of component i's dynamic power (event
rate times the per-event model energy); ``Scale_i`` are the per-component
correction factors a least-squares solver fits against hardware
measurements (:mod:`repro.power.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.activity import ActivityVector
from repro.power.components import (MODEL_ALU_SUBTYPE_PJ, MODEL_ENERGY_PJ,
                                    MODEL_P_CONST_W, MODEL_P_IDLE_SM_W,
                                    Component)


@dataclass
class GPUPowerModel:
    """Calibratable implementation of Eq. (1)."""

    scales: dict = field(
        default_factory=lambda: {c: 1.0 for c in Component})
    p_const_w: float = MODEL_P_CONST_W
    p_idle_sm_w: float = MODEL_P_IDLE_SM_W
    energies_pj: dict = field(
        default_factory=lambda: dict(MODEL_ENERGY_PJ))

    def raw_component_power_w(self, activity: ActivityVector,
                              component: Component) -> float:
        """``P_i`` — the uncalibrated model power of one component.

        ALU+FPU is modelled per operation subtype (adds vs logic vs FP)
        when the activity carries the fine counts; other components use
        their single per-event energy.
        """
        if component is Component.ALU_FPU:
            fine_j = sum(activity.fine.get(sub, 0.0) * pj
                         for sub, pj in MODEL_ALU_SUBTYPE_PJ.items())
            if fine_j > 0:
                return fine_j * 1e-12 / activity.duration_s
        return (activity.rate(component)
                * self.energies_pj[component] * 1e-12)

    def alu_subtype_energy_j(self, activity: ActivityVector,
                             subtype: str) -> float:
        """Calibrated model energy of one ALU+FPU op subtype."""
        return (activity.fine.get(subtype, 0.0)
                * MODEL_ALU_SUBTYPE_PJ[subtype] * 1e-12
                * self.scales[Component.ALU_FPU])

    def component_power_w(self, activity: ActivityVector) -> dict:
        """Calibrated per-component dynamic power (``P_i * Scale_i``)."""
        return {c: self.raw_component_power_w(activity, c)
                * self.scales[c] for c in Component}

    def total_power_w(self, activity: ActivityVector) -> float:
        """Eq. (1)."""
        dynamic = sum(self.component_power_w(activity).values())
        return (self.p_const_w
                + activity.n_idle_sms * self.p_idle_sm_w
                + dynamic)

    def component_energy_j(self, activity: ActivityVector) -> dict:
        """Per-component dynamic energy over the kernel duration."""
        return {c: p * activity.duration_s
                for c, p in self.component_power_w(activity).items()}

    def total_energy_j(self, activity: ActivityVector) -> float:
        return self.total_power_w(activity) * activity.duration_s

    def static_energy_j(self, activity: ActivityVector) -> float:
        """Constant + idle-SM energy over the duration."""
        return (self.p_const_w + activity.n_idle_sms
                * self.p_idle_sm_w) * activity.duration_s
