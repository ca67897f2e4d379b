"""End-to-end ST2 GPU evaluation: the whole experiment per kernel.

This module strings every substrate together the way the paper's
modified GPGPU-Sim + GPUWattch toolchain does:

1. functional execution (trace + instruction stream),
2. carry speculation with the final ST2 design (Ltid+Prev+ModPC4+Peek),
3. cycle-approximate timing of the baseline and ST2 pipelines,
4. the calibrated power model, with ST2's adder-energy transformation.

``evaluate_kernel``/``evaluate_suite`` are what the Figure 6/7 and the
performance-overhead benchmarks call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.characterize import AdderEnergyModel, characterize_adders
from repro.core.predictors import SpeculationConfig, SpeculationResult
from repro.core.speculation import ST2_DESIGN
from repro.kernels import suite as kernel_suite
from repro.power.calibration import calibrated_model
from repro.power.model import GPUPowerModel
from repro.sim.pipeline import TimingResult
from repro.st2.energy import EnergyComparison

_adder_model_cache: dict = {}


def default_adder_model() -> AdderEnergyModel:
    if "model" not in _adder_model_cache:
        _adder_model_cache["model"] = characterize_adders()
    return _adder_model_cache["model"]


@dataclass
class KernelEvaluation:
    """Everything the paper reports about one kernel."""

    name: str
    speculation: SpeculationResult
    timing_baseline: TimingResult
    timing_st2: TimingResult
    energy: EnergyComparison

    @property
    def misprediction_rate(self) -> float:
        """Figure 6."""
        return self.speculation.thread_misprediction_rate

    @property
    def recomputed_per_misprediction(self) -> float:
        return self.speculation.recomputed_per_misprediction

    @property
    def slowdown(self) -> float:
        """Execution-time overhead (Section VI: 0.36 % mean)."""
        return (self.timing_st2.total_cycles
                / self.timing_baseline.total_cycles) - 1.0

    @property
    def system_saving(self) -> float:
        return self.energy.system_saving

    @property
    def chip_saving(self) -> float:
        return self.energy.chip_saving

    @property
    def arithmetic_intensive(self) -> bool:
        """The paper's >20 %-of-system-energy-in-ALU+FPU criterion."""
        return self.energy.alu_fpu_share > 0.20


def evaluate_run(run, config: SpeculationConfig = ST2_DESIGN,
                 model: GPUPowerModel = None,
                 adder_model: AdderEnergyModel = None) -> KernelEvaluation:
    """Evaluate one already-executed kernel run end to end."""
    from repro.sim.vec.engine import evaluate_unit

    evaluation, _ = evaluate_unit(run, config, {},
                                  model or calibrated_model(),
                                  adder_model or default_adder_model())
    return evaluation


def evaluate_kernel(name: str, scale: float = 1.0, seed: int = 0,
                    config: SpeculationConfig = ST2_DESIGN,
                    model: GPUPowerModel = None,
                    adder_model: AdderEnergyModel = None) -> KernelEvaluation:
    """Run one suite kernel by name and evaluate it end to end
    (misprediction, timing, energy) under ``config``."""
    run = kernel_suite.run_kernel(name, scale=scale, seed=seed)
    return evaluate_run(run, config=config, model=model,
                        adder_model=adder_model)


def evaluate_suite(scale: float = 1.0, seed: int = 0,
                   names=None,
                   config: SpeculationConfig = ST2_DESIGN,
                   model: GPUPowerModel = None,
                   adder_model: AdderEnergyModel = None) -> dict:
    """Run the whole Section VI evaluation; name -> KernelEvaluation."""
    model = model or calibrated_model()
    adder_model = adder_model or default_adder_model()
    runs = kernel_suite.run_suite(scale=scale, seed=seed, names=names)
    return {name: evaluate_run(run, config=config, model=model,
                               adder_model=adder_model)
            for name, run in runs.items()}
