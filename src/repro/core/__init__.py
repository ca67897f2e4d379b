"""The paper's contribution: sliced speculative adders and their
spatio-temporal carry-speculation design space."""

from repro.core.adder import (AddOutcome, CarrySelectAdder, ReferenceAdder,
                              ST2Adder)
from repro.core.predictors import (Prediction, SpeculationConfig,
                                   SpeculationResult, run_speculation)
from repro.core.slices import (FP32_MANTISSA, FP64_MANTISSA, INT32, INT64,
                               AdderGeometry)
from repro.core.speculation import (DESIGN_LADDER, FIG3_CONFIGS, ST2_DESIGN,
                                    explore)

__all__ = [
    "AddOutcome", "AdderGeometry", "CarrySelectAdder", "DESIGN_LADDER",
    "FIG3_CONFIGS", "FP32_MANTISSA", "FP64_MANTISSA", "INT32", "INT64",
    "Prediction", "ReferenceAdder", "ST2Adder", "ST2_DESIGN",
    "SpeculationConfig", "SpeculationResult", "explore", "run_speculation",
]
