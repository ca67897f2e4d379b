"""Differential fuzzing of the ST2 reproduction (``st2-fuzz``).

Seeded property-based kernel generation (:mod:`repro.fuzz.gen` over
the :mod:`repro.fuzz.kast` mini-AST), a four-way oracle
(:mod:`repro.fuzz.oracles`) cross-validating the static carry facts /
flow analysis, the sanitizer contract, the static bounds, and the
speculative adder against an independent big-int reference, plus
delta-debugging (:mod:`repro.fuzz.shrink`) and the committed
counterexample corpus (:mod:`repro.fuzz.corpus`).
"""

from repro.fuzz.gen import FuzzProfile, GeneratedKernel, generate_kernel
from repro.fuzz.kast import Program
from repro.fuzz.oracles import (KernelVerdict, OracleFailure,
                                check_kernel)
from repro.fuzz.shrink import ShrinkOutcome, minimize

__all__ = [
    "FuzzProfile", "GeneratedKernel", "KernelVerdict", "OracleFailure",
    "Program", "ShrinkOutcome", "check_kernel", "generate_kernel",
    "minimize",
]
