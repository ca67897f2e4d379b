"""``repro.sweep`` — declarative design-space sweeps over the runner.

A :class:`~repro.api.SweepSpec` (JSON or YAML file, or wire document)
places axes over :class:`~repro.core.predictors.SpeculationConfig`
fields and crosses them with a kernel list; this package expands the
grid into provable equivalence classes (:mod:`~repro.sweep.grid`),
executes it resumably over the runner pool
(:mod:`~repro.sweep.engine`), tracks the Pareto frontier over
(energy saved, misprediction rate, perf overhead) with sound early
pruning (:mod:`~repro.sweep.pareto`), and renders ``sweep.json`` into
markdown reports (:mod:`~repro.sweep.report`).  The ``st2-sweep`` CLI
(:mod:`~repro.sweep.cli`) fronts all of it.  See ``docs/sweeping.md``.
"""

from repro.sweep.engine import (ResumeMismatch, SweepError,
                                SweepOptions, SweepResult, run_sweep)
from repro.sweep.grid import SweepPlan, expand_plan
from repro.sweep.pareto import (OBJECTIVES, ParetoFrontier, ParetoPoint,
                                dominates, frontiers_equal)

__all__ = ["OBJECTIVES", "ParetoFrontier", "ParetoPoint",
           "ResumeMismatch", "SweepError", "SweepOptions", "SweepPlan",
           "SweepResult", "dominates", "expand_plan",
           "frontiers_equal", "run_sweep"]
