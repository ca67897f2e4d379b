"""repro — a full reproduction of *ST2 GPU: An Energy-Efficient GPU
Design with Spatio-Temporal Shared-Thread Speculative Adders*
(Kandiah, Gok, Tziantzioulis, Hardavellas — DAC 2021).

Public API highlights
---------------------

* :class:`repro.core.adder.ST2Adder` — the speculative sliced adder.
* :class:`repro.core.predictors.SpeculationConfig` /
  :func:`repro.core.predictors.run_speculation` — the carry-speculation
  design space over execution traces.
* :data:`repro.core.speculation.ST2_DESIGN` — the paper's final design
  point (``Ltid+Prev+ModPC4+Peek``).
* :mod:`repro.kernels.suite` — the 23-kernel evaluation suite.
* :func:`repro.st2.architecture.evaluate_suite` — the end-to-end
  Section VI evaluation (misprediction, timing, energy).
* :mod:`repro.runner` — the parallel cached experiment runner
  (``st2-run``) with its two-stage trace-store pipeline (``st2-trace``).
* :mod:`repro.serve` — the async sharded experiment service
  (``st2-serve`` / ``st2-client``) speaking the typed, versioned wire
  schemas of :mod:`repro.api`.
* :mod:`repro.sweep` — declarative design-space sweeps (``st2-sweep``)
  with incremental Pareto-frontier tracking, sound dominance pruning
  and manifest-based resume, locally or against ``st2-serve``.

See DESIGN.md for the full system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every figure, and README.md ("Public API")
for the stability guarantees of the names exported here.
"""

from repro._lazy import lazy_attrs
from repro.core.adder import CarrySelectAdder, ReferenceAdder, ST2Adder
from repro.core.predictors import (SpeculationConfig, SpeculationResult,
                                   run_speculation)
from repro.core.slices import AdderGeometry
from repro.core.speculation import DESIGN_LADDER, ST2_DESIGN
from repro.sim.config import GPUConfig, LaunchConfig, TITAN_V
from repro.sim.functional import GridLauncher, KernelRun, run_kernel

__version__ = "1.0.0"

#: Runner / trace-store / observability entry points exported lazily
#: (PEP 562): they pull in the whole kernel suite or the metrics
#: machinery, which ``import repro`` users on the quickstart path
#: should not pay for.
_LAZY_EXPORTS = {
    "ErrorEnvelope": ("repro.api", "ErrorEnvelope"),
    "JobResult": ("repro.api", "JobResult"),
    "JobSpec": ("repro.api", "JobSpec"),
    "JobStatus": ("repro.api", "JobStatus"),
    "Obs": ("repro.obs", "Obs"),
    "ParetoPoint": ("repro.sweep.pareto", "ParetoPoint"),
    "ResultCache": ("repro.runner", "ResultCache"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "SweepResult": ("repro.sweep.engine", "SweepResult"),
    "SweepSpec": ("repro.api", "SweepSpec"),
    "RunMetrics": ("repro.st2.results", "RunMetrics"),
    "RunOptions": ("repro.runner", "RunOptions"),
    "RunResult": ("repro.st2.results", "RunResult"),
    "TraceStore": ("repro.sim.trace_store", "TraceStore"),
    "UnitSpec": ("repro.runner", "UnitSpec"),
    "build_units": ("repro.runner", "build_units"),
    "get_obs": ("repro.obs", "get_obs"),
    "metrics_path_for": ("repro.obs", "metrics_path_for"),
    "read_metrics": ("repro.obs", "read_metrics"),
    "run_suite_units": ("repro.runner", "run_suite_units"),
    "run_units": ("repro.runner", "run_units"),
    "write_metrics": ("repro.obs", "write_metrics"),
}

__all__ = [
    "AdderGeometry",
    "CarrySelectAdder",
    "DESIGN_LADDER",
    "ErrorEnvelope",
    "GPUConfig",
    "GridLauncher",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "KernelRun",
    "LaunchConfig",
    "Obs",
    "ParetoPoint",
    "ReferenceAdder",
    "ResultCache",
    "RunMetrics",
    "RunOptions",
    "RunResult",
    "ST2Adder",
    "ST2_DESIGN",
    "ServeClient",
    "SpeculationConfig",
    "SpeculationResult",
    "SweepResult",
    "SweepSpec",
    "TITAN_V",
    "TraceStore",
    "UnitSpec",
    "build_units",
    "get_obs",
    "metrics_path_for",
    "read_metrics",
    "run_kernel",
    "run_speculation",
    "run_suite_units",
    "run_units",
    "write_metrics",
]

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY_EXPORTS)
