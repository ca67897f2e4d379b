"""The integrated ST2 GPU architecture: end-to-end evaluation, energy
breakdowns, overhead accounting, design-point ablations and the typed
:class:`~repro.st2.results.RunResult` the runner hands back.

Exports are lazy (PEP 562): importing :mod:`repro.st2` costs nothing
until a name is touched — in particular, touching only ``RunResult``
never drags in the power/circuit stack behind the evaluators.
"""

from repro._lazy import lazy_attrs

_LAZY_EXPORTS = {
    "EnergyBreakdown": ("repro.st2.energy", "EnergyBreakdown"),
    "EnergyComparison": ("repro.st2.energy", "EnergyComparison"),
    "KernelEvaluation": ("repro.st2.architecture", "KernelEvaluation"),
    "OverheadReport": ("repro.st2.overheads", "OverheadReport"),
    "RunMetrics": ("repro.st2.results", "RunMetrics"),
    "RunResult": ("repro.st2.results", "RunResult"),
    "as_run_result": ("repro.st2.results", "as_run_result"),
    "evaluate_run": ("repro.st2.architecture", "evaluate_run"),
    "overhead_report": ("repro.st2.overheads", "overhead_report"),
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY_EXPORTS)
