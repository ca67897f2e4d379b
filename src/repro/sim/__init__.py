"""GPU simulator substrate: configuration, kernel DSL, functional
execution, trace capture and the cycle-approximate timing pipeline.

Exports are lazy (PEP 562): importing :mod:`repro.sim` costs nothing
until a name is touched.
"""

from repro._lazy import lazy_attrs

_LAZY_EXPORTS = {
    "AddTrace": ("repro.sim.trace", "AddTrace"),
    "GPUConfig": ("repro.sim.config", "GPUConfig"),
    "GridLauncher": ("repro.sim.functional", "GridLauncher"),
    "InstStream": ("repro.sim.trace", "InstStream"),
    "KernelRun": ("repro.sim.functional", "KernelRun"),
    "LaunchConfig": ("repro.sim.config", "LaunchConfig"),
    "StoredRun": ("repro.sim.trace_store", "StoredRun"),
    "TITAN_V": ("repro.sim.config", "TITAN_V"),
    "TimingResult": ("repro.sim.pipeline", "TimingResult"),
    "TraceStore": ("repro.sim.trace_store", "TraceStore"),
    "TraceStoreCorrupt": ("repro.sim.trace_store", "TraceStoreCorrupt"),
    "compare_baseline_st2": ("repro.sim.pipeline",
                             "compare_baseline_st2"),
    "run_kernel": ("repro.sim.functional", "run_kernel"),
    "simulate_sm": ("repro.sim.pipeline", "simulate_sm"),
    "trace_key": ("repro.sim.trace_store", "trace_key"),
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY_EXPORTS)
