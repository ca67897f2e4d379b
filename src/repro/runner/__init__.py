"""Parallel, persistently-cached experiment runner.

The runner executes (kernel × :class:`SpeculationConfig`) work units —
trace, speculate, time, energy — on a :class:`WorkerPool` (inline for
one worker), memoises completed units on disk keyed by a content hash
that includes the source-module versions, and records every invocation
as a JSONL manifest.  The same pool class serves ``st2-sweep`` (one
pool across all waves) and ``st2-serve`` (one pool for the daemon); a
unit whose worker process dies twice raises :class:`WorkerLost`.
``st2-run`` / ``python -m repro.runner`` is the CLI; the benchmark
suite drives the same machinery through :func:`run_suite_units`.
"""

from repro.runner.cache import (ResultCache, code_version,
                                default_cache_dir, unit_key)
from repro.runner.manifest import read_manifest
from repro.runner.options import RunOptions
from repro.runner.pool import (WorkerLost, WorkerPool, default_workers,
                               run_suite_units, run_units)
from repro.runner.units import (UnitSpec, build_units,
                                derive_unit_seed, execute_unit,
                                resolve_configs, results_equal,
                                unit_trace_key)

__all__ = [
    "ResultCache", "RunOptions", "UnitSpec", "WorkerLost", "WorkerPool",
    "build_units",
    "code_version", "default_cache_dir", "default_workers",
    "derive_unit_seed", "execute_unit", "read_manifest",
    "resolve_configs", "results_equal", "run_suite_units", "run_units",
    "unit_key", "unit_trace_key",
]
