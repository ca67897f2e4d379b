"""``repro.obs`` — the unified observability layer.

Zero-dependency counters and hierarchical span timers, threaded
through the hot paths of the stack (functional executor, cycle models,
predictors, trace store, runner), plus the ``metrics.json`` dump format
and the baseline machinery behind ``st2-stats``.

Instrumented code calls the **module-level helpers**, which route to
the *active* registry::

    from repro import obs

    obs.add("sim.functional.trace_rows", len(trace))
    with obs.span("core.predict"):   # runner.unit/core.predict in a unit
        ...

By default the active registry is one process-wide :class:`Obs`.
:func:`scoped` installs a fresh registry for the current thread — the
runner wraps each work unit in one, ships the unit's snapshot back to
the parent with the result, and merges everything into a per-invocation
registry whose snapshot becomes ``metrics.json``.

See ``docs/observability.md`` for the metric taxonomy, span naming
convention and the baseline workflow.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.obs.metrics import (BASELINE_VERSION, METRICS_VERSION,
                               baseline_from_metrics, check_baseline,
                               diff_metrics, flatten_metrics,
                               load_baseline, lookup_metric,
                               metrics_path_for, read_metrics,
                               write_metrics)
from repro.obs.registry import SPAN_SEP, TIMER_FIELDS, Obs, TimerStat

__all__ = [
    "BASELINE_VERSION", "METRICS_VERSION", "Obs", "SPAN_SEP",
    "TIMER_FIELDS", "TimerStat", "add", "baseline_from_metrics",
    "check_baseline", "diff_metrics", "flatten_metrics", "get_obs",
    "load_baseline", "lookup_metric", "metrics_path_for", "read_metrics",
    "record_timer", "scoped", "span", "write_metrics",
]

#: the process-wide fallback registry (instrumentation outside any
#: :func:`scoped` block lands here)
_GLOBAL = Obs()

_ACTIVE = threading.local()


def get_obs() -> Obs:
    """The registry instrumentation currently routes to: the innermost
    :func:`scoped` registry on this thread, else the process global."""
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else _GLOBAL


@contextmanager
def scoped(registry: Obs = None):
    """Route this thread's instrumentation into ``registry`` (a fresh
    :class:`Obs` when omitted) for the duration of the block, yielding
    it.  Nests; other threads are unaffected."""
    registry = registry if registry is not None else Obs()
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()


# -- conveniences over the active registry -----------------------------

def add(name: str, n=1) -> None:
    """Accumulate ``n`` into counter ``name`` of the active registry."""
    get_obs().add(name, n)


def record_timer(name: str, seconds: float) -> None:
    """Record one pre-measured duration into timer ``name``."""
    get_obs().record_timer(name, seconds)


def span(name: str):
    """Context manager opening a hierarchical span on the active
    registry."""
    return get_obs().span(name)
