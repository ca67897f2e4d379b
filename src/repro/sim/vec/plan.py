"""Per-trace plans for the evaluation engine, with a small cache.

A *plan* bundles everything about one captured run that does not depend
on the :class:`~repro.core.predictors.SpeculationConfig` being
evaluated: the :class:`~repro.core.batch.TracePack` of derived adder
arrays and the :class:`~repro.sim.vec.timing.TimingPlan` of resolved
scheduling decisions (which also memoises the timing pair per
miss-fraction vector), plus memos of the static carry-fact overlay
(packed once into the pack's byte layout), of the ``prev`` mechanism's
simultaneity groups and history predictions per history key (so
configs that differ only in ``peek`` share one sort) and of the
auxiliary (VaLHALLA + Figure 3) measurements.

The runner evaluates all configs of one trace in one process, so plans
are cached under the run's trace-store key
(:attr:`~repro.sim.trace_store.StoredRun.key`, a content hash of
kernel, scale, seed, code version and store format) with a small
bounded LRU: grids iterate configs per trace, so only a handful of
traces are ever hot at once, and a pack (8 bytes per row) plus its
history memo (8 bytes per row of groups, 2 per row and history key)
should not accumulate for a whole suite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.batch import HistoryMemo, TracePack, build_pack, pack_bits
from repro.core.predictors import trace_static_peek
from repro.sim.vec.timing import TimingPlan, build_timing_plan

#: traces kept planned at once (a grid evaluates configs per trace)
PLAN_CACHE_SIZE = 8


@dataclass
class TracePlan:
    """Config-independent plan of one captured kernel run."""

    n_rows: int
    n_insts: int
    pack: TracePack
    timing: TimingPlan
    # memo of the static carry-fact overlay; facts tables come from the
    # per-module memo in repro.lint.facts, so identity comparison of
    # the table object is the cache key
    _static_facts: Any = field(default=None, repr=False)
    _static_overlay: Optional[Tuple[np.ndarray, np.ndarray]] = \
        field(default=None, repr=False)
    _aux: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: the ``prev`` mechanism's groups and per-key predictions, filled
    #: by :func:`~repro.core.batch.predict_trace_batch`
    history: HistoryMemo = field(default_factory=HistoryMemo, repr=False)

    def static_peek(self, trace: Any,
                    facts: Any) -> Tuple[np.ndarray, np.ndarray]:
        """``(known, value)`` bytes of the compile-time facts over
        ``trace``, in the pack's bit layout."""
        facts = facts or None       # every empty table pins nothing
        if self._static_overlay is None or self._static_facts is not facts:
            known, value = trace_static_peek(trace, facts)
            self._static_facts = facts
            self._static_overlay = pack_bits(known), pack_bits(value)
        return self._static_overlay

    def aux(self, measure: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        """The trace's config-independent auxiliary measurements:
        ``measure()`` on first use, memoised like the static overlay.
        Every caller gets its own copy, so one unit's result dict never
        aliases another's."""
        if self._aux is None:
            self._aux = measure()
        return copy.deepcopy(self._aux)


_PLANS: Dict[str, TracePlan] = {}


def plan_for(run: Any) -> TracePlan:
    """The (possibly cached) plan of ``run``.

    A stored run is cached under its trace-store key, which names its
    exact bytes.  A run without a key (a live capture, a fuzz kernel)
    gets a fresh plan that is not cached.
    """
    key = getattr(run, "key", "")
    plan = _PLANS.get(key) if key else None
    if plan is not None:
        _PLANS[key] = _PLANS.pop(key)          # refresh LRU position
        return plan
    plan = TracePlan(n_rows=len(run.trace), n_insts=len(run.insts),
                     pack=build_pack(run.trace),
                     timing=build_timing_plan(run))
    if key:
        _PLANS[key] = plan
        while len(_PLANS) > PLAN_CACHE_SIZE:
            _PLANS.pop(next(iter(_PLANS)))
    return plan


def clear_plans() -> None:
    """Drop every cached plan (tests)."""
    _PLANS.clear()
