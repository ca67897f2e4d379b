"""The (trace × config) evaluation engine — the only evaluation path.

:func:`evaluate_unit` produces a unit's
:class:`~repro.st2.architecture.KernelEvaluation` and its static-peek
ablation row from one batched pass:

* the prediction is computed **once** per (trace, config), reusing
  the plan's history memo, and the static carry-fact overlay is a byte
  select re-evaluated only on the rows it changes;
* the ST2-adder outcome comes from the generate/propagate bytes of the
  trace plan;
* the timing pair replays a pre-resolved schedule
  (:mod:`repro.sim.vec.timing`).

**Counters.**  Each unit adds one prediction and one evaluation to the
``core.predict.*`` / ``core.adder.*`` counters; the adder misprediction
counters describe the dynamic evaluation (the static overlay's outcome
is reported in the ablation row, not counted).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro import obs
from repro.core.batch import (count_bits, evaluate_trace_batch,
                              predict_trace_batch)
from repro.core.predictors import (SpeculationConfig, SpeculationResult,
                                   count_speculation)
from repro.sim.vec.plan import TracePlan, plan_for
from repro.sim.vec.timing import replay_pair


def evaluate_unit(run: Any, config: SpeculationConfig, facts: Any,
                  model: Any, adder_model: Any
                  ) -> Tuple[Any, Dict[str, Any]]:
    """One (trace × config) unit, end to end.

    Returns ``(KernelEvaluation, static_peek_metrics)``: the dynamic
    evaluation, and what the static carry-fact table ``facts`` buys on
    top of it (see :func:`_static_peek_row`).
    """
    from repro.power.activity import activity_from_run
    from repro.st2.architecture import KernelEvaluation
    from repro.st2.energy import (EnergyComparison, baseline_breakdown,
                                  st2_breakdown)

    plan: TracePlan = plan_for(run)
    pack = plan.pack
    n = pack.n_rows
    trace = run.trace

    with obs.span("core.predict"):
        pred = predict_trace_batch(trace, config, pack, plan.history)
    static_known, static_value = plan.static_peek(trace, facts)

    with obs.span("core.evaluate"):
        mis, rec, wrong = evaluate_trace_batch(pack, pred.bits)
        # the static pass re-evaluates only rows the fact overlay
        # actually changes on a *valid* boundary: a bit that differs
        # only past a row's last boundary cannot reach any output
        # (every consumer is masked with the valid bits, and validity
        # is a per-row prefix, so assumed carries feeding valid slices
        # are themselves valid)
        rows = np.flatnonzero(static_known & (static_value ^ pred.bits)
                              & pack.valid)
        mis_s = mis
        if rows.size:
            static_bits = (pred.bits[rows] & ~static_known[rows]) \
                | static_value[rows]
            mis_s = mis.copy()
            mis_s[rows] = evaluate_trace_batch(pack.rows(rows),
                                               static_bits)[0]

    speculation = SpeculationResult(config=config, n_ops=n,
                                    mispredicted=mis, recomputed=rec,
                                    wrong_bits=wrong)
    count_speculation(n, prediction=pred,
                      history_lookups=pack.history_lookups,
                      result=speculation)
    obs.add("predictor.static_peek_hits", count_bits(static_known))

    base_t, st2_t = replay_pair(plan.timing, mis)

    activity = activity_from_run(run, base_t, name=run.name)
    baseline = baseline_breakdown(model, activity)
    duration_scale = st2_t.total_cycles / max(base_t.total_cycles, 1)
    st2 = st2_breakdown(model, activity, speculation, adder_model,
                        duration_scale=duration_scale)
    evaluation = KernelEvaluation(
        name=run.name, speculation=speculation,
        timing_baseline=base_t, timing_st2=st2_t,
        energy=EnergyComparison(name=run.name, baseline=baseline,
                                st2=st2))

    return evaluation, _static_peek_row(
        pack, pred.peek_known, static_known, facts, mis, mis_s, n)


def _static_peek_row(pack: Any, dyn_resolved: np.ndarray,
                     static_known: np.ndarray, facts: Any,
                     mis: np.ndarray, mis_s: np.ndarray,
                     n: int) -> Dict[str, Any]:
    """The ``metrics.static_peek`` dict: the value of *compile-time*
    carry facts (``st2-lint facts``) on this unit.

    ``dynamic_events_*`` count the valid (row, slice) boundaries that
    still need a dynamic speculation once runtime Peek (and, for
    ``_static``, the facts) resolved the rest.  Proven carries equal the
    true carries, so functional results are unchanged and the
    misprediction rate can only go down.
    """
    valid = pack.valid
    events_base = count_bits(valid & ~dyn_resolved)
    events_static = count_bits(valid & ~(dyn_resolved | static_known))
    return {
        "fact_labels": len(facts or {}),
        "fact_bits": fact_bits(facts),
        "static_bits": count_bits(static_known),
        "new_static_bits": count_bits(static_known & ~pack.peek_known),
        "dynamic_events_base": events_base,
        "dynamic_events_static": events_static,
        "events_reduced": events_base - events_static,
        "misprediction_rate_base":
            float(mis.mean()) if n else 0.0,
        "misprediction_rate_static":
            float(mis_s.mean()) if n else 0.0,
    }


def fact_bits(facts: Any) -> int:
    """Pinned carry-boundary count of a fact table (CarryFact objects
    or their ``st2-lint facts --json`` dict form)."""
    total = 0
    for fact in (facts or {}).values():
        total += len(fact["carries"] if isinstance(fact, dict)
                     else fact.carries)
    return total
