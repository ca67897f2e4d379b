"""Trace-replay evaluation engine: the one evaluation path.

Replays a (trace × config) evaluation unit as batched numpy operations
over the trace store's read-only memmap columns — speculative-adder
slice evaluation, predictor updates (including the static carry-fact
overlay) and misprediction/recompute accounting — plus the timing pair
over a pre-resolved schedule.  Slow, independent references check it in
the tests: the per-width and dict-based predictors and adders of
``tests/core/reference_speculation.py``, the fuzzer's big-int adder
oracle and a sequential timing loop.
"""

from repro.sim.vec.engine import evaluate_unit
from repro.sim.vec.plan import clear_plans, plan_for

__all__ = ["evaluate_unit", "plan_for", "clear_plans"]
