"""Per-layer timing spans recorded from outside the program.

The traced run wraps the public entry point of each layer with a span.
A wrapper replaces the attribute in every loaded ``repro.*`` module
that binds the same object, so ``from x import y`` call sites are
covered too.  Spans nest: a layer's self time is its span's duration
minus the time its child spans cover.  Spans are aggregated in memory
and written once, when the run ends.

An entry point that no longer exists is reported as absent; its time
then falls into ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


def _rows_of_run(stats, args, kwargs, result) -> None:
    stats["rows"] += len(result.trace)


def _bytes_put(stats, args, kwargs, result) -> None:
    from repro.sim.trace_io import trace_nbytes

    run = args[2] if len(args) > 2 else kwargs["run"]
    stats["bytes"] += trace_nbytes(run.trace, run.insts)


def _rows_of_trace(stats, args, kwargs, result) -> None:
    stats["rows"] += len(args[0])


def _rows_of_pack(stats, args, kwargs, result) -> None:
    stats["rows"] += int(args[1].shape[0])


def _warp_insts(stats, args, kwargs, result) -> None:
    stats["warp_insts"] += int(result[0].instructions)


def _distinct_traces(stats, args, kwargs, result) -> None:
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel", "")
    key = (kernel, len(args[0]))
    if key in stats["seen"]:
        stats["redundant"] += 1
    stats["seen"].add(key)


#: (layer, module, attribute, accounting hook).  ``Class.method``
#: attributes are wrapped on the class.
ENTRY_POINTS = (
    ("power.calibration", "repro.power.calibration", "calibrated_model",
     None),
    ("circuits.characterize", "repro.st2.architecture",
     "default_adder_model", None),
    ("lint.facts", "repro.lint.facts", "facts_for_kernel", None),
    ("sim.functional", "repro.kernels.suite", "run_kernel", _rows_of_run),
    ("sim.trace_store.put", "repro.sim.trace_store", "TraceStore.put",
     _bytes_put),
    ("sim.trace_store.get", "repro.sim.trace_store", "TraceStore.get",
     None),
    ("sim.vec.plan", "repro.sim.vec.plan", "plan_for", None),
    # the engine's own glue around the layers below: static-peek
    # overlay, counter parity and result assembly
    ("sim.vec.engine", "repro.sim.vec.engine", "evaluate_unit", None),
    ("core.batch.predict", "repro.core.batch", "predict_trace_batch",
     _rows_of_trace),
    ("core.batch.evaluate", "repro.core.batch", "evaluate_trace_batch",
     _rows_of_pack),
    ("sim.vec.timing", "repro.sim.vec.timing", "run_pair", _warp_insts),
    ("st2.energy", "repro.power.activity", "activity_from_run", None),
    ("st2.energy", "repro.st2.energy", "baseline_breakdown", None),
    ("st2.energy", "repro.st2.energy", "st2_breakdown", None),
    ("core.predictors", "repro.core.predictors", "run_speculation", None),
    ("core.correlation", "repro.core.correlation",
     "slice_carry_correlation", _distinct_traces),
    ("lint.bounds", "repro.lint.bounds", "bounds_for_kernel", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def _new_stats() -> Dict[str, Any]:
    return {"self_s": 0.0, "calls": 0, "rows": 0, "bytes": 0,
            "warp_insts": 0, "redundant": 0, "seen": set()}


class Tracer:
    """Nested spans around the layer entry points."""

    def __init__(self):
        self.stats: Dict[str, Dict[str, Any]] = defaultdict(_new_stats)
        self.absent: List[str] = []
        self._stack: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable,
             account: Optional[Callable]) -> Callable:
        stack = self._stack
        stats = self.stats[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats["self_s"] += duration - children[0]
                stats["calls"] += 1
            if account is not None:
                account(stats, args, kwargs, result)
            return result
        return span

    def install(self) -> None:
        """Wrap every entry point that exists; record the rest."""
        for layer, module_name, attr, account in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            original = getattr(owner, name, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(layer, original, account)
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def report(self) -> Dict[str, Dict[str, float]]:
        return {layer: {k: v for k, v in stats.items() if k != "seen"}
                for layer, stats in self.stats.items()}


def import_entry_modules() -> None:
    """Import every module holding an entry point, so traced and
    untraced runs pay the same imports before their timed region."""
    for _, module_name, _, _ in ENTRY_POINTS:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
