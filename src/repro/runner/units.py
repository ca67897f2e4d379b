"""Work units: the (kernel × SpeculationConfig) grid the runner executes.

A :class:`UnitSpec` pins down *everything* that determines a unit's
numbers — kernel name, workload scale, RNG seed and the full
:class:`~repro.core.predictors.SpeculationConfig` — so results are
reproducible regardless of execution order or worker count.  Seeds are
fixed per unit at plan time (:func:`build_units`), never drawn from
shared RNG state, which is what makes parallel and serial schedules
produce bit-identical results.

:func:`execute_unit` runs one unit end to end (trace → speculation →
timing → energy) and flattens the outcome into the JSON-serialisable
dict that the disk cache and the JSONL manifest both store.  Every
unit reads its trace from a trace store; :func:`capture_trace` is the
one function that fills one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.predictors import SpeculationConfig
from repro.core.speculation import ST2_DESIGN
from repro.kernels import suite as kernel_suite
from repro.sim.trace_io import trace_nbytes
from repro.st2.results import RunResult

#: Bump when the shape of the result dict changes; part of the cache key.
#: v2: trace-store provenance (``trace_cache_hit``) and per-stage
#: timings (``capture_time_s`` / ``eval_time_s``) joined the payload.
#: v3: ``metrics.static_peek`` — the static carry-fact ablation row.
#: v4: ``engine`` — which evaluation engine produced the numbers.
#: v5: ``engine`` dropped again — there is one evaluation engine.
RESULT_SCHEMA = 5

#: Fields every valid result dict must carry (cache validation).
RESULT_FIELDS = ("kernel", "scale", "seed", "config", "config_fields",
                 "wall_time_s", "capture_time_s",
                 "eval_time_s", "trace_cache_hit", "trace_rows",
                 "trace_bytes", "n_static_pcs", "metrics",
                 "energy_stacks")


@dataclass(frozen=True)
class UnitSpec:
    """One (kernel, scale, seed, config) experiment cell."""

    kernel: str
    scale: float = 1.0
    seed: int = 0
    config: SpeculationConfig = ST2_DESIGN
    aux: bool = True        # also measure VaLHALLA + Fig.3 correlation

    @property
    def label(self) -> str:
        return f"{self.kernel}[{self.config.name}]"

    def identity(self) -> dict:
        """The JSON payload that (with the code version) keys the cache."""
        return {
            "kernel": self.kernel,
            "scale": self.scale,
            "seed": self.seed,
            "config": dataclasses.asdict(self.config),
            "aux": self.aux,
            "schema": RESULT_SCHEMA,
        }


def resolve_configs(spec) -> tuple:
    """Resolve a CLI ``--configs`` value into SpeculationConfigs.

    Accepts a comma-separated string or an iterable of names; each name
    is an alias (``st2``, ``valhalla``, ``prev``, ``casa``, ``ladder``,
    ``fig3``) or an exact ladder name such as ``Ltid+Prev+ModPC4+Peek``.
    """
    from repro.core import speculation as spec_mod

    aliases = {
        "st2": (spec_mod.ST2_DESIGN,),
        "valhalla": (spec_mod.VALHALLA,),
        "prev": (spec_mod.PREV,),
        "casa": (spec_mod.CASA,),
        "ladder": tuple(spec_mod.DESIGN_LADDER),
        "fig3": tuple(spec_mod.FIG3_CONFIGS),
    }
    if isinstance(spec, str):
        spec = [s for s in spec.split(",") if s]
    configs = []
    for name in spec:
        if name.lower() in aliases:
            configs.extend(aliases[name.lower()])
        else:
            configs.append(spec_mod.config_by_name(name))
    seen = set()
    unique = []
    for cfg in configs:
        if cfg.name not in seen:
            seen.add(cfg.name)
            unique.append(cfg)
    return tuple(unique)


def derive_unit_seed(base_seed: int, kernel: str) -> int:
    """A per-kernel seed that is a pure function of (base_seed, kernel).

    Used by ``--per-kernel-seeds``; stable across processes and Python
    versions (unlike ``hash``).
    """
    digest = hashlib.sha256(
        f"{base_seed}:{kernel}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_units(kernels, configs=(ST2_DESIGN,), scale: float = 1.0,
                seed: int = 0, aux: bool = True,
                per_kernel_seeds: bool = False) -> list:
    """Expand the (kernel × config) grid into ordered :class:`UnitSpec`s.

    Every unit's seed is fixed here, before any execution happens, so
    the work list is identical no matter how it is later scheduled.
    """
    kernels = kernel_suite.resolve_kernels(kernels)
    units = []
    for kernel in kernels:
        unit_seed = (derive_unit_seed(seed, kernel)
                     if per_kernel_seeds else seed)
        for config in configs:
            units.append(UnitSpec(kernel=kernel, scale=scale,
                                  seed=unit_seed, config=config, aux=aux))
    return units


@dataclass
class ModelBundle:
    """The session-scoped models every unit shares (built once per
    process / pool worker; deterministic for a given seed)."""

    power_model: object = None
    adder_model: object = None
    seed: int = 0
    _built: bool = field(default=False, repr=False)

    def ensure(self) -> "ModelBundle":
        if not self._built:
            from repro.power.calibration import calibrated_model
            from repro.st2.architecture import default_adder_model
            self.power_model = calibrated_model(seed=self.seed)
            self.adder_model = default_adder_model()
            self._built = True
        return self


def _aux_metrics(run, pack) -> dict:
    """The extra per-kernel measurements the headline scorecard needs:
    the VaLHALLA comparison point and the Figure 3 correlation rates,
    read off the unit's :class:`~repro.core.batch.TracePack`.  Emits no
    ``core.*`` counters: those count the unit's own evaluation."""
    from repro.core.batch import evaluate_trace_batch, predict_trace_batch
    from repro.core.correlation import slice_carry_correlation
    from repro.core.speculation import VALHALLA

    valhalla = predict_trace_batch(run.trace, VALHALLA, pack)
    mispredicted = evaluate_trace_batch(pack, valhalla.bits)[0]
    correlation = slice_carry_correlation(run.trace, run.name, pack=pack)
    return {
        "valhalla_misprediction_rate":
            float(mispredicted.mean()) if pack.n_rows else 0.0,
        "correlation": {k: float(v)
                        for k, v in correlation.match_rates.items()},
    }


def evaluation_payload(run, config: SpeculationConfig,
                       models: ModelBundle = None, facts=None) -> dict:
    """The numeric core of one (run × config) evaluation.

    Returns ``{"metrics", "energy_stacks"}`` — exactly the payload
    slice of :func:`execute_unit`'s result dict, computed on an
    **arbitrary** :class:`~repro.sim.functional.KernelRun` with an
    explicit static-fact table.  This is the entry point the
    differential fuzzer drives: the same code path that produces
    production numbers, minus the suite registry (fuzz kernels are not
    registered) and the trace-store bookkeeping.

    Every unit adds its ``absint.facts`` count, which keeps grid
    snapshots independent of how units are distributed over workers.
    """
    from repro.sim.vec.engine import evaluate_unit, fact_bits

    models = (models or ModelBundle()).ensure()
    facts = facts or {}
    obs.add("absint.facts", fact_bits(facts))
    ev, static_peek = evaluate_unit(
        run, config, facts, models.power_model, models.adder_model)
    base_stack, st2_stack = ev.energy.normalized_stacks()
    return {
        "metrics": {
            "misprediction_rate": float(ev.misprediction_rate),
            "recomputed_per_misprediction":
                float(ev.recomputed_per_misprediction),
            "slowdown": float(ev.slowdown),
            "baseline_cycles": int(ev.timing_baseline.total_cycles),
            "st2_cycles": int(ev.timing_st2.total_cycles),
            "system_saving": float(ev.system_saving),
            "chip_saving": float(ev.chip_saving),
            "alu_fpu_share": float(ev.energy.alu_fpu_share),
            "arithmetic_intensive": bool(ev.arithmetic_intensive),
            "static_peek": static_peek,
        },
        "energy_stacks": {"baseline": base_stack, "st2": st2_stack},
    }


def unit_trace_key(spec: UnitSpec, version: str = None) -> str:
    """The trace-store key of this unit's functional execution — shared
    by every config evaluated against the same (kernel, scale, seed)."""
    from repro.runner.cache import code_version
    from repro.sim.trace_store import trace_key

    return trace_key(spec.kernel, spec.scale, spec.seed,
                     version if version is not None else code_version())


def capture_trace(store, key: str, kernel: str, scale: float, seed: int,
                  version: str) -> bool:
    """Functionally execute one (kernel, scale, seed) and publish its
    trace under ``key``, unless the store already holds it.  Returns
    whether this call published the entry."""
    if store.has(key):
        return False
    run = kernel_suite.run_kernel(kernel, scale=scale, seed=seed)
    return store.put(key, run, code_version=version, scale=scale,
                     seed=seed)


def stored_run(store, spec: UnitSpec):
    """The :class:`~repro.sim.trace_store.StoredRun` behind ``spec``,
    read from ``store`` and captured into it first when missing — the
    trace a runner pass through ``store`` evaluated ``spec`` against."""
    from repro.runner.cache import code_version

    version = code_version()
    key = unit_trace_key(spec, version)
    capture_trace(store, key, spec.kernel, spec.scale, spec.seed, version)
    return store.get(key)


def execute_unit(spec: UnitSpec, models: ModelBundle = None,
                 store=None) -> RunResult:
    """Run one unit end to end; returns its typed
    :class:`~repro.st2.results.RunResult`.

    The underlying payload (``result.to_dict()``) contains only
    JSON-native values (plus NaN, which the stdlib ``json``
    round-trips), so it can be disk-cached and written to the manifest
    verbatim.

    The trace is opened read-only from ``store`` (a
    :class:`~repro.sim.trace_store.TraceStore`; ``None`` means the
    process-wide :func:`~repro.sim.trace_store.scratch_store`) and
    captured into it — once, for every config that shares it — on a
    miss.

    Raises :class:`ValueError` naming the offending field when the
    trace cannot be evaluated: an adder width outside [1, 64], an
    unresolvable opcode id, or a block/seq/warp id outside the packed
    warp-instruction key range.
    """
    from repro.lint.facts import facts_for_kernel
    from repro.runner.cache import code_version
    from repro.sim.trace_store import scratch_store
    from repro.sim.vec.plan import plan_for

    models = (models or ModelBundle()).ensure()
    if store is None:
        store = scratch_store()
    t0 = time.perf_counter()
    version = code_version()
    key = unit_trace_key(spec, version)
    trace_hit = not capture_trace(store, key, spec.kernel, spec.scale,
                                  spec.seed, version)
    capture_s = 0.0 if trace_hit else time.perf_counter() - t0
    run = store.get(key)
    t_eval = time.perf_counter()
    payload = evaluation_payload(run, spec.config, models=models,
                                 facts=facts_for_kernel(spec.kernel))
    result = {
        "kernel": spec.kernel,
        "scale": spec.scale,
        "seed": spec.seed,
        "config": spec.config.name,
        "config_fields": dataclasses.asdict(spec.config),
        "wall_time_s": 0.0,     # patched below, after measuring
        "capture_time_s": capture_s,
        "eval_time_s": 0.0,     # patched below, after measuring
        "trace_cache_hit": trace_hit,
        "trace_rows": int(len(run.trace)),
        "trace_bytes": int(trace_nbytes(run.trace, run.insts)),
        "n_static_pcs": int(run.n_static_pcs),
        "metrics": payload["metrics"],
        "energy_stacks": payload["energy_stacks"],
    }
    if spec.aux:
        # config-independent: measured once per trace, copied per unit
        plan = plan_for(run)
        result["aux"] = plan.aux(lambda: _aux_metrics(run, plan.pack))
    result["eval_time_s"] = time.perf_counter() - t_eval
    result["wall_time_s"] = time.perf_counter() - t0
    obs.record_timer("runner.unit.capture", result["capture_time_s"])
    obs.record_timer("runner.unit.eval", result["eval_time_s"])
    obs.record_timer("runner.unit.wall", result["wall_time_s"])
    return RunResult(result)


#: Result keys that describe *this invocation's* execution, not the
#: experiment's numbers — excluded from numerical-identity comparison.
RUNTIME_FIELDS = ("wall_time_s", "capture_time_s", "eval_time_s",
                  "trace_cache_hit", "cached", "key")


def comparable(result) -> dict:
    """Strip the runtime-only fields (wall time, trace/cache
    bookkeeping) so two results can be compared for numerical
    identity.  Accepts a raw dict or a :class:`RunResult`."""
    if hasattr(result, "to_dict"):
        result = result.to_dict()
    out = {k: v for k, v in result.items() if k not in RUNTIME_FIELDS}
    return out


def results_equal(a, b) -> bool:
    """Exact numerical equality of two unit results (NaN == NaN)."""
    def eq(x, y):
        if isinstance(x, dict) and isinstance(y, dict):
            return (x.keys() == y.keys()
                    and all(eq(x[k], y[k]) for k in x))
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (np.isnan(x) and np.isnan(y))
        return x == y
    return eq(comparable(a), comparable(b))
