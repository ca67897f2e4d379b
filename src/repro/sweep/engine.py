"""The sweep engine: resumable execution of a design-space grid with
incremental Pareto tracking and provably-sound early pruning.

Execution is config-major over the plan's equivalence classes
(:mod:`repro.sweep.grid`): each scheduled config evaluates its kernels
in waves, updating the Pareto frontier as configs complete.  Every
wave runs through :func:`repro.runner.pool.run_units`, the same path
as ``st2-run``, on one evaluation pool that lives for the whole sweep:
each trace stays pinned to the worker holding its plan.

**Pruning** (default on; ``--no-prune`` for exhaustive mode) has two
tiers, both logged to obs counters and both frontier-preserving:

* *equivalence* — only the representative of each provably
  result-identical config class executes (``sweep.prune.equivalent``);
* *domination* — between waves, a partially-evaluated config's
  *optimistic completion bound* is tested against the frontier.  The
  bound assumes every remaining kernel contributes the best value the
  physics allows: misprediction rate and slowdown at least 0 (ST2 only
  ever adds recompute stalls), energy saving at most the kernel's
  baseline ALU+FPU energy share (the only component ST2 shrinks) times
  the adder model's zero-misprediction datapath-saving ceiling — the
  share learned from the first completed evaluation of that kernel,
  the ceiling a pure circuit-characterisation constant.  If a
  frontier point dominates the bound it dominates every completion,
  so the config is dropped (``sweep.prune.dominated``) without ever
  appearing on the frontier — in pruned *or* exhaustive runs.

When the plain completion bound fails, a second, *static* stage
(default on; ``--no-static-bounds`` disables it) intersects it with
the sound per-kernel speculation-outcome bounds of
:mod:`repro.lint.bounds`: every remaining kernel's saving ceiling
shrinks by the statically proven recompute floor of this config
class, and its misprediction floor joins the bound — so a config
class that provably mispredicts can be discarded *before its first
unit executes*.  Static prunes are recorded with ``"via":
"static_bounds"`` and the ``sweep.prune.static`` /
``sweep.prune.static.units_skipped`` counters.  Kernels whose static
report is trivial (bailed analysis) or unresolvable claim nothing
and fall back to the dynamic ceiling alone.

**Resume**: every finished unit is appended (flushed) to a JSONL
manifest stamped with the spec digest.  A restarted sweep replays
those units — tolerating a torn final line from a mid-write kill —
and executes only what is missing (``sweep.units.reused`` vs
``sweep.units.executed``; the kill/resume CI job pins re-executions
at zero).  A unit whose worker dies twice ends the sweep in
:class:`~repro.runner.pool.WorkerLost`; every wave finished before it
is in the manifest, so a rerun resumes from there.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, ContextManager, Dict, Iterable, List, Mapping,
                    Optional, Tuple)

from repro import obs
from repro.api import SweepSpec
from repro.runner.manifest import (ManifestWriter,
                                   read_manifest_tolerant)
from repro.sweep.grid import ConfigGroup, SweepPlan, expand_plan
from repro.sweep.pareto import (OBJECTIVES, ParetoError,
                                ParetoFrontier, ParetoPoint)

#: Slack applied to optimistic bounds so float summation-order noise
#: can only make pruning *more* conservative, never less.
BOUND_SLACK = 1e-9


class SavedCeiling:
    """Provable per-kernel upper bounds on achievable system saving.

    Every bound follows from :func:`repro.st2.energy.st2_breakdown`:
    the ALU+FPU component is the only one ST2 shrinks, its shrink is
    ``A_k * s(miss, rec) - OV_k`` with ``A_k`` (the kernel's adder-
    datapath share of baseline system energy) and ``OV_k`` (per-op
    DFF/shifter overhead share) config-independent, and the stretched
    static energy only ever reduces the saving further.  Two bounds,
    both sound, combined by ``min``:

    * *share bound* — ``alu_fpu_share * frac_max * s_max``: the
      adder datapath is at most ``max(ADDER_FRACTION)`` of ALU+FPU
      energy, and ``s_max = saving(miss=0)`` is the adder model's
      ceiling (the recompute term vanishes; ``saving`` is strictly
      decreasing in ``miss * rec``).
    * *stack bound* — from one completed unit's energy stacks:
      the observed ALU+FPU shrink is ``A_k * s_obs - OV_k``, and
      ``OV_k <= rho * A_k`` with ``rho`` = per-op overhead over the
      smallest per-op adder-datapath energy (model constants), so
      ``A_k <= observed / (s_obs - rho)`` and no config can save more
      than ``A_k * s_max``.  Skipped when the st2 component clamped
      at zero (the observation would under-state ``A_k``).
    """

    def __init__(self) -> None:
        from repro.power.components import Component
        from repro.power.model import MODEL_ALU_SUBTYPE_PJ
        from repro.runner.units import ModelBundle
        from repro.st2.energy import _ADD_SUBTYPES, ADDER_FRACTION

        models = ModelBundle().ensure()
        self.adder = models.adder_model
        self.s_max = self.adder.saving(0.0, 0.0)
        self.frac_max = max(ADDER_FRACTION.values())
        overhead_fj = self.adder.dff_fj + self.adder.level_shifter_fj
        scale = models.power_model.scales[Component.ALU_FPU]
        min_adder_fj = min(
            MODEL_ALU_SUBTYPE_PJ[sub] * 1e3 * scale
            * ADDER_FRACTION[sub] for sub in _ADD_SUBTYPES)
        self.rho = overhead_fj / min_adder_fj \
            if min_adder_fj > 0 else 0.0

    def unit_bound(self, unit: Mapping[str, Any]) -> Optional[float]:
        """The tightest sound saving ceiling one completed unit of a
        kernel proves for *every* config on that kernel."""
        metrics = unit.get("metrics", {})
        bounds = []
        share = metrics.get("alu_fpu_share")
        if isinstance(share, (int, float)):
            bounds.append(float(share) * self.frac_max * self.s_max)
        stacks = unit.get("energy_stacks") or {}
        base = (stacks.get("baseline") or {}).get("ALU+FPU")
        st2 = (stacks.get("st2") or {}).get("ALU+FPU")
        miss = metrics.get("misprediction_rate")
        rec = metrics.get("recomputed_per_misprediction")
        if all(isinstance(v, (int, float))
               for v in (base, st2, miss, rec)) and st2 > 0:
            s_obs = self.adder.saving(float(miss), float(rec))
            if s_obs - self.rho > 0:
                bounds.append((float(base) - float(st2))
                              * self.s_max / (s_obs - self.rho))
        return min(bounds) if bounds else None


class StaticBoundsIndex:
    """Per-kernel static speculation-outcome bounds for pruning.

    Wraps :func:`repro.lint.bounds.bounds_for_kernel` together with
    the sweep's model bundle, so the energy constants in the static
    intersection match the models the units actually evaluate under.
    Kernels whose report is trivial (bailed analysis) or whose kernel
    function cannot be resolved claim nothing (``None``).
    """

    def __init__(self) -> None:
        from repro.lint.bounds import bound_constants
        from repro.runner.units import ModelBundle

        models = ModelBundle().ensure()
        self.constants = bound_constants(models.power_model,
                                         models.adder_model)

    def class_bounds(self, kernel: str, config: Any) -> Optional[Any]:
        from repro.lint.bounds import bounds_for_kernel

        report = bounds_for_kernel(kernel)
        if report is None or report.trivial:
            return None
        return report.bounds_for_config(config)


#: Version of the ``sweep.json`` result document.
SWEEP_RESULT_VERSION = 1

#: Units per exhaustive-mode wave.
WAVE_UNITS = 256


class SweepError(Exception):
    """A sweep-level failure: an empty grid, an unreadable result
    document, or a manifest that belongs to a different spec."""


class ResumeMismatch(SweepError):
    """The existing manifest was written by a different sweep spec."""


def unit_objectives(unit: Mapping[str, Any]) -> Dict[str, float]:
    """The three sweep objectives of one unit result dict."""
    metrics = unit["metrics"]
    return {
        "energy_saved": float(metrics["system_saving"]),
        "misprediction_rate": float(metrics["misprediction_rate"]),
        "perf_overhead": float(metrics["slowdown"]),
    }


def aggregate_objectives(
        per_kernel: Mapping[str, Mapping[str, float]]
) -> Dict[str, float]:
    """Mean over kernels, summed in sorted-kernel order so pruned,
    exhaustive and resumed runs produce bit-identical floats."""
    kernels = sorted(per_kernel)
    n = len(kernels)
    return {name: sum(per_kernel[k][name] for k in kernels) / n
            for name in OBJECTIVES}


def optimistic_bound(per_kernel: Mapping[str, Mapping[str, float]],
                     kernels: Iterable[str],
                     saved_max: Mapping[str, float]
                     ) -> Optional[Dict[str, float]]:
    """Best final objectives a partially-evaluated config can reach.

    ``None`` when no sound bound exists yet (some remaining kernel has
    never been evaluated, so its ALU+FPU share is unknown).
    """
    kernels = list(kernels)
    remaining = [k for k in kernels if k not in per_kernel]
    if any(k not in saved_max for k in remaining):
        return None
    n = len(kernels)
    done = [per_kernel[k] for k in kernels if k in per_kernel]
    saved = (sum(p["energy_saved"] for p in done)
             + sum(saved_max[k] for k in remaining)) / n
    mis = sum(p["misprediction_rate"] for p in done) / n
    over = sum(p["perf_overhead"] for p in done) / n
    return {
        "energy_saved": saved + BOUND_SLACK,
        "misprediction_rate": max(0.0, mis - BOUND_SLACK),
        "perf_overhead": max(0.0, over - BOUND_SLACK),
    }


@dataclass
class SweepOptions:
    """How a sweep executes (never what it computes)."""

    prune: bool = True
    static_bounds: bool = True      # static pruning stage (if prune)
    workers: Optional[int] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None
    trace_store: Optional[str] = None
    max_units: Optional[int] = None  # execution budget (resume later)
    prune_chunk: Optional[int] = None  # kernels per wave when pruning
    progress: Any = None            # callable(message: str) or None
    registry: Any = None            # repro.obs.Obs (fresh if None)


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one sweep invocation — the ``sweep.json`` body."""

    spec: SweepSpec
    kernels: Tuple[str, ...]
    frontier: Tuple[ParetoPoint, ...]
    points: Tuple[ParetoPoint, ...]
    pruned: Mapping[str, Mapping[str, Any]]
    prune: bool
    complete: bool
    executed_units: int
    reused_units: int
    skipped_units: int
    invalid_combos: int
    duplicate_configs: int
    manifest: str
    wall_time_s: float = 0.0
    meta: Mapping[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "sweep_result_version": SWEEP_RESULT_VERSION,
            "spec": self.spec.to_wire(),
            "kernels": list(self.kernels),
            "frontier": [p.to_wire() for p in self.frontier],
            "points": [p.to_wire() for p in self.points],
            "pruned": {k: dict(v) for k, v in self.pruned.items()},
            "prune": self.prune,
            "complete": self.complete,
            "executed_units": self.executed_units,
            "reused_units": self.reused_units,
            "skipped_units": self.skipped_units,
            "invalid_combos": self.invalid_combos,
            "duplicate_configs": self.duplicate_configs,
            "manifest": self.manifest,
            "wall_time_s": self.wall_time_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "SweepResult":
        version = doc.get("sweep_result_version", 1)
        if not isinstance(version, int) \
                or version > SWEEP_RESULT_VERSION:
            raise SweepError(
                f"sweep_result: version {version!r} is newer than "
                f"this reader (<= {SWEEP_RESULT_VERSION})")
        return cls(
            spec=SweepSpec.from_wire(doc["spec"]),
            kernels=tuple(doc.get("kernels", ())),
            frontier=tuple(ParetoPoint.from_wire(p)
                           for p in doc.get("frontier", [])),
            points=tuple(ParetoPoint.from_wire(p)
                         for p in doc.get("points", [])),
            pruned={k: dict(v)
                    for k, v in doc.get("pruned", {}).items()},
            prune=bool(doc.get("prune", True)),
            complete=bool(doc.get("complete", True)),
            executed_units=int(doc.get("executed_units", 0)),
            reused_units=int(doc.get("reused_units", 0)),
            skipped_units=int(doc.get("skipped_units", 0)),
            invalid_combos=int(doc.get("invalid_combos", 0)),
            duplicate_configs=int(doc.get("duplicate_configs", 0)),
            manifest=str(doc.get("manifest", "")),
            wall_time_s=float(doc.get("wall_time_s", 0.0)),
            meta=dict(doc.get("meta", {})))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class _SweepRun:
    """Mutable state of one sweep invocation."""

    def __init__(self, plan: SweepPlan, options: SweepOptions,
                 manifest_path: str):
        from repro.runner.cache import ResultCache
        from repro.runner.options import RunOptions
        from repro.runner.pool import default_workers

        self.plan = plan
        self.spec = plan.spec
        self.options = options
        self.manifest_path = str(manifest_path)
        self.registry = options.registry if options.registry \
            is not None else obs.Obs()
        options.registry = self.registry
        store = None
        if options.trace_store is not None:
            from repro.sim.trace_store import TraceStore
            store = TraceStore(options.trace_store or None)
        self.run_options = RunOptions(
            workers=options.workers if options.workers is not None
            else default_workers(),
            cache=ResultCache(options.cache_dir),
            use_cache=options.use_cache,
            trace_store=store,
            obs=self.registry)
        self.frontier = ParetoFrontier()
        self.canon_points: Dict[str, ParetoPoint] = {}
        self.pruned: Dict[str, Dict[str, Any]] = {}
        self.saved_max: Dict[str, float] = {}
        self.done: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.executed = 0
        self.reused = 0
        self.skipped = 0
        self.complete = True
        self.writer: Optional[ManifestWriter] = None
        self._ceiling: Optional[SavedCeiling] = None
        self._static: Optional[StaticBoundsIndex] = None

    # -- helpers -------------------------------------------------------

    def say(self, message: str) -> None:
        if self.options.progress is not None:
            self.options.progress(message)

    def count(self, name: str, n: int = 1) -> None:
        self.registry.add(name, n)

    def budget_left(self) -> Optional[int]:
        if self.options.max_units is None:
            return None
        return max(0, self.options.max_units - self.executed)

    def ceiling(self) -> "SavedCeiling":
        if self._ceiling is None:
            self._ceiling = SavedCeiling()
        return self._ceiling

    def static_index(self) -> "StaticBoundsIndex":
        if self._static is None:
            self._static = StaticBoundsIndex()
        return self._static

    def record_unit(self, unit: Dict[str, Any]) -> None:
        cell = (unit["config"], unit["kernel"])
        self.done[cell] = unit
        if not self.options.prune:
            return
        bound = self.ceiling().unit_bound(unit)
        if bound is not None:
            kernel = unit["kernel"]
            known = self.saved_max.get(kernel)
            self.saved_max[kernel] = bound if known is None \
                else min(known, bound)      # every unit's bound is
            #                                 sound; keep the tightest

    # -- resume --------------------------------------------------------

    def load_resume(self) -> None:
        header, units, bad = read_manifest_tolerant(self.manifest_path)
        if header is None:
            return
        if header.get("kind") != "sweep":
            raise ResumeMismatch(
                f"{self.manifest_path} is not a sweep manifest; "
                f"move it aside or pick another --manifest path")
        digest = self.spec.digest()
        if header.get("sweep_digest") != digest:
            raise ResumeMismatch(
                f"{self.manifest_path} was written by sweep "
                f"{header.get('sweep_digest')!r}, this spec is "
                f"{digest!r}; move it aside or pick another "
                f"--manifest path")
        if bad:
            self.count("sweep.resume.torn_lines", bad)
        fresh = 0
        for unit in units:
            cell = (unit.get("config"), unit.get("kernel"))
            if cell[0] is None or cell[1] is None \
                    or cell in self.done:
                continue
            self.record_unit(unit)
            fresh += 1
        if fresh:
            self.reused = fresh
            self.count("sweep.units.reused", fresh)
            self.say(f"resumed {fresh} finished units from "
                     f"{self.manifest_path}")

    def open_manifest(self) -> None:
        planned = (len(self.plan.groups) if self.options.prune
                   else self.plan.n_configs) * len(self.plan.kernels)
        meta = {
            "kind": "sweep",
            "sweep_digest": self.spec.digest(),
            "sweep": self.spec.name,
            "spec": self.spec.to_wire(),
            "prune": self.options.prune,
        }
        self.writer = ManifestWriter(self.manifest_path, meta=meta,
                                     n_units=planned)
        for unit in self.done.values():     # compact replay of resume
            self.writer.add(unit)

    # -- execution -----------------------------------------------------

    def execute(self, units: List[Any], pool: Any) -> None:
        """Run one wave on the sweep's evaluation ``pool`` (``None``:
        inline), then manifest its results."""
        from repro.runner.pool import run_units

        t0 = time.perf_counter()
        results = [r.to_dict() for r in run_units(units,
                                                  self.run_options,
                                                  pool=pool)]
        self.registry.record_timer("sweep.wave.wall",
                                   time.perf_counter() - t0)
        for unit in results:
            assert self.writer is not None
            self.writer.add(unit)
            self.record_unit(unit)
        self.executed += len(results)
        self.count("sweep.units.executed", len(results))

    def pending_units(self, config: Any) -> List[Any]:
        from repro.runner.units import UnitSpec

        return [UnitSpec(kernel=k, scale=self.spec.scale,
                         seed=self.spec.seed, config=config,
                         aux=self.spec.aux)
                for k in self.plan.kernels
                if (config.name, k) not in self.done]

    def config_per_kernel(self, config: Any
                          ) -> Dict[str, Dict[str, float]]:
        out = {}
        for k in self.plan.kernels:
            unit = self.done.get((config.name, k))
            if unit is not None:
                out[k] = unit_objectives(unit)
        return out

    def finish_config(self, group: ConfigGroup, config: Any) -> None:
        """A config evaluated every kernel: merge into its class point
        and offer the class to the frontier (first completion only)."""
        per_kernel = self.config_per_kernel(config)
        objectives = aggregate_objectives(per_kernel)
        existing = self.canon_points.get(group.canon)
        if existing is not None:
            if dict(existing.objectives) != objectives:
                raise ParetoError(
                    f"equivalence violated: {config.name!r} disagrees "
                    f"with class {group.canon!r} — "
                    f"{objectives} vs {dict(existing.objectives)}")
            self.count("sweep.frontier.merged_equivalent")
            return
        members = tuple(m.name for m in group.members)
        point = ParetoPoint(key=group.canon, objectives=objectives,
                            fields=group.canon_fields,
                            members=members, per_kernel=per_kernel)
        self.canon_points[group.canon] = point
        if self.frontier.add(point):
            self.count("sweep.frontier.admitted")
        else:
            self.count("sweep.frontier.dominated_points")

    def prune_equivalents(self, group: ConfigGroup) -> None:
        for member in group.members[1:]:
            self.pruned[member.name] = {
                "reason": "equivalent", "canon": group.canon}
            self.count("sweep.prune.equivalent")
            self.skipped += len(self.plan.kernels)
            self.count("sweep.prune.units_skipped",
                       len(self.plan.kernels))

    def static_bound(self, config: Any
                     ) -> Optional[Dict[str, float]]:
        """The optimistic completion bound intersected with the
        static bounds tier: every remaining kernel's saving ceiling
        shrinks by this config class's statically proven recompute
        floor, and its statically proven misprediction floor joins
        the bound.  Works *pre-execution* — a kernel with a
        non-trivial static report needs no completed unit to bound.
        """
        per_kernel = self.config_per_kernel(config)
        kernels = list(self.plan.kernels)
        remaining = [k for k in kernels if k not in per_kernel]
        index = self.static_index()
        consts = index.constants
        saved_sum = 0.0
        mis_floor = 0.0
        for kernel in remaining:
            cls = index.class_bounds(kernel, config)
            share = self.saved_max.get(kernel)
            if cls is None:
                if share is None:
                    return None     # nothing sound to say yet
                saved_sum += share
                continue
            mrec_lo = cls.mrec.lo if cls.mrec.lo is not None else 0.0
            # the report's own absolute ceiling
            # (frac_max * max(0, s_max - mrec_lo * delta); 0 when the
            # kernel provably emits no adder rows)
            ceil = cls.saved.hi if cls.saved.hi is not None else 1.0
            if share is not None and consts.s_max > 0:
                # dynamic share ceiling, shrunk by the static
                # recompute floor: achievable <= A_k * s(mrec_lo)
                # = (A_k * s_max) * s(mrec_lo)/s_max <= share * ratio
                ratio = max(0.0, consts.s_max
                            - mrec_lo * consts.delta) / consts.s_max
                ceil = min(ceil, share * ratio, share)
            saved_sum += ceil
            mis_floor += cls.mis.lo if cls.mis.lo is not None else 0.0
        n = len(kernels)
        done = [per_kernel[k] for k in kernels if k in per_kernel]
        saved = (sum(p["energy_saved"] for p in done) + saved_sum) / n
        mis = (sum(p["misprediction_rate"] for p in done)
               + mis_floor) / n
        over = sum(p["perf_overhead"] for p in done) / n
        return {
            "energy_saved": saved + BOUND_SLACK,
            "misprediction_rate": max(0.0, mis - BOUND_SLACK),
            "perf_overhead": max(0.0, over - BOUND_SLACK),
        }

    def try_domination_prune(self, group: ConfigGroup, config: Any,
                             n_remaining: int) -> bool:
        bound = optimistic_bound(self.config_per_kernel(config),
                                 self.plan.kernels, self.saved_max)
        by = self.frontier.dominated_by(bound) \
            if bound is not None else None
        via = "completion"
        if by is None and self.options.static_bounds:
            static = self.static_bound(config)
            if static is not None:
                by = self.frontier.dominated_by(static)
                if by is not None:
                    bound, via = static, "static_bounds"
                    self.count("sweep.prune.static")
                    self.count("sweep.prune.static.units_skipped",
                               n_remaining)
        if by is None:
            return False
        self.pruned[config.name] = {
            "reason": "dominated", "canon": group.canon,
            "dominated_by": by.key, "bound": bound, "via": via,
            "units_skipped": n_remaining}
        self.count("sweep.prune.dominated")
        self.count("sweep.prune.units_skipped", n_remaining)
        self.skipped += n_remaining
        self.say(f"pruned {config.name} "
                 f"(dominated by {by.key}, {via} bound)")
        return True


def run_sweep(spec: SweepSpec, manifest_path: str,
              options: Optional[SweepOptions] = None) -> SweepResult:
    """Execute one sweep end to end; see the module docstring."""
    from repro.runner.pool import WorkerPool

    options = options if options is not None else SweepOptions()
    plan = expand_plan(spec)
    if not plan.groups:
        raise SweepError("sweep grid is empty: every axis combination "
                         "is invalid")
    run = _SweepRun(plan, options, manifest_path)
    t0 = time.perf_counter()
    run.count("sweep.expand.configs", plan.n_configs)
    run.count("sweep.expand.invalid", plan.invalid_combos)
    run.count("sweep.expand.duplicates", plan.duplicate_configs)
    run.load_resume()
    run.open_manifest()
    workers = run.run_options.workers
    # one evaluation pool for every wave, so a trace stays pinned to
    # the worker that holds its plan
    evaluation: ContextManager[Any] = WorkerPool(workers) \
        if workers > 1 else nullcontext()
    try:
        with evaluation as pool:
            if options.prune:
                _run_pruned(run, pool)
            else:
                _run_exhaustive(run, pool)
    finally:
        assert run.writer is not None
        run.writer.close()
    wall = time.perf_counter() - t0
    run.registry.record_timer("sweep.wall", wall)
    return SweepResult(
        spec=spec, kernels=plan.kernels,
        frontier=run.frontier.points(),
        points=tuple(run.canon_points[k]
                     for k in sorted(run.canon_points)),
        pruned=run.pruned,
        prune=options.prune, complete=run.complete,
        executed_units=run.executed, reused_units=run.reused,
        skipped_units=run.skipped,
        invalid_combos=plan.invalid_combos,
        duplicate_configs=plan.duplicate_configs,
        manifest=run.manifest_path, wall_time_s=wall,
        meta={"frontier_size": len(run.frontier),
              "n_groups": len(plan.groups),
              "n_configs": plan.n_configs})


def _chunk_size(run: _SweepRun) -> int:
    if run.options.prune_chunk is not None:
        return max(1, run.options.prune_chunk)
    if run.options.workers is not None:
        return max(1, run.options.workers)
    from repro.runner.pool import default_workers
    return max(1, default_workers())


def _run_pruned(run: _SweepRun, pool: Any) -> None:
    """Config-major execution: one representative per equivalence
    class, domination-checked between waves."""
    chunk = _chunk_size(run)
    for group in run.plan.groups:
        run.prune_equivalents(group)
        config = group.runner
        pending = run.pending_units(config)
        while pending:
            if run.try_domination_prune(group, config, len(pending)):
                pending = []
                break
            budget = run.budget_left()
            if budget == 0:
                run.complete = False
                run.say("unit budget exhausted; stopping "
                        "(resume from the manifest)")
                return
            take = len(pending) if budget is None \
                else min(len(pending), budget)
            wave, pending = pending[:min(take, chunk)], \
                pending[min(take, chunk):]
            run.execute(wave, pool)
        if config.name not in run.pruned \
                and not run.pending_units(config):
            run.finish_config(group, config)


def _run_exhaustive(run: _SweepRun, pool: Any) -> None:
    """Every grid member executes, in multi-config waves of up to
    :data:`WAVE_UNITS` units.  Equivalent members must agree bit-for-bit
    before merging into their class point (the soundness check that
    backs the pruning rules)."""
    wave: List[Any] = []
    ordered = [(group, member) for group in run.plan.groups
               for member in group.members]
    for group, member in ordered:
        for unit in run.pending_units(member):
            budget = run.budget_left()
            if budget is not None \
                    and len(wave) + run.executed >= \
                    run.options.max_units:
                run.complete = False
                break
            wave.append(unit)
            if len(wave) >= WAVE_UNITS:
                run.execute(wave, pool)
                wave = []
        if not run.complete:
            break
    if wave:
        run.execute(wave, pool)
    if not run.complete:
        run.say("unit budget exhausted; stopping "
                "(resume from the manifest)")
        return
    for group, member in ordered:
        if not run.pending_units(member):
            run.finish_config(group, member)


__all__ = ["BOUND_SLACK", "ResumeMismatch", "SavedCeiling",
           "StaticBoundsIndex", "SweepError", "SweepOptions",
           "SweepResult",
           "aggregate_objectives", "optimistic_bound", "run_sweep",
           "unit_objectives"]
