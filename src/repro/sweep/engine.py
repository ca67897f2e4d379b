"""The sweep engine: resumable execution of a design-space grid with
incremental Pareto tracking and provably-sound early pruning.

Execution is config-major over one schedule: each group's
representative when pruning, every member of every group under
``--no-prune`` (exhaustive mode, the same loop with the checks below
switched off).  Each scheduled config evaluates its kernels in waves
of ``prune_chunk`` units (default: the worker count), updating the
Pareto frontier as configs complete.  One evaluation pool lives for
the whole sweep, so each trace stays pinned to the worker holding its
plan.

**Lookahead**: one capture stage before the first wave stores the
traces of the first config's pending units, which run whatever the
checks say (the frontier is empty until that config completes); in a
cold sweep that is every trace.  Then the sweep runs one wave ahead
of its commit point, as ST2 runs ahead of the carry chain: while wave
*m* runs, the units of the wave the loop would run next if nothing
were pruned go to the pool, one task per unit (:class:`_Lookahead`).
Wave *m* commits in work-list order — obs merge, result cache,
manifest line, frontier state — through the same per-unit bookkeeping
as :func:`repro.runner.pool.run_units`, and only then do the
between-wave checks below run, unchanged.  A speculated unit those
checks go on to run is committed (``sweep.speculative.committed``);
any other is discarded (``sweep.speculative.discarded``, with its
seconds in the timer of that name) and never reaches the manifest,
the counters or the cache.  So the manifest, the frontier, every
prune decision and every other counter equal those of an inline
(``workers <= 1``) run with the same wave size, which speculates on
nothing.  ``--workers`` sets the default wave size, so two worker
counts can prune at different points; the frontier never differs.
In exhaustive mode no check can drop a guess, so every guess is
issued at once.
``runner.stage.capture`` / ``init`` are one span each per cold sweep,
and ``runner.stage.eval`` runs from the first evaluation submit to
the last commit.

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
  so the config is dropped (``sweep.prune.dominated``, a prune record
  with ``"via": "completion"`` and the bound) without ever appearing
  on the frontier — in pruned *or* exhaustive runs.

**Resume**: every finished unit is appended (flushed) to a JSONL
manifest stamped with the spec digest.  A restarted sweep replays
those units — tolerating a torn final line from a mid-write kill —
and executes only what is missing (``sweep.units.reused`` vs
``sweep.units.executed``; the kill/resume CI job pins re-executions
at zero).  It rewrites the replayed units through a temporary file
that replaces the manifest whole, so a kill during the rewrite loses
none of them.  A unit whose worker dies twice ends the sweep in
:class:`~repro.runner.pool.WorkerLost` at its wave; every wave
committed before that one is in the manifest, so a rerun resumes from
there.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, ContextManager, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

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


#: Version of the ``sweep.json`` result document.
SWEEP_RESULT_VERSION = 1

#: A sweep unit's ``(config name, kernel)``.
Cell = Tuple[str, str]


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


def optimistic_bound(done: Sequence[Mapping[str, float]],
                     remaining: Iterable[Optional[float]]
                     ) -> Optional[Dict[str, float]]:
    """Best final objectives a partially-evaluated config can reach.

    ``done`` holds the objectives of the kernels evaluated so far and
    ``remaining`` one saving ceiling per kernel still to run, both in
    kernel order; ``None`` when no sound bound exists yet (some
    remaining kernel is ``None``: nothing is known about it).  A
    remaining kernel adds 0 to the misprediction and overhead sums.
    """
    n = len(done)
    saved_sum = 0.0
    for ceiling in remaining:
        if ceiling is None:
            return None
        saved_sum += ceiling
        n += 1
    saved = (sum(p["energy_saved"] for p in done) + saved_sum) / n
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
    workers: Optional[int] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None
    trace_store: Optional[str] = None
    max_units: Optional[int] = None  # execution budget (resume later)
    prune_chunk: Optional[int] = None  # units per wave, both modes
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
                                     n_units=planned,
                                     units=self.done.values())

    # -- execution -----------------------------------------------------

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

    def try_domination_prune(self, group: ConfigGroup, config: Any,
                             n_remaining: int) -> bool:
        per_kernel = self.config_per_kernel(config)
        done = list(per_kernel.values())
        remaining = [k for k in self.plan.kernels if k not in per_kernel]
        bound = optimistic_bound(done, (self.saved_max.get(k)
                                        for k in remaining))
        by = self.frontier.dominated_by(bound) \
            if bound is not None else None
        if by is None:
            return False
        self.pruned[config.name] = {
            "reason": "dominated", "canon": group.canon,
            "dominated_by": by.key, "bound": bound, "via": "completion",
            "units_skipped": n_remaining}
        self.count("sweep.prune.dominated")
        self.count("sweep.prune.units_skipped", n_remaining)
        self.skipped += n_remaining
        self.say(f"pruned {config.name} "
                 f"(dominated by {by.key}, completion bound)")
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
        with evaluation as pool, obs.scoped(run.registry):
            _run_schedule(run, pool)
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
    return max(1, run.run_options.workers)


def _run_schedule(run: _SweepRun, pool: Any) -> None:
    """Config-major execution in waves of :func:`_chunk_size` units,
    each run through :class:`_Lookahead`, which has the wave after it
    on the pool already (see the module docstring).  The schedule holds
    each group's runner when pruning, every member when not; when
    pruning, equivalent members are skipped and each config is
    domination-checked between its waves."""
    prune = run.options.prune
    schedule = [(group, config) for group in run.plan.groups
                for config in ((group.runner,) if prune
                               else group.members)]
    chunk = _chunk_size(run)
    evaluation = _Lookahead(run, pool)
    # the first config runs every pending unit: nothing can prune it
    # while the frontier is empty.  In a cold sweep it holds every
    # kernel, so one stage captures every trace the sweep needs.
    budget = run.budget_left()
    first = run.pending_units(schedule[0][1])
    evaluation.prepare(first if budget is None else first[:budget])
    for si, (group, config) in enumerate(schedule):
        if prune:
            run.prune_equivalents(group)
        pending = run.pending_units(config)
        while pending:
            if prune and run.try_domination_prune(group, config,
                                                  len(pending)):
                break
            budget = run.budget_left()
            if budget == 0:
                run.complete = False
                run.say("unit budget exhausted; stopping "
                        "(resume from the manifest)")
                break
            take = len(pending) if budget is None \
                else min(len(pending), budget)
            wave, pending = pending[:min(take, chunk)], \
                pending[min(take, chunk):]
            # a config's first wave is dropped only if the config is
            # pruned before it runs, and no guess is dropped while the
            # frontier is empty or nothing is pruned: issue those
            # guesses whole
            evaluation.run_wave(
                wave, _next_wave(run, schedule[si + 1:], pending, chunk,
                                 None if budget is None
                                 else budget - len(wave)),
                eager=not prune or not pending or not len(run.frontier))
        if not run.complete:
            break
        if config.name not in run.pruned \
                and not run.pending_units(config):
            run.finish_config(group, config)
    evaluation.close()


def _next_wave(run: _SweepRun, later: Sequence[Tuple[ConfigGroup, Any]],
               rest: List[Any], chunk: int,
               budget: Optional[int]) -> List[Any]:
    """The wave :func:`_run_schedule` runs next if nothing is pruned:
    the next ``chunk`` of ``rest`` (the current config's units still to
    run), else of the first ``later`` config with pending units, cut
    to ``budget``."""
    if budget == 0:
        return []
    if not rest:
        for _, config in later:
            rest = run.pending_units(config)
            if rest:
                break
    return rest[:chunk if budget is None else min(chunk, budget)]


class _Lookahead:
    """The sweep's evaluation stage, one wave ahead.

    :meth:`run_wave` issues the wave the loop runs now, each unit its
    own ``run_unit`` task keyed by its trace, and speculates on the
    *guess*: the wave the loop runs next if nothing is pruned.  Where
    the checks after this wave rarely or never drop the guess (it
    starts a config, the frontier is still empty, or the sweep does
    not prune) it is issued at
    once, behind the wave.  Otherwise its units go, one by one, to
    workers that fall idle while the wave runs, so a guess the checks
    drop costs only idle time.  The wave commits in work-list order.
    A speculated unit is committed when the next wave holds it, else
    discarded: its result, obs snapshot and exception are dropped.
    The result cache is read only for the wave being committed, and a
    unit whose cache file exists, or whose trace is not in the store,
    is not speculated.  Inline (``pool is None``) runs each unit of a
    wave as it is issued and speculates on nothing.
    """

    def __init__(self, run: _SweepRun, pool: Any) -> None:
        from repro.runner.cache import code_version
        from repro.runner.pool import trace_store_of

        self.run = run
        self.pool = pool
        self.options = run.run_options
        self.cache = self.options.resolved_cache()
        self.version = code_version()
        self.store = trace_store_of(self.options)
        self.captured: Set[str] = set()     # trace keys the store holds
        self.warm: Set[str] = set()         # ... held before this run
        self.issued: Dict[Cell, int] = {}   # uncommitted cell -> task
        self.ahead: Set[Cell] = set()       # cells issued one wave ahead
        self.finished: Dict[int, Tuple[bool, Any]] = {}
        self.orphans: Set[int] = set()      # discarded tasks still running
        self.guess: List[Any] = []      # guessed units not issued yet
        self.ids = itertools.count()
        self.t_first: Optional[float] = None    # first submit
        self.t_commit: Optional[float] = None   # last commit

    # -- stages --------------------------------------------------------

    def prepare(self, units: List[Any]) -> None:
        """One capture stage and one init stage over ``units``, units
        the sweep is sure to run, less those whose cache file exists.
        A wave that needs a trace no stage captured yet captures it
        before it runs (:meth:`run_wave`)."""
        from repro.runner.pool import prepare_stages

        todo = [unit for unit in units if not self.cache_file(unit)]
        if todo:
            self.warm |= prepare_stages(self.store, todo,
                                        self.options.workers,
                                        self.version)
            self.captured |= {self.trace_key(unit) for unit in todo}

    def capture(self, units: List[Any]) -> None:
        """A capture stage over the traces behind ``units``."""
        from repro.runner.pool import _populate_store

        self.warm |= _populate_store(self.store, units,
                                     self.options.workers, self.version)
        self.captured |= {self.trace_key(unit) for unit in units}

    def close(self) -> None:
        """Discard what was speculated past the last check, wait for
        discarded tasks still running, and record the evaluation
        stage: first submit to last commit."""
        for cell in list(self.issued):
            self.discard(cell)
        while self.orphans:
            self.wait()
        if self.t_first is not None and self.t_commit is not None:
            self.run.registry.record_timer("runner.stage.eval",
                                           self.t_commit - self.t_first)

    # -- waves ---------------------------------------------------------

    def run_wave(self, wave: List[Any], guess: List[Any],
                 eager: bool) -> None:
        """Run, then commit, ``wave``; speculate on ``guess`` while it
        runs, all of it at once when ``eager``."""
        from repro.runner.cache import unit_key
        from repro.runner.pool import cached_result

        if self.t_commit is None:
            self.t_commit = time.perf_counter()
        keys = [unit_key(unit, self.version) for unit in wave]
        hits = [cached_result(self.options, key) for key in keys]
        misses = [unit for unit, hit in zip(wave, hits) if hit is None]
        needed = {_cell(unit) for unit in [*misses, *guess]}
        for cell in [c for c in self.issued if c not in needed]:
            self.discard(cell)
        todo = [unit for unit in misses if _cell(unit) not in self.issued]
        missing = [unit for unit in todo
                   if self.trace_key(unit) not in self.captured]
        if missing:
            self.capture(missing)
        for unit in todo:
            self.issue(unit)
        if self.pool is not None:
            self.guess = [unit for unit in guess
                          if _cell(unit) not in self.issued
                          and not self.cache_file(unit)
                          and self.trace_key(unit) in self.captured]
            if eager:
                self.speculate(now=True)
        tasks = [self.issued[_cell(unit)] for unit in misses]
        while any(task_id not in self.finished for task_id in tasks):
            self.speculate()
            self.wait()
        self.commit(wave, keys, [hit if hit is not None
                                 else self.outcome(unit)
                                 for unit, hit in zip(wave, hits)])

    def outcome(self, unit: Any) -> Any:
        """``unit``'s result, or its exception raised."""
        from repro.runner.pool import task_value

        return task_value(*self.finished[self.issued[_cell(unit)]])

    def commit(self, wave: List[Any], keys: List[str],
               results: List[Any]) -> None:
        from repro.runner.pool import commit_result

        run = self.run
        now = time.perf_counter()
        assert self.t_commit is not None
        run.registry.record_timer("sweep.wave.wall", now - self.t_commit)
        self.t_commit = now
        obs.add("runner.units", len(wave))
        for unit, key, result in zip(wave, keys, results):
            if result.cached:
                self.options.notify(unit, result)
            else:
                cell = _cell(unit)
                del self.finished[self.issued.pop(cell)]
                if cell in self.ahead:
                    self.ahead.discard(cell)
                    run.count("sweep.speculative.committed")
                result = commit_result(
                    self.options, unit, key, result,
                    trace_hit=self.trace_key(unit) in self.warm)
            doc = result.to_dict()
            assert run.writer is not None
            run.writer.add(doc)
            run.record_unit(doc)
        run.executed += len(wave)
        run.count("sweep.units.executed", len(wave))

    # -- tasks ---------------------------------------------------------

    def issue(self, unit: Any, ahead: bool = False) -> None:
        from repro.runner.pool import run_unit

        task_id = next(self.ids)
        self.issued[_cell(unit)] = task_id
        arg = (str(self.store.root), unit)
        if self.t_first is None:
            self.t_first = time.perf_counter()
        if self.pool is None:
            self.finished[task_id] = (True, run_unit(arg))
            return
        if ahead:
            self.ahead.add(_cell(unit))
        self.pool.submit(task_id, run_unit, arg,
                         key=self.trace_key(unit), label=unit.label)

    def speculate(self, now: bool = False) -> None:
        """Issue each guessed unit whose worker is idle, or every one
        when ``now``."""
        for unit in list(self.guess):
            if now or self.pool.idle(self.trace_key(unit)):
                self.guess.remove(unit)
                self.issue(unit, ahead=True)

    def discard(self, cell: Cell) -> None:
        """Drop a speculated unit: its outcome now, or when its task
        answers."""
        task_id = self.issued.pop(cell)
        self.ahead.discard(cell)
        self.run.count("sweep.speculative.discarded")
        if task_id in self.finished:
            self.drop(self.finished.pop(task_id))
        else:
            self.orphans.add(task_id)

    def drop(self, outcome: Tuple[bool, Any]) -> None:
        """Time a discarded unit: the seconds it ran, 0 if it failed."""
        seconds = outcome[1].wall_time_s if outcome[0] else 0.0
        self.run.registry.record_timer("sweep.speculative.discarded",
                                       seconds)

    def wait(self) -> None:
        for task_id, ok, value in self.pool.collect():
            if task_id in self.orphans:
                self.orphans.discard(task_id)
                self.drop((ok, value))
            else:
                self.finished[task_id] = (ok, value)

    def cache_file(self, unit: Any) -> bool:
        from repro.runner.cache import unit_key

        return self.options.use_cache and self.cache.path(
            unit_key(unit, self.version)).exists()

    def trace_key(self, unit: Any) -> str:
        from repro.runner.units import unit_trace_key

        return unit_trace_key(unit, self.version)


def _cell(unit: Any) -> Cell:
    return unit.config.name, unit.kernel


__all__ = ["BOUND_SLACK", "ResumeMismatch", "SavedCeiling",
           "SweepError", "SweepOptions", "SweepResult",
           "aggregate_objectives", "optimistic_bound", "run_sweep",
           "unit_objectives"]
