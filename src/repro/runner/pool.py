"""Parallel, cache-aware execution of runner work units.

Every unit's cache key is resolved up front and hits are served from
disk in the parent.  The misses run in two stages, along the paper's
own decoupling, through a trace store (``options.trace_store``, or the
process-wide :func:`~repro.sim.trace_store.scratch_store` when none is
named).  **Stage 1** fans out over the *distinct* (kernel, scale, seed)
keys behind the pending units and captures them into the store,
skipping entries that are already warm — so an 18-kernel × 6-config
grid executes each kernel functionally once, not once per config per
worker.  **Stage 2** opens each stored trace read-only via ``mmap``,
sharing the OS page cache.

The evaluation fan-out schedules **one task per trace**: every pending
unit of one (kernel, scale, seed) runs in the same process, so the
trace's evaluation plan, static-peek overlay and auxiliary
measurements are built once per run, not once per config.  Both
stages run inline for ``workers <= 1`` (or a small grid) through the
same worker entry points as the pool, which is what the
parallel-equals-serial guarantee rests on.

Results always come back in work-list order; the parent alone writes
result-cache entries.  Trace-store entries are published by workers
with an atomic directory rename, so concurrent captures cannot corrupt
an entry (first writer wins; both wrote identical bytes).
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro import obs
from repro.runner.cache import code_version, unit_key
from repro.runner.options import RunOptions
from repro.runner.units import (ModelBundle, UnitSpec, capture_trace,
                                execute_unit, unit_trace_key)

_WORKER_MODELS = ModelBundle()
_WORKER_STORE = None

#: Evaluation fan-outs at or below this many units run inline: a unit
#: costs milliseconds, so the pool's fork + IPC overhead dominates
#: small grids.  Inline and pooled execution produce identical results
#: and metrics (the parallel-equals-serial guarantee), so the cutoff is
#: purely a latency choice.
INLINE_MAX_UNITS = 16


def default_workers() -> int:
    """A safe parallelism default: the pool pays off quickly but the
    23-kernel suite cannot keep dozens of cores busy."""
    return max(1, min(4, os.cpu_count() or 1))


def _init_worker(store_root, need_models: bool = True) -> None:
    """Pool initializer: build the calibrated power model and the
    circuit-characterised adder model once per worker process (stage-1
    capture workers skip them), and open the run's trace store.

    Building the models records no obs metrics, so building them once
    in the parent (inline path) or once per worker (pooled path) leaves
    the run's metrics the same."""
    global _WORKER_STORE
    from repro.sim.trace_store import TraceStore

    if need_models:
        _WORKER_MODELS.ensure()
    _WORKER_STORE = TraceStore(store_root)


def _run_one(item) -> tuple:
    """One unit, end to end, under a fresh obs scope whose snapshot
    travels home with the result (as the transient ``"obs"`` key —
    popped and merged by the parent)."""
    index, spec = item
    with obs.scoped() as reg:
        with reg.span("runner.unit"):
            result = execute_unit(spec, models=_WORKER_MODELS,
                                  store=_WORKER_STORE)
    result.data["obs"] = reg.snapshot()
    return index, result


def _run_trace(items) -> list:
    """Stage-2 work item: every pending unit of one trace, in
    work-list order, so the units share the process's plan of that
    trace.  Returns ``[(index, result), ...]``."""
    return [_run_one(item) for item in items]


def _trace_items(pending) -> list:
    """The evaluation fan-out's items: the pending ``(index, spec)``
    pairs grouped by (kernel, scale, seed), in work-list order."""
    groups = {}
    for i, spec in pending:
        groups.setdefault((spec.kernel, spec.scale, spec.seed), []) \
            .append((i, spec))
    return list(groups.values())


def capture_items(specs, version: str) -> dict:
    """Stage-1 items of the distinct traces behind ``specs``:
    ``{trace key: (key, kernel, scale, seed, version)}`` in first-seen
    order."""
    items = {}
    for spec in specs:
        key = unit_trace_key(spec, version)
        items.setdefault(
            key, (key, spec.kernel, spec.scale, spec.seed, version))
    return items


def _capture_one(item) -> tuple:
    """Stage-1 work item: :func:`~repro.runner.units.capture_trace`
    one distinct (kernel, scale, seed).  Returns
    ``(key, captured, wall_s, obs_snapshot)``."""
    with obs.scoped() as reg:
        with reg.span("runner.trace.capture"):
            t0 = time.perf_counter()
            created = capture_trace(_WORKER_STORE, *item)
            wall_s = time.perf_counter() - t0 if created else 0.0
    return item[0], created, wall_s, reg.snapshot()


def _pool_context():
    """Prefer fork (cheap, Linux CI); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _map_parallel(fn, items, workers, store_root,
                  need_models: bool = True):
    """Run ``fn`` over ``items`` inline or across a pool, yielding
    results unordered.  The inline path goes through the same worker
    entry points, which is what the parallel-equals-serial guarantee
    rests on.

    Each item is one task: the evaluation stage passes one item per
    trace (see :func:`_run_trace`), so a trace's plan is built by one
    worker.  Results and metrics are scheduling-independent either way.
    """
    if not items:
        return
    if workers > 1 and len(items) > 1:
        ctx = _pool_context()
        with ctx.Pool(min(workers, len(items)),
                      initializer=_init_worker,
                      initargs=(store_root, need_models)) as pool:
            yield from pool.imap_unordered(fn, items)
    else:
        _init_worker(store_root, need_models=need_models)
        for item in items:
            yield fn(item)


def run_units(specs, options: RunOptions = None) -> list:
    """Execute ``specs`` and return their results, in order.

    Each element is a typed :class:`~repro.st2.results.RunResult` —
    the :func:`~repro.runner.units.execute_unit` payload plus two
    runtime fields: ``key`` (the cache key) and ``cached`` (whether
    this invocation served it from disk).

    ``options`` is a :class:`~repro.runner.options.RunOptions`
    (``None`` means defaults).  After the call, ``options.stats``
    holds the invocation's stage accounting (``stage_capture_s``,
    ``stage_eval_s`` and, when any unit missed the result cache,
    ``traces_captured`` / ``trace_store_hits``) and ``options.obs``
    the invocation's observability registry: every counter and timer
    accumulated across the run, including merged per-worker snapshots
    (its snapshot is what ``st2-run`` writes next to the manifest as
    ``metrics.json``).

    Traces come from ``options.trace_store``, or from the process-wide
    :func:`~repro.sim.trace_store.scratch_store` when it is ``None``.
    """
    from repro.sim.trace_store import scratch_store
    from repro.st2.results import RunResult

    options = options if options is not None else RunOptions()
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, UnitSpec):
            raise TypeError(f"expected UnitSpec, got {type(spec)!r}")
    with obs.scoped(options.obs) as reg:
        options.obs = reg
        cache = options.resolved_cache()
        use_cache = options.use_cache
        version = code_version()
        keys = [unit_key(spec, version) for spec in specs]
        results = [None] * len(specs)
        obs.add("runner.units", len(specs))

        pending = []
        for i, (spec, key) in enumerate(zip(specs, keys)):
            hit = cache.load(key) if use_cache else None
            if hit is not None:
                hit.update(key=key, cached=True)
                hit = RunResult(hit)
                results[i] = hit
                obs.add("runner.units.cached")
                options.notify(spec, hit)
            else:
                pending.append((i, spec))

        stats = {"stage_capture_s": 0.0, "stage_init_s": 0.0,
                 "stage_eval_s": 0.0}
        options.stats = stats
        if not pending:
            return results
        store = options.trace_store
        if store is None:           # never `or`: an empty store is falsy
            store = scratch_store()

        trace_keys = {}             # unit index -> trace key
        with reg.span("runner.stage.capture"):
            stats.update(_populate_store(store, pending, options,
                                         version, trace_keys))
        warm = stats.pop("warm_keys")

        def finish(i, result):
            snap = result.data.pop("obs", None)
            if snap:
                reg.merge(snap)
            result.data.update(key=keys[i], cached=False)
            # provenance relative to *this invocation*: True only if
            # the trace was warm before stage 1 ran
            result.data["trace_cache_hit"] = trace_keys[i] in warm
            if use_cache:
                cache.store(keys[i], result.to_dict())
            obs.add("runner.units.executed")
            results[i] = result
            options.notify(specs[i], result)

        with reg.span("runner.stage.init"):
            stats["stage_init_s"] = _prepare_eval(pending)
        t0 = time.perf_counter()
        items = _trace_items(pending)
        workers = options.workers
        if len(pending) <= INLINE_MAX_UNITS:
            workers = 1
        with reg.span("runner.stage.eval"):
            for done in _map_parallel(_run_trace, items, workers,
                                      str(store.root)):
                for i, result in done:
                    finish(i, result)
        stats["stage_eval_s"] = time.perf_counter() - t0
    return results


def _prepare_eval(pending) -> float:
    """Build the shared per-process state in the *parent* before the
    evaluation fan-out: the calibrated power + adder models and the
    per-kernel static carry facts.

    Pool workers are forked from the parent wherever fork exists
    (Linux, the CI runners), so warming these memos here means every
    worker inherits them instead of each paying the adder
    characterisation on first use inside the evaluation stage —
    ``stage_eval_s`` then measures evaluation, not interpreter
    start-up.  On spawn platforms the workers still build their own
    models in ``_init_worker``; results are identical either way.

    Neither the models nor the facts memo record obs metrics.  Returns
    the wall time spent (reported as ``stage_init_s``).
    """
    from repro.lint.facts import facts_for_kernel

    t0 = time.perf_counter()
    _WORKER_MODELS.ensure()
    for kernel in sorted({spec.kernel for _, spec in pending}):
        facts_for_kernel(kernel)
    return time.perf_counter() - t0


def _populate_store(store, pending, options: RunOptions,
                    version: str, trace_keys: dict) -> dict:
    """Stage 1: capture every distinct pending trace into the store.

    Fans out over (kernel, scale, seed) keys — never over configs —
    skipping entries that are already warm.
    """
    for i, spec in pending:
        trace_keys[i] = unit_trace_key(spec, version)
    distinct = capture_items((spec for _, spec in pending), version)

    warm = frozenset(k for k in distinct if store.has(k))
    todo = [item for key, item in distinct.items() if key not in warm]

    t0 = time.perf_counter()
    captured = []
    registry = obs.get_obs()
    for key, created, wall_s, snap in _map_parallel(
            _capture_one, todo, options.workers, str(store.root),
            need_models=False):
        registry.merge(snap)
        if created:
            captured.append(key)
    obs.add("runner.traces.captured", len(captured))
    obs.add("runner.traces.warm", len(warm))
    return {
        "stage_capture_s": time.perf_counter() - t0,
        "traces_total": len(distinct),
        "traces_captured": len(captured),
        "trace_store_hits": len(warm),
        "warm_keys": warm,
    }


def run_suite_units(specs, options: RunOptions = None) -> dict:
    """Like :func:`run_units` but keyed ``{(kernel, config): result}``
    — the shape the benchmark fixtures want."""
    results = run_units(specs, options=options)
    return {(spec.kernel, spec.config.name): result
            for spec, result in zip(specs, results)}


class RunTimer:
    """Wall-clock + hit/miss accounting for one runner invocation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.hits = 0
        self.misses = 0

    def observe(self, spec, result) -> None:
        if getattr(result, "cached", False):
            self.hits += 1
        else:
            self.misses += 1

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.t0

    def summary(self) -> dict:
        return {"wall_time_s": self.elapsed_s,
                "cache_hits": self.hits, "cache_misses": self.misses}
