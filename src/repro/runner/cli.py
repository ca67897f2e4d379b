"""``st2-run`` / ``python -m repro.runner`` — the experiment runner CLI.

Examples::

    st2-run --kernels all --workers 4
    st2-run --kernels smoke --workers 2 --out manifest.jsonl
    st2-run --kernels binomial,pathfinder --configs ladder --no-cache

``--kernels`` takes a comma-separated list of suite kernel names or a
group (``all``, ``extended``, ``full``, ``smoke``); ``--configs`` takes
Figure 5 ladder names or an alias (``st2``, ``valhalla``, ``prev``,
``casa``, ``ladder``, ``fig3``).  Results are cached on disk under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) and the run is
recorded as a JSONL manifest (``--out``) plus a ``metrics.json``
observability dump next to it (``st2_manifest.metrics.json``) that
``st2-stats`` reads.

Exit codes follow the shared contract (:mod:`repro.cli_common`):
0 success, 1 a unit lost its worker process twice
(:class:`~repro.runner.pool.WorkerLost`) or read a damaged trace-store
entry (:class:`~repro.sim.trace_store.TraceStoreCorrupt`), 2
usage/input errors.
"""

from __future__ import annotations

import sys
import time

from repro import cli_common, obs
from repro.api import valid_scale
from repro.kernels.suite import KERNEL_GROUPS, resolve_kernels
from repro.runner.cache import code_version
from repro.runner.manifest import ManifestWriter, run_accounting
from repro.runner.options import RunOptions
from repro.runner.pool import WorkerLost, run_units
from repro.runner.units import build_units, resolve_configs


def build_parser():
    parser = cli_common.build_parser(
        "st2-run",
        "Parallel cached runner for the ST2 GPU "
        "(kernel x SpeculationConfig) experiment grid.")
    parser.add_argument("--kernels", default="all",
                        help="comma-separated kernel names or a group: "
                             + ", ".join(sorted(KERNEL_GROUPS)))
    parser.add_argument("--configs", default="st2",
                        help="comma-separated speculation configs "
                             "(aliases: st2, valhalla, prev, casa, "
                             "ladder, fig3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(4, cores))")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--per-kernel-seeds", action="store_true",
                        help="derive each unit's seed from "
                             "(seed, kernel) instead of sharing it")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the disk cache (no reads, "
                             "no writes)")
    parser.add_argument("--no-aux", action="store_true",
                        help="skip the VaLHALLA + correlation "
                             "auxiliary measurements")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")
    parser.add_argument("--trace-store", nargs="?", const="",
                        default=None, metavar="DIR",
                        help="keep traces in this memory-mapped store "
                             "(bare flag: $REPRO_TRACE_DIR or "
                             "~/.cache/repro/traces); each distinct "
                             "(kernel, scale, seed) trace is captured "
                             "once and every config is evaluated "
                             "against it read-only.  Without the flag, "
                             "traces go to a temporary store that is "
                             "removed at exit")
    parser.add_argument("--out", default="st2_manifest.jsonl",
                        help="JSONL manifest path "
                             "(default st2_manifest.jsonl); the obs "
                             "dump lands next to it as "
                             "<out>.metrics.json")
    parser.add_argument("--list", action="store_true",
                        help="print the resolved work list and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-unit progress lines")
    cli_common.add_json_flag(parser)
    return parser


def _progress_printer(total: int, quiet: bool):
    state = {"done": 0}

    def progress(spec, result) -> None:
        state["done"] += 1
        if quiet:
            return
        origin = "cache" if result.cached else \
            f"{result.wall_time_s:.2f}s"
        print(f"[{state['done']:>3}/{total}] {spec.label:<42} "
              f"miss={result.metrics.misprediction_rate:.4f} "
              f"({origin})", flush=True)
    return progress


def _summary_table(results) -> str:
    from repro.analysis.ascii_charts import table
    rows = [(r.kernel, r.config,
             "hit" if r.cached else "miss",
             f"{r.wall_time_s:.2f}", f"{r.trace_rows:,}",
             f"{r.metrics.misprediction_rate:.4f}",
             f"{r.metrics.system_saving:.1%}")
            for r in results]
    return table("st2-run results",
                 ["kernel", "config", "cache", "unit s", "trace rows",
                  "miss rate", "system saving"], rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kernels = resolve_kernels(args.kernels)
        configs = resolve_configs(args.configs)
    except KeyError as exc:
        return cli_common.fail("st2-run", exc.args[0])
    if args.workers is not None and args.workers < 1:
        return cli_common.fail("st2-run", "--workers must be >= 1")
    if not valid_scale(args.scale):
        return cli_common.fail("st2-run",
                               "--scale must be finite and > 0")

    units = build_units(kernels, configs=configs, scale=args.scale,
                        seed=args.seed, aux=not args.no_aux,
                        per_kernel_seeds=args.per_kernel_seeds)
    if not units:
        return cli_common.fail("st2-run", "no work units selected")
    if args.list:
        if args.json:
            cli_common.emit_json([
                {"kernel": spec.kernel, "config": spec.config.name,
                 "scale": spec.scale, "seed": spec.seed}
                for spec in units])
        else:
            for spec in units:
                print(f"{spec.label}  scale={spec.scale} "
                      f"seed={spec.seed}")
        return cli_common.EXIT_OK

    t0 = time.perf_counter()
    quiet = args.quiet or args.json
    options = RunOptions.from_args(
        args, progress=_progress_printer(len(units), quiet))

    try:
        results = run_units(units, options)
    except Exception as exc:
        # imported here: st2-run's start-up does not load the store
        from repro.sim.trace_store import TraceStoreCorrupt
        if not isinstance(exc, (WorkerLost, TraceStoreCorrupt)):
            raise
        return cli_common.fail("st2-run", str(exc),
                               code=cli_common.EXIT_PROBLEMS)

    meta = {
        "kernels": list(kernels),
        "configs": [cfg.name for cfg in configs],
        "scale": args.scale,
        "seed": args.seed,
        "workers": options.workers,
        "use_cache": options.use_cache,
        "cache_dir": str(options.resolved_cache().root),
        "code_version": code_version(),
    }
    if options.trace_store is not None:
        meta["trace_store"] = str(options.trace_store.root)
    snapshot = options.obs.snapshot()
    meta.update(run_accounting(snapshot))
    meta["wall_time_s"] = time.perf_counter() - t0
    writer = ManifestWriter(args.out, meta=meta, n_units=len(results),
                            units=results)
    writer.close()
    path = writer.path
    metrics_path = obs.write_metrics(obs.metrics_path_for(path),
                                     snapshot, meta=meta)

    if args.json:
        cli_common.emit_json({
            "meta": meta,
            "manifest": str(path),
            "metrics": str(metrics_path),
            "units": [r.to_dict() for r in results],
        })
        return cli_common.EXIT_OK

    print()
    print(_summary_table(results))
    print(f"\n{len(results)} units in {meta['wall_time_s']:.2f}s "
          f"({meta['cache_hits']} cache hits, {meta['cache_misses']} "
          f"computed, workers={options.workers})")
    if "traces_total" in meta:
        print(f"trace store: {meta['traces_total']} traces "
              f"({meta['traces_captured']} captured in "
              f"{meta['stage_capture_s']:.2f}s, "
              f"{meta['trace_store_hits']} warm), "
              f"stage 2 {meta['stage_eval_s']:.2f}s")
    print(f"manifest: {path}")
    print(f"metrics:  {metrics_path}")
    return cli_common.EXIT_OK


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
