"""``st2-sweep`` / ``python -m repro.sweep`` — declarative design-space
sweeps with Pareto tracking, pruning and resume.

Examples::

    st2-sweep example > spec.json           # ready-to-edit spec
    st2-sweep expand spec.json              # what would run, no work
    st2-sweep run spec.json --out sweep.json
    st2-sweep run spec.json --no-prune      # exhaustive mode
    st2-sweep report sweep.json             # markdown frontier report

Spec files are JSON, or YAML (``.yaml``/``.yml``) when PyYAML is
installed.

``run`` is resumable: every finished unit lands in the JSONL manifest
(``--manifest``, default ``<out>.manifest.jsonl``) as it completes, so
a killed sweep restarted with the same spec re-executes nothing
(``--max-units`` bounds one invocation's executions for exactly that
workflow).  The observability snapshot rides next to the manifest as
``<manifest>.metrics.json`` — ``st2-stats`` reads it.

Exit codes follow the shared contract (:mod:`repro.cli_common`):
0 success (including a budget-bounded partial sweep), 1 sweep
execution failures (a unit that lost its worker process twice
included; rerunning resumes), 2 usage/input errors (bad spec files, out-of-range
``--workers``/``--max-units`` and resume-digest mismatches included).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import cli_common, obs

PROG = "st2-sweep"


def build_parser():
    parser = cli_common.build_parser(
        PROG,
        "Declarative (kernel x SpeculationConfig) design-space sweeps "
        "over the ST2 runner: grid expansion, Pareto-frontier "
        "tracking, provably-sound pruning, kill/resume.")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser(
        "run", help="execute a sweep spec (resumable)")
    run.add_argument("spec", help="sweep spec file (.yaml/.yml/.json)")
    run.add_argument("--out", default="sweep.json",
                     help="frontier report document "
                          "(default sweep.json)")
    run.add_argument("--manifest", default=None,
                     help="JSONL unit manifest — the resume record "
                          "(default <out>.manifest.jsonl)")
    run.add_argument("--no-prune", action="store_true",
                     help="exhaustive mode: execute every grid config "
                          "(equivalence classes are verified "
                          "bit-for-bit instead of skipped; the "
                          "frontier is invariant either way)")
    run.add_argument("--no-static-bounds", action="store_true",
                     help="disable the static bounds pruning stage "
                          "(repro.lint.bounds pre-execution "
                          "intersection; the frontier is invariant "
                          "either way)")
    run.add_argument("--explain-prunes", action="store_true",
                     help="print one line per pruned config with the "
                          "bound and the frontier point that "
                          "dominated it")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes; also the per-wave unit "
                          "count pruning checks at "
                          "(default: min(4, cores))")
    run.add_argument("--max-units", type=int, default=None,
                     help="stop after executing this many units "
                          "(the manifest resumes the rest later)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the unit result disk cache")
    run.add_argument("--cache-dir", default=None,
                     help="cache root (default: $REPRO_CACHE_DIR "
                          "or ~/.cache/repro)")
    run.add_argument("--trace-store", nargs="?", const="",
                     default=None, metavar="DIR",
                     help="keep traces in this memory-mapped trace "
                          "store (bare flag: the default store dir); "
                          "without the flag, traces go to a temporary "
                          "store that is removed at exit")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress lines")
    cli_common.add_json_flag(run)

    report = sub.add_parser(
        "report", help="render a sweep.json as markdown")
    report.add_argument("result", help="sweep.json produced by 'run'")
    cli_common.add_json_flag(report)

    expand = sub.add_parser(
        "expand", help="show what a spec would execute, without "
                       "running anything")
    expand.add_argument("spec",
                        help="sweep spec file (.yaml/.yml/.json)")
    cli_common.add_json_flag(expand)

    example = sub.add_parser(
        "example", help="print a ready-to-edit example JSON spec")
    cli_common.add_json_flag(example)
    return parser


def _load_spec(path):
    from repro.sweep.specio import SpecIOError, load_spec
    try:
        return load_spec(path), None
    except SpecIOError as exc:
        return None, str(exc)


def _cmd_run(args) -> int:
    import json

    from repro.runner.pool import WorkerLost
    from repro.sim.trace_store import TraceStoreCorrupt
    from repro.sweep.engine import (ResumeMismatch, SweepError,
                                    SweepOptions, run_sweep)

    if args.workers is not None and args.workers < 1:
        return cli_common.fail(PROG, "--workers must be >= 1")
    if args.max_units is not None and args.max_units < 0:
        return cli_common.fail(PROG, "--max-units must be >= 0")
    spec, error = _load_spec(args.spec)
    if error:
        return cli_common.fail(PROG, error)
    manifest = args.manifest if args.manifest is not None \
        else f"{args.out}.manifest.jsonl"
    quiet = args.quiet or args.json
    options = SweepOptions(
        prune=not args.no_prune,
        static_bounds=not args.no_static_bounds,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        trace_store=args.trace_store,
        max_units=args.max_units,
        progress=None if quiet else
        lambda message: print(f"[{PROG}] {message}", flush=True))
    try:
        result = run_sweep(spec, manifest, options)
    except ResumeMismatch as exc:
        return cli_common.fail(PROG, str(exc))
    except KeyError as exc:
        return cli_common.fail(PROG, exc.args[0])
    except (SweepError, TraceStoreCorrupt) as exc:
        return cli_common.fail(PROG, str(exc),
                               code=cli_common.EXIT_PROBLEMS)
    except WorkerLost as exc:
        return cli_common.fail(
            PROG, f"{exc}; rerun the same command to resume from "
            f"{manifest}", code=cli_common.EXIT_PROBLEMS)

    doc = result.to_wire()
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    registry = options.registry
    metrics_path = obs.write_metrics(
        obs.metrics_path_for(manifest), registry.snapshot(),
        meta={"sweep": spec.name, "sweep_digest": spec.digest(),
              "prune": result.prune,
              "complete": result.complete})

    if args.json:
        cli_common.emit_json({"out": str(out),
                              "manifest": result.manifest,
                              "metrics": str(metrics_path),
                              "result": doc})
        return cli_common.EXIT_OK
    snapshot = registry.snapshot().get("counters", {})
    print(f"\nsweep {spec.name}: "
          f"{len(result.frontier)}-point frontier over "
          f"{len(result.points)} completed config classes "
          f"(pruning {'on' if result.prune else 'off'})")
    for point in result.frontier:
        objs = ", ".join(f"{k}={v:.4f}"
                         for k, v in sorted(point.objectives.items()))
        print(f"  {point.key:<40} {objs}")
    print(f"units: {result.executed_units} executed, "
          f"{result.reused_units} reused, "
          f"{result.skipped_units} pruned away "
          f"(counters: {snapshot.get('sweep.prune.equivalent', 0)} "
          f"equivalent, {snapshot.get('sweep.prune.dominated', 0)} "
          f"dominated configs, "
          f"{snapshot.get('sweep.prune.static', 0)} via static "
          f"bounds)")
    if args.explain_prunes:
        for name in sorted(result.pruned):
            info = result.pruned[name]
            if info.get("reason") == "equivalent":
                print(f"  pruned {name}: provably equivalent to "
                      f"{info.get('canon')}")
                continue
            bound = info.get("bound") or {}
            objs = ", ".join(
                f"{key}{'<=' if key == 'energy_saved' else '>='}"
                f"{value:.4f}"
                for key, value in sorted(bound.items()))
            print(f"  pruned {name}: dominated by "
                  f"{info.get('dominated_by')} "
                  f"[{info.get('via', 'completion')} bound: {objs}; "
                  f"{info.get('units_skipped', 0)} unit(s) skipped]")
    if not result.complete:
        print(f"INCOMPLETE: unit budget reached; rerun the same "
              f"command to resume from {result.manifest}")
    print(f"report:   {out}")
    print(f"manifest: {result.manifest}")
    print(f"metrics:  {metrics_path}")
    return cli_common.EXIT_OK


def _cmd_report(args) -> int:
    import json

    from repro.sweep.engine import SweepError, SweepResult
    from repro.sweep.report import axis_sensitivity, render_report

    try:
        doc = json.loads(Path(args.result).read_text())
    except OSError as exc:
        return cli_common.fail(PROG, f"cannot read {args.result}: "
                               f"{exc}")
    except ValueError as exc:
        return cli_common.fail(PROG, f"{args.result}: invalid JSON: "
                               f"{exc}")
    try:
        result = SweepResult.from_wire(doc)
    except (SweepError, KeyError, TypeError, ValueError) as exc:
        return cli_common.fail(PROG, f"{args.result}: {exc}")
    if args.json:
        cli_common.emit_json({
            "frontier": [p.to_wire() for p in result.frontier],
            "sensitivity": {
                axis: {repr(value): means
                       for value, means in per_value.items()}
                for axis, per_value
                in axis_sensitivity(result).items()},
            "markdown": render_report(result)})
        return cli_common.EXIT_OK
    print(render_report(result), end="")
    return cli_common.EXIT_OK


def _cmd_expand(args) -> int:
    from repro.sweep.grid import expand_plan

    spec, error = _load_spec(args.spec)
    if error:
        return cli_common.fail(PROG, error)
    try:
        plan = expand_plan(spec)
    except KeyError as exc:
        return cli_common.fail(PROG, exc.args[0])
    groups = [{"canon": g.canon,
               "members": [m.name for m in g.members]}
              for g in plan.groups]
    if args.json:
        cli_common.emit_json({
            "spec": spec.to_wire(),
            "digest": spec.digest(),
            "kernels": list(plan.kernels),
            "grid_size": spec.grid_size,
            "invalid_combos": plan.invalid_combos,
            "duplicate_configs": plan.duplicate_configs,
            "n_configs": plan.n_configs,
            "n_groups": len(plan.groups),
            "units_pruned": len(plan.groups) * len(plan.kernels),
            "units_exhaustive": plan.n_configs * len(plan.kernels),
            "groups": groups})
        return cli_common.EXIT_OK
    print(f"sweep {spec.name} (digest {spec.digest()})")
    print(f"kernels ({len(plan.kernels)}): "
          + ", ".join(plan.kernels))
    print(f"grid: {spec.grid_size} combinations, "
          f"{plan.invalid_combos} invalid, "
          f"{plan.duplicate_configs} duplicate -> "
          f"{plan.n_configs} configs in {len(plan.groups)} "
          f"equivalence classes")
    print(f"units: {len(plan.groups) * len(plan.kernels)} pruned / "
          f"{plan.n_configs * len(plan.kernels)} exhaustive")
    for group in plan.groups:
        extra = "" if len(group.members) == 1 else \
            "  (= " + ", ".join(m.name for m in group.members[1:]) \
            + ")"
        print(f"  {group.canon}{extra}")
    return cli_common.EXIT_OK


def _cmd_example(args) -> int:
    from repro.sweep.specio import EXAMPLE_WIRE, example_text

    if args.json:
        cli_common.emit_json(EXAMPLE_WIRE)
        return cli_common.EXIT_OK
    print(example_text(), end="")
    return cli_common.EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        return cli_common.fail(
            PROG, "a command is required: run, report, expand "
                  "or example")
    handler = {"run": _cmd_run, "report": _cmd_report,
               "expand": _cmd_expand, "example": _cmd_example}
    return handler[args.command](args)


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
