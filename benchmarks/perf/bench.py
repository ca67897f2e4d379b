#!/usr/bin/env python3
"""End-to-end and per-layer performance benchmark of the ST2 tools.

Subcommands::

    # one workload, one run: the form BENCHMARK.json's command takes
    python3 benchmarks/perf/bench.py measure --workload paper-cold \\
        --seed 0 --seconds 20 --trace 0

    # every workload, --repeats runs each, digests checked
    python3 benchmarks/perf/bench.py run --seed 0 --repeats 3 --out R.json

    # per-layer self times of one workload
    python3 benchmarks/perf/bench.py trace --workload ladder-warm

    # parent vs change, by the bounds in BENCHMARK.json
    python3 benchmarks/perf/bench.py compare parent.json change.json

``measure`` and ``trace`` print one JSON object as the last line of
standard output: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones.  A result
digest that disagrees with its pin (seeds 0 and 1) or between passes is
named on stderr, counted as failed, and makes the command exit 1.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import layers
import workloads as wl
from workloads import (WORKLOADS, BenchError, Context, PassResult,
                       quartiles)

BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"
IMPORT_SAMPLES = 3
MIN_GAIN_PAIRS = 10     # runs per side before compare may call a gain


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------

def run_passes(ctx: Context, seconds: float) -> List[PassResult]:
    """Passes back to back until the next one would end after
    ``seconds``; at least one."""
    workload = WORKLOADS[ctx.workload]
    passes, durations = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(workload.run_pass(ctx))
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(durations) > seconds:
            return passes


def verdict(ctx: Context, passes: List[PassResult], pins: dict) -> tuple:
    """``(attempted, failed, problems)``: every request of a pass whose
    digest disagrees with the pin (or, without one, with the first pass)
    is failed."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [e for p in passes for e in p.errors]
    ok = [p for p in passes if not p.failed]
    digests = [p.digest for p in ok]
    found = wl.check_digests(ctx.workload, ctx.size, ctx.seed, digests,
                             pins)
    if found:
        problems += found
        expected = pins.get(ctx.size, {}).get(ctx.workload, {}) \
            .get(str(ctx.seed), digests[0] if digests else None)
        failed += sum(p.attempted for p in ok if p.digest != expected)
    return attempted, failed, problems


def end_to_end(setup: List[float], passes: List[PassResult]) -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    return {
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "rows_per_s": (statistics.median(p.rows / p.window_s
                                         for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p.maxrss_mb for p in passes),
                        "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", pins: dict = None) -> Dict[str, Any]:
    """One run of one workload; returns the result object plus the
    ``digest``/``problems``/``detail`` riders the other commands use."""
    pins = wl.load_pins() if pins is None else pins
    ctx = Context.create(workload, size, seed)
    wl.ensure_importable()
    try:
        if trace:
            passes, metrics, detail = trace_run(ctx)
        else:
            setup = WORKLOADS[workload].setup_times(ctx, wl.SETUP_SAMPLES)
            WORKLOADS[workload].prepare(ctx)
            passes = run_passes(ctx, seconds)
            metrics = end_to_end(setup, passes)
            detail = {"passes": len(passes),
                      "samples": sum(len(p.latencies_s) for p in passes),
                      "simulated": simulated_means(ctx, passes)}
    finally:
        ctx.close()
    attempted, failed, problems = verdict(ctx, passes, pins)
    for problem in problems:
        _say(f"FAIL {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "digest": passes[0].digest if passes else "missing",
        "problems": problems,
        "detail": detail,
    }


def simulated_means(ctx: Context, passes: List[PassResult]) -> dict:
    """paper-cold only: the simulated Fig. 6/7 means over the ST2-config
    units, beside the paper's values."""
    if ctx.workload != "paper-cold" or not passes or passes[0].failed:
        return {}
    from repro.core.speculation import ST2_DESIGN
    from repro.runner.manifest import read_manifest
    from repro.st2.paper_numbers import value

    _, units = read_manifest(passes[0].extra["out"] / "manifest.jsonl")
    st2 = [u["metrics"] for u in units if u["config"] == ST2_DESIGN.name]
    out = {}
    for name, key, paper in (
            ("miss_st2", "misprediction_rate", "miss_st2"),
            ("system_saving", "system_saving", "system_energy_saving"),
            ("avg_slowdown", "slowdown", "avg_slowdown")):
        mean = statistics.fmean(m[key] for m in st2)
        out[name] = {"value": mean, "paper": value(paper),
                     "error": mean - value(paper)}
    return out


# ----------------------------------------------------------------------
# traced run (per-layer metrics)
# ----------------------------------------------------------------------

def _import_seconds(ctx: Context) -> float:
    module = WORKLOADS[ctx.workload].cli_module
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    times = []
    for i in range(IMPORT_SAMPLES):
        log = ctx.work / f"import-{i}.log"
        proc = wl.spawn(ctx.python("-c", code), ctx.env, log)
        if proc.returncode != 0:
            raise BenchError(f"import of {module} failed:\n{wl.tail(log)}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


def _inprocess(ctx: Context, traced: bool) -> dict:
    """One serial in-process pass in a fresh child process."""
    out_dir = ctx.fresh("traced" if traced else "serial")
    report = out_dir / "report.json"
    proc = wl.spawn(ctx.python(
        Path(__file__).resolve(), "_inprocess", "--workload",
        ctx.workload, "--size", ctx.size, "--seed", ctx.seed,
        "--work", ctx.work, "--out", out_dir, "--report", report,
        "--traced", int(traced)), ctx.env, out_dir / "child.log")
    if proc.returncode != 0:
        raise BenchError(f"{ctx.workload}: in-process run failed:\n"
                         f"{wl.tail(proc.log)}")
    return json.loads(report.read_text())


def _record_metrics(ctx: Context, cli: PassResult) -> dict:
    """Pool, stage, sweep and simulated counts from the records the
    untraced 2-worker pass left behind."""
    rec = WORKLOADS[ctx.workload].records(cli)
    stages = {k: rec.stages.get(k, 0.0) for k in wl.STAGES}
    busy = sum(float(u["wall_time_s"]) for u in rec.units)
    counters = rec.obs.get("counters", {})
    timers = rec.obs.get("timers", {})
    sweep = rec.sweep or {"executed_units": 0, "skipped_units": 0}
    executed = sweep["executed_units"]
    return {
        "runner.pool.efficiency":
            (busy / (stages["eval"] * wl.WORKERS) if stages["eval"]
             else 0.0, "ratio"),
        "runner.stage.init_s": (stages["init"], "s"),
        "runner.stage.capture_s": (stages["capture"], "s"),
        "runner.stage.eval_s": (stages["eval"], "s"),
        "sweep.engine.waves":
            (timers.get("sweep.wave.wall", {}).get("count", 0), "count"),
        "sweep.engine.units_executed": (executed, "count"),
        "sweep.engine.executed_frac":
            (executed / (executed + sweep["skipped_units"]) if executed
             else 0.0, "ratio"),
        "core.adder.ops": (counters.get("core.adder.ops", 0), "count"),
        "sim.timing.warp_insts":
            (counters.get("sim.timing.warp_insts", 0), "count"),
        "sim.functional.trace_rows":
            (counters.get("sim.functional.trace_rows", rec.trace_rows),
             "count"),
    }


def _serve_metrics(cli: PassResult) -> dict:
    extra = cli.extra if "submit" in cli.extra else {}

    def p50_ms(key):
        values = extra.get(key, [])
        return statistics.median(values) * 1e3 if values else 0.0

    return {
        "serve.submit_ms_p50": (p50_ms("submit"), "ms"),
        "serve.wait_ms_p50": (p50_ms("wait"), "ms"),
        "serve.p99_ms": (statistics.quantiles(cli.latencies_s, n=100)[98]
                         * 1e3 if extra else 0.0, "ms"),
        "serve.cold_p50_ms": (p50_ms("cold"), "ms"),
        "serve.coalesce_hits": (extra.get("coalesce_hits", 0), "count"),
        "serve.cache_hits": (extra.get("cache_hits", 0), "count"),
        "serve.redundant_executions":
            (extra.get("redundant_executions", 0), "count"),
    }


def _layer_metrics(report: dict) -> dict:
    stats = report.get("layers", {})

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def ns_per(layer, key):
        count = get(layer, key)
        return get(layer, "self_s") / count * 1e9 if count else 0.0

    metrics = {f"{layer}.self_s": (get(layer, "self_s"), "s")
               for layer in layers.LAYERS}
    calls = get("core.correlation", "calls")
    metrics.update({
        "sim.functional.rows": (get("sim.functional", "rows"), "count"),
        "sim.functional.ns_per_row": (ns_per("sim.functional", "rows"), "ns"),
        "sim.trace_store.put.mb":
            (get("sim.trace_store.put", "bytes") / 1e6, "MB"),
        "sim.trace_store.get.calls":
            (get("sim.trace_store.get", "calls"), "count"),
        "sim.vec.plan.calls": (get("sim.vec.plan", "calls"), "count"),
        "core.batch.predict.ns_per_row":
            (ns_per("core.batch.predict", "rows"), "ns"),
        "core.batch.evaluate.ns_per_row":
            (ns_per("core.batch.evaluate", "rows"), "ns"),
        "sim.vec.timing.ns_per_warp_inst":
            (ns_per("sim.vec.timing", "warp_insts"), "ns"),
        "core.predictors.calls": (get("core.predictors", "calls"), "count"),
        "core.correlation.calls": (calls, "count"),
        "core.correlation.redundant_frac":
            (get("core.correlation", "redundant") / calls if calls else 0.0,
             "ratio"),
        "lint.bounds.calls": (get("lint.bounds", "calls"), "count"),
    })
    return metrics


def trace_run(ctx: Context) -> tuple:
    """The per-layer run: fresh-process import time, one untraced
    2-worker pass (pool and simulated counts), then three serial
    in-process passes, each in a fresh process: untraced, traced,
    untraced.  The traced wall is set against the mean of the two
    untraced ones around it, so host drift and the write-back of
    earlier passes weigh on both sides of ``trace.overhead_frac``."""
    workload = WORKLOADS[ctx.workload]
    workload.prepare(ctx)
    import_s = _import_seconds(ctx)
    cli = workload.run_pass(ctx)
    if cli.failed:
        raise BenchError("\n".join(cli.errors))
    passes = [cli]
    metrics = {"import.s": (import_s, "s")}
    if ctx.workload == "serve-closed":
        report = {"layers": {}, "absent": []}
        # the client-side spans are the latency measurement itself
        traced_wall, overhead = cli.window_s, 0.0
        covered = sum(cli.extra.get("submit", [])) \
            + sum(cli.extra.get("wait", [])) \
            + sum(cli.extra.get("cold", []))
        unattributed = cli.extra.get("client_busy_s", 0.0) - covered
    else:
        before = _inprocess(ctx, traced=False)
        report = _inprocess(ctx, traced=True)
        after = _inprocess(ctx, traced=False)
        for child in (before, report, after):
            passes.append(PassResult([child["wall_s"]], child["wall_s"], 0,
                                     0.0, child["digest"], 1, 0))
        traced_wall = report["wall_s"]
        overhead = traced_wall / statistics.fmean(
            [before["wall_s"], after["wall_s"]]) - 1.0
        unattributed = traced_wall - sum(
            s["self_s"] for s in report["layers"].values())
    metrics.update(_layer_metrics(report))
    metrics.update(_record_metrics(ctx, cli))
    metrics.update(_serve_metrics(cli))
    metrics.update({
        "unattributed_s": (unattributed, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    detail = {"absent": report.get("absent", []),
              "unattributed_frac": unattributed / traced_wall
              if traced_wall else 0.0}
    return passes, metrics, detail


def cmd_inprocess(args) -> int:
    """Child of the traced run: one serial pass inside this process."""
    wl.ensure_importable()
    ctx = Context(args.workload, args.size, args.seed, Path(args.work),
                  dict(wl.SIZES[args.size][args.workload]))
    workload = WORKLOADS[args.workload]
    __import__(workload.cli_module)
    layers.import_entry_modules()
    tracer = layers.Tracer()
    if args.traced:
        tracer.install()
    out = Path(args.out)
    t0 = time.perf_counter()
    workload.inprocess(ctx, out)
    wall = time.perf_counter() - t0
    Path(args.report).write_text(json.dumps({
        "wall_s": wall,
        "layers": tracer.report() if args.traced else {},
        "absent": tracer.absent,
        "digest": workload.read_outputs(out)[1],
    }))
    return 0


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _result_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def cmd_measure(args) -> int:
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    for name, metric in result["metrics"].items():
        _say(f"{args.workload:<13} {name:<34} {metric['value']:>14.6g} "
             f"{metric['unit']}")
    print(_result_line(result))
    return 0 if result["correct"] else 1


def cmd_trace(args) -> int:
    result = measure(args.workload, args.seed, 0, True, args.size)
    _say(f"per-layer metrics, {args.workload} (seed {args.seed}):")
    for name, metric in sorted(result["metrics"].items()):
        _say(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    detail = result["detail"]
    _say(f"  unattributed: {detail['unattributed_frac']:.1%} of traced "
         f"wall; absent entry points: "
         f"{', '.join(detail['absent']) or 'none'}")
    print(_result_line(result))
    return 0 if result["correct"] else 1


def summarize(samples: Dict[str, List[float]]) -> Dict[str, dict]:
    out = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "iqr_frac": (q3 - q1) / med if med else 0.0,
                     "n": len(values)}
    return out


def cmd_run(args) -> int:
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    pins = wl.load_pins()
    doc = {"seed": args.seed, "size": args.size, "seconds": seconds,
           "repeats": args.repeats, "workloads": {}, "summary": {}}
    ok = True
    # round-robin, so a slow spell of a shared host spreads over the
    # workloads instead of landing on every run of one of them
    for repeat in range(args.repeats):
        for name in names:
            _say(f"[{name}] run {repeat + 1}/{args.repeats}")
            result = measure(name, args.seed, seconds, False, args.size,
                             {} if args.update_pins else pins)
            ok = ok and result["correct"]
            doc["workloads"].setdefault(name, []).append(result)
    for name, runs in doc["workloads"].items():
        samples: Dict[str, List[float]] = {}
        for result in runs:
            for metric, value in result["metrics"].items():
                samples.setdefault(metric, []).append(value["value"])
        doc["summary"][name] = summarize(samples)
        _print_summary(name, runs, doc["summary"][name])
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1,
                                             default=str) + "\n")
        _say(f"results written to {args.out}")
    if not ok:
        _say("FAILED: see the FAIL lines above")
        return 1
    if args.update_pins:
        for name, runs in doc["workloads"].items():
            digests = {r["digest"] for r in runs}
            if len(digests) != 1:
                _say(f"FAIL {name}: runs disagree; pins not updated")
                return 1
            pins.setdefault(args.size, {}).setdefault(name, {})[
                str(args.seed)] = digests.pop()
        wl.PINS_PATH.write_text(json.dumps(pins, indent=1,
                                           sort_keys=True) + "\n")
        _say(f"pins written to {wl.PINS_PATH}")
    return 0


def _print_summary(name: str, runs: List[dict], summary: dict) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n{name}: {len(runs)} runs, failed_frac "
          f"{failed / attempted if attempted else 0.0:.4f} "
          f"({failed}/{attempted})")
    units = runs[0]["metrics"]
    for metric, s in summary.items():
        print(f"  {metric:<14} {s['median']:>14.6g} "
              f"{units[metric]['unit']:<6} IQR {s['iqr_frac']:.1%}")
    for metric, s in runs[0]["detail"].get("simulated", {}).items():
        print(f"  {metric:<14} {s['value']:>14.6g} (paper {s['paper']}, "
              f"error {s['error']:+.4f})")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def compare_metric(parent: List[float], change: List[float], better: str,
                   bound: float) -> str:
    """The verdict on one (metric, workload) pair.

    ``regression`` when the change's median is worse than the parent's
    by more than ``bound``; ``unresolved`` when either side's run-to-run
    spread (IQR / median) exceeds the bound, unless every change run
    beats every parent run; ``gain`` when there are at least
    ``MIN_GAIN_PAIRS`` (parent, change) pairs, the change wins at least
    9/10 of them, ties counting for neither, and the medians differ by
    more than the parent's IQR; else ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, med_p, q3 = quartiles(parent)
    c1, med_c, c3 = quartiles(change)
    spread = max((q3 - q1) / abs(med_p) if med_p else 0.0,
                 (c3 - c1) / abs(med_c) if med_c else 0.0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs) \
            and abs(med_c - med_p) > q3 - q1 and sign * (med_c - med_p) < 0:
        return "gain"
    return "unchanged"


def compare(parent_doc: dict, change_doc: dict, bench: dict) -> tuple:
    """Rows ``(workload, metric, parent median, change median, verdict)``
    and whether the change is acceptable."""
    rows = []
    acceptable = True
    for name in sorted(set(parent_doc["workloads"])
                       & set(change_doc["workloads"])):
        parent_runs = parent_doc["workloads"][name]
        change_runs = change_doc["workloads"][name]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in parent_runs]
            c = [r["metrics"][key]["value"] for r in change_runs]
            verdict_ = compare_metric(p, c, metric["better"],
                                      metric["bound"])
            acceptable = acceptable and verdict_ != "regression"
            rows.append((name, key, statistics.median(p),
                         statistics.median(c), verdict_))
        fail_p = _failed_frac(parent_runs)
        fail_c = _failed_frac(change_runs)
        verdict_ = "more failures" if fail_c > fail_p else "unchanged"
        acceptable = acceptable and fail_c <= fail_p
        rows.append((name, "failed_frac", fail_p, fail_c, verdict_))
    return rows, acceptable


def _failed_frac(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    rows, acceptable = compare(parent, change, load_benchmark())
    print(f"{'workload':<13} {'metric':<12} {'parent':>12} {'change':>12}"
          f"  verdict")
    for name, metric, p, c, verdict_ in rows:
        print(f"{name:<13} {metric:<12} {p:>12.6g} {c:>12.6g}  {verdict_}")
    return 0 if acceptable else 1


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workload_required: bool):
        if workload_required:
            p.add_argument("--workload", required=True,
                           choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--size", choices=sorted(wl.SIZES),
                       default="full",
                       help="input size (smoke: the smallest inputs)")

    m = sub.add_parser("measure", help="one run of one workload")
    common(m, True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)

    r = sub.add_parser("run", help="every workload, several runs each")
    common(r, False)
    r.add_argument("--repeats", type=int, default=3)
    r.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json)")
    r.add_argument("--out", default=None, help="results JSON path")
    r.add_argument("--update-pins", action="store_true",
                   help="record this run's digests in pins.json for "
                        "--seed (after an intended model change)")

    t = sub.add_parser("trace", help="per-layer metrics of one workload")
    common(t, True)

    c = sub.add_parser("compare", help="parent vs change results")
    c.add_argument("parent")
    c.add_argument("change")

    i = sub.add_parser("_inprocess")
    common(i, True)
    i.add_argument("--work", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--report", required=True)
    i.add_argument("--traced", type=int, choices=(0, 1), default=0)
    return parser


def _terminate(signum, frame) -> None:
    # unwinds through the harness, so every child is killed and reaped
    # and the run's work directory removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    handler = {"measure": cmd_measure, "run": cmd_run, "trace": cmd_trace,
               "compare": cmd_compare, "_inprocess": cmd_inprocess}
    try:
        return handler[args.command](args)
    except BenchError as exc:
        _say(f"bench.py: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
