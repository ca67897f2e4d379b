#!/usr/bin/env python
"""Regenerate ``BENCH_pipeline.json`` from a fresh pinned-grid run.

The baseline pins the deterministic 4-kernel × 2-config grid the
``obs-smoke`` CI job replays (``--no-cache`` + a fresh trace store, so
every functional counter is machine-independent).  This script:

1. runs the pinned grid into a temporary trace store / manifest,
2. seeds a baseline from the measured metrics
   (:func:`repro.obs.metrics.baseline_from_metrics` — counters pinned
   at 5 % relative tolerance, runner timers bounded at 25× measured),
3. tightens the evaluation-stage bounds into a real perf gate:
   ``timers.runner.stage.eval.total_s`` and ``meta.stage_eval_s`` get
   a ``max`` of ``--eval-factor`` × measured (default 2.0 — a >2×
   eval-stage slowdown fails ``st2-stats check``),
4. self-checks against the previous baseline: every counter the old
   file pinned must come out **identical** (regeneration must not move
   a single functional counter; if one moved, that's a bug, not
   drift).  A deliberate counter change is regenerated with ``--out``
   pointing at a fresh path, reviewed, then moved into place.

Usage::

    python benchmarks/regen_pipeline_baseline.py            # rewrite
    python benchmarks/regen_pipeline_baseline.py --dry-run  # verify only
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.obs.metrics import (baseline_from_metrics, load_baseline,
                               lookup_metric, metrics_path_for,
                               read_metrics)
from repro.runner import cli as runner_cli

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_pipeline.json"

GRID_KERNELS = "qrng_K1,qrng_K2,sortNets_K2,pathfinder"
GRID_CONFIGS = "st2,prev"
GRID_SCALE = "0.25"
GRID_SEED = "0"
GRID_WORKERS = "2"

#: evaluation-stage refs promoted from machine-tolerant (25×) to perf
#: gate (``--eval-factor`` ×) bounds
EVAL_REFS = ("timers.runner.stage.eval.total_s", "meta.stage_eval_s")


def run_pinned_grid(workdir: Path) -> dict:
    """Run the pinned grid and return its metrics file."""
    manifest = workdir / "bench-manifest.jsonl"
    rc = runner_cli.main([
        "--kernels", GRID_KERNELS, "--configs", GRID_CONFIGS,
        "--scale", GRID_SCALE, "--seed", GRID_SEED,
        "--workers", GRID_WORKERS, "--no-cache", "--no-aux",
        "--trace-store", str(workdir / "traces"),
        "--out", str(manifest), "--quiet",
    ])
    if rc != 0:
        raise SystemExit(f"pinned grid run failed with exit code {rc}")
    return read_metrics(metrics_path_for(manifest))


def build_baseline(metrics: dict, eval_factor: float) -> dict:
    description = (
        "4-kernel x 2-config pipeline baseline: st2-run "
        f"--kernels {GRID_KERNELS} --configs {GRID_CONFIGS} "
        f"--scale {GRID_SCALE} --seed {GRID_SEED} "
        "--no-aux --no-cache --trace-store <fresh>; regenerate with "
        "benchmarks/regen_pipeline_baseline.py")
    payload = baseline_from_metrics(metrics, rel_tol=0.05,
                                    time_factor=25.0,
                                    description=description)
    entries = [e for e in payload["metrics"]
               if e["metric"] not in EVAL_REFS]
    for ref in EVAL_REFS:
        measured = lookup_metric(metrics, ref)
        entries.append({"metric": ref,
                        "max": round(measured * eval_factor, 3)})
    payload["metrics"] = sorted(entries, key=lambda e: e["metric"])
    return payload


def check_counters_unchanged(new: dict, old: dict) -> list:
    """Every counter the old baseline pinned must be pinned at the
    same value in the new one."""
    pinned = {e["metric"]: e for e in new["metrics"]}
    problems = []
    for entry in old["metrics"]:
        ref = entry["metric"]
        if not ref.startswith("counters.") or "value" not in entry:
            continue
        fresh = pinned.get(ref)
        if fresh is None:
            problems.append(f"{ref}: pinned before, gone now")
        elif fresh.get("value") != entry["value"]:
            problems.append(f"{ref}: {entry['value']} -> "
                            f"{fresh.get('value')}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate BENCH_pipeline.json")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="baseline file to write "
                             f"(default {DEFAULT_OUT})")
    parser.add_argument("--eval-factor", type=float, default=2.0,
                        help="eval-stage max = factor x measured "
                             "(default 2.0)")
    parser.add_argument("--dry-run", action="store_true",
                        help="run + self-check but do not write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-regen-") as tmp:
        metrics = run_pinned_grid(Path(tmp))
    payload = build_baseline(metrics, args.eval_factor)

    if args.out.exists():
        problems = check_counters_unchanged(payload,
                                            load_baseline(args.out))
        if problems:
            print("regen_pipeline_baseline: pinned counters moved:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"self-check ok: every counter pinned in {args.out} "
              "is unchanged")

    eval_s = lookup_metric(metrics, "meta.stage_eval_s")
    print(f"measured stage_eval_s = {eval_s:.3f}s "
          f"-> gate at {eval_s * args.eval_factor:.3f}s")
    if args.dry_run:
        print("dry run: baseline not written")
        return 0
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(payload['metrics'])} pinned metric(s) "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
