#!/usr/bin/env python
"""Regenerate ``BENCH_sweep.json`` from a fresh pinned sweep.

The baseline pins the deterministic sweep the ``sweep-smoke`` CI job
replays (``benchmarks/sweep_ci.json`` under ``--no-cache``, so every
functional counter — adder/predictor totals, expansion bookkeeping,
equivalence/domination prune decisions, frontier admissions — is
machine-independent).  This script:

1. runs the pinned spec through ``st2-sweep run`` into a temporary
   output/manifest pair,
2. seeds a baseline from the measured metrics
   (:func:`repro.obs.metrics.baseline_from_metrics` — counters pinned
   at 5 % relative tolerance, runner timers bounded at 25× measured),
3. self-checks against the previous baseline: when the pinned spec is
   unchanged (same ``sweep_digest`` in the old file's ``grid`` meta),
   every counter the old file pinned must come out **identical**.  The
   sweep's prune decisions are part of the pinned surface — if
   ``sweep.prune.units_skipped`` or ``sweep.frontier.admitted`` moved,
   the pruning logic changed behaviour, which is a bug to explain, not
   drift to absorb.  A changed digest means the spec itself was
   intentionally edited, so the counter self-check is skipped (the
   new counters define the new surface).

Usage::

    python benchmarks/regen_sweep_baseline.py            # rewrite
    python benchmarks/regen_sweep_baseline.py --dry-run  # verify only
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.obs.metrics import (baseline_from_metrics, load_baseline,
                               read_metrics)
from repro.sweep import cli as sweep_cli

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_sweep.json"
SPEC = REPO_ROOT / "benchmarks" / "sweep_ci.json"


def run_pinned_sweep(workdir: Path) -> dict:
    """Run the pinned sweep cold and return its metrics file."""
    out = workdir / "sweep.json"
    rc = sweep_cli.main([
        "run", str(SPEC), "--out", str(out), "--workers", "2",
        "--no-cache", "--quiet",
    ])
    if rc != 0:
        raise SystemExit(f"pinned sweep failed with exit code {rc}")
    result = json.loads(out.read_text())
    if not result["complete"]:
        raise SystemExit("pinned sweep did not complete")
    return read_metrics(workdir / "sweep.json.manifest.metrics.json")


def build_baseline(metrics: dict) -> dict:
    description = (
        "pinned design-space sweep baseline: st2-sweep run "
        "benchmarks/sweep_ci.json --workers 2 --no-cache (8-combo "
        "grid -> 4 equivalence classes over qrng_K1 x affineChain; "
        "the 4 dead-axis members are pruned as equivalent, and at "
        "2-unit waves no class is pruned by domination); counters "
        "pin the functional totals AND the prune/frontier "
        "decisions — regenerate with "
        "benchmarks/regen_sweep_baseline.py")
    return baseline_from_metrics(metrics, rel_tol=0.05,
                                 time_factor=25.0,
                                 description=description)


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
        description="regenerate BENCH_sweep.json from the pinned "
                    "sweep spec")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="baseline file to write "
                             f"(default {DEFAULT_OUT})")
    parser.add_argument("--dry-run", action="store_true",
                        help="run + self-check but do not write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        metrics = run_pinned_sweep(Path(tmp))
    payload = build_baseline(metrics)

    if args.out.exists():
        old = load_baseline(args.out)
        old_digest = old.get("grid", {}).get("sweep_digest")
        new_digest = payload.get("grid", {}).get("sweep_digest")
        if old_digest != new_digest:
            print(f"spec changed ({old_digest} -> {new_digest}): "
                  "counter self-check skipped, new counters define "
                  "the pinned surface")
        else:
            problems = check_counters_unchanged(payload, old)
            if problems:
                print("regen_sweep_baseline: pinned counters moved "
                      "(sweep determinism or pruning behaviour "
                      "changed?):", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            print(f"self-check ok: every counter pinned in "
                  f"{args.out} is unchanged")

    counters = metrics.get("counters", {})
    print(f"pinning {len(payload['metrics'])} metric(s); "
          f"{counters.get('sweep.units.executed', 0)} units executed, "
          f"{counters.get('sweep.prune.units_skipped', 0)} pruned "
          f"away, {counters.get('sweep.frontier.admitted', 0)} "
          "frontier admissions")
    if args.dry_run:
        print("dry run: baseline not written")
        return 0
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
