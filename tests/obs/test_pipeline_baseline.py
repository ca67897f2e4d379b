"""``BENCH_pipeline.json``'s pinned counters, reproduced in tier-1.

Runs the pinned grid exactly as ``benchmarks/regen_pipeline_baseline.py``
does (fresh trace store, no result cache, so every functional counter
is deterministic) and checks every pinned counter value exactly, plus
the meaning of the adder counter: one dynamic evaluation per unit.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs.metrics import load_baseline, metrics_path_for, read_metrics
from repro.runner import read_manifest
from repro.runner import cli as runner_cli

ROOT = Path(__file__).resolve().parents[2]


def _grid():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import regen_pipeline_baseline as regen
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return regen


def test_pinned_grid_reproduces_every_counter(tmp_path):
    regen = _grid()
    out = tmp_path / "grid.jsonl"
    assert runner_cli.main([
        "--kernels", regen.GRID_KERNELS, "--configs", regen.GRID_CONFIGS,
        "--scale", regen.GRID_SCALE, "--seed", regen.GRID_SEED,
        "--workers", "1", "--no-cache", "--no-aux",
        "--trace-store", str(tmp_path / "traces"),
        "--out", str(out), "--quiet"]) == 0
    counters = read_metrics(metrics_path_for(out))["counters"]
    _, units = read_manifest(out)

    pinned = {e["metric"][len("counters."):]: e["value"]
              for e in load_baseline(regen.DEFAULT_OUT)["metrics"]
              if e["metric"].startswith("counters.")}
    assert {k: counters.get(k) for k in pinned} == pinned
    assert counters["core.adder.mispredicts"] == sum(
        round(u["metrics"]["misprediction_rate"] * u["trace_rows"])
        for u in units)
    assert counters["core.adder.ops"] \
        == sum(u["trace_rows"] for u in units)
