"""Observability through the runner: scoping, worker accumulation,
metrics.json emission, and reconciliation against the manifest."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core.speculation import PREV, ST2_DESIGN
from repro.runner import RunOptions, build_units, run_units
from repro.sim.trace_store import TraceStore

KERNELS = ["qrng_K2", "sortNets_K2"]
CONFIGS = (ST2_DESIGN, PREV)


def two_stage(tmp_path, workers) -> RunOptions:
    # --no-cache + fresh store: every unit functionally executes
    # exactly once, making the functional counters deterministic
    return RunOptions(workers=workers, use_cache=False,
                      trace_store=TraceStore(tmp_path / "traces"))


@pytest.fixture(scope="module")
def units():
    return build_units(KERNELS, configs=CONFIGS, aux=False)


def run_with_obs(tmp_path, units, workers):
    opts = two_stage(tmp_path, workers)
    results = run_units(units, opts)
    return results, opts.obs.snapshot()


class TestRunnerObs:
    def test_invocation_registry_populated(self, tmp_path, units):
        _, snap = run_with_obs(tmp_path, units, workers=1)
        c = snap["counters"]
        assert c["runner.units"] == len(units)
        assert c["runner.units.executed"] == len(units)
        assert c["runner.traces.captured"] == len(KERNELS)
        assert c["sim.functional.trace_rows"] > 0
        assert c["core.predict.ops"] > 0
        assert c["sim.timing.warp_insts"] > 0
        assert c["core.adder.ops"] > 0
        t = snap["timers"]
        assert t["runner.unit"]["count"] == len(units)
        assert t["runner.stage.capture"]["count"] == 1
        assert t["runner.stage.eval"]["count"] == 1

    def test_serial_and_parallel_counters_identical(self, tmp_path,
                                                    units):
        """Worker snapshots must accumulate to exactly the serial
        counters — nothing lost or double-counted in the pool."""
        _, serial = run_with_obs(tmp_path / "s", units, workers=1)
        _, pooled = run_with_obs(tmp_path / "p", units, workers=2)
        functional = {k: v for k, v in serial["counters"].items()
                      if not k.startswith(("runner.", "trace_store.",
                                           "result_cache."))}
        assert functional
        for name, value in functional.items():
            assert pooled["counters"].get(name) == value, name

    def test_serial_and_parallel_timer_names_identical(self, tmp_path,
                                                       units):
        """Inline and pooled runs record the same timers, and each
        layer's span lands under the runner span that ran it."""
        _, serial = run_with_obs(tmp_path / "s", units, workers=1)
        _, pooled = run_with_obs(tmp_path / "p", units, workers=2)
        names = set(serial["timers"])
        assert names == set(pooled["timers"])
        assert {"runner.unit/core.predict", "runner.unit/core.evaluate",
                "runner.unit/sim.timing.pair",
                "runner.unit/trace_store.get",
                "runner.trace.capture/sim.functional.run",
                "runner.trace.capture/trace_store.put"} <= names
        assert not [name for name in names
                    if name.startswith(("core.", "sim.", "trace_store."))]

    def test_results_do_not_carry_transient_snapshots(self, tmp_path,
                                                      units):
        """The worker→parent 'obs' rider must be stripped before the
        result is cached or manifested."""
        results, _ = run_with_obs(tmp_path, units, workers=2)
        assert all("obs" not in r.data for r in results)

    def test_caller_supplied_registry_is_used(self, tmp_path, units):
        mine = obs.Obs()
        opts = two_stage(tmp_path, workers=1)
        opts.obs = mine
        run_units(units[:1], opts)
        assert opts.obs is mine
        assert mine.counter("runner.units") == 1


class TestModelBundleObs:
    def test_building_models_records_nothing(self):
        """The pool builds the models once in the parent (inline path)
        or once per worker (pooled path) inside the run's obs scope, so
        the two paths report the same metrics only if the build records
        nothing.  A fresh interpreter makes every model memo cold."""
        code = ("import sys\n"
                "from repro import obs\n"
                "from repro.runner.units import ModelBundle\n"
                "with obs.scoped() as reg:\n"
                "    ModelBundle().ensure()\n"
                "snap = reg.snapshot()\n"
                "sys.exit(0 if snap == {'counters': {}, 'timers': {}} "
                "else str(snap))\n")
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestMetricsEmission:
    def test_cli_writes_reconciling_metrics(self, tmp_path, capsys):
        """st2-run must drop metrics.json next to the manifest, with
        unit wall-time totals reconciling against the manifest rows."""
        from repro.runner.cli import main
        manifest = tmp_path / "st2_manifest.jsonl"
        assert main(["--kernels", ",".join(KERNELS),
                     "--configs", "st2,prev",
                     "--workers", "2", "--no-cache",
                     "--trace-store", str(tmp_path / "traces"),
                     "--out", str(manifest), "--quiet"]) == 0
        metrics = obs.read_metrics(obs.metrics_path_for(manifest))
        rows = [json.loads(line)
                for line in manifest.read_text().splitlines()]
        unit_walls = [r["wall_time_s"] for r in rows
                      if r.get("type") == "unit"]
        assert len(unit_walls) == len(KERNELS) * 2
        timer = metrics["timers"]["runner.unit.wall"]
        assert timer["count"] == len(unit_walls)
        assert timer["total_s"] == pytest.approx(sum(unit_walls),
                                                 rel=1e-6)
        assert metrics["meta"]["kernels"] == KERNELS


class TestOneRecord:
    def test_manifest_header_is_read_from_the_registry(self, tmp_path):
        """The manifest header's stage times and counts are the metrics
        file's span totals and counters, exactly: one record of the
        run, not two clocks that disagree."""
        from repro.runner.cli import main
        from repro.runner.manifest import read_manifest
        manifest = tmp_path / "obs-manifest.jsonl"
        assert main(["--kernels", "qrng_K1", "--configs", "st2,prev",
                     "--scale", "0.25", "--workers", "2", "--no-cache",
                     "--trace-store", str(tmp_path / "traces"),
                     "--out", str(manifest), "--quiet"]) == 0
        header, _ = read_manifest(manifest)
        metrics = obs.read_metrics(obs.metrics_path_for(manifest))
        timers, counters = metrics["timers"], metrics["counters"]
        for stage in ("init", "capture", "eval"):
            assert header[f"stage_{stage}_s"] \
                == metrics["meta"][f"stage_{stage}_s"] \
                == timers[f"runner.stage.{stage}"]["total_s"], stage
        assert header["traces_total"] \
            == counters["runner.traces.total"] == 1
        assert header["traces_captured"] \
            == counters["runner.traces.captured"] == 1
        assert header["trace_store_hits"] \
            == counters["runner.traces.warm"] == 0
        assert header["cache_misses"] \
            == counters["runner.units.executed"] == 2
        assert header["cache_hits"] == 0
        assert set(header) == {
            "manifest_version", "n_units", "kernels", "configs", "scale",
            "seed", "workers", "use_cache", "cache_dir", "code_version",
            "trace_store", "stage_capture_s", "stage_init_s",
            "stage_eval_s", "traces_total", "traces_captured",
            "trace_store_hits", "wall_time_s", "cache_hits",
            "cache_misses"}
