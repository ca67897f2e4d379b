"""Runs that name no trace store read their traces from the
process-wide scratch store: the kernel-run memo stays untouched, and
the scratch directory is gone when the process exits."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import suite as kernel_suite
from repro.runner import RunOptions, build_units, resolve_configs, run_units
from repro.runner.pool import INLINE_MAX_UNITS
from repro.runner.units import execute_unit, unit_trace_key
from repro.sim.trace_store import scratch_store

KERNELS = ["qrng_K2", "sortNets_K2"]
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def empty_memo():
    """Start from an empty kernel-run memo; restore it afterwards."""
    saved = dict(kernel_suite._run_cache)
    kernel_suite.clear_cache()
    yield kernel_suite._run_cache
    kernel_suite._run_cache.update(saved)


def in_scratch(units) -> bool:
    return all(scratch_store().has(unit_trace_key(u)) for u in units)


class TestNoMemo:
    """Each test uses its own seed, so its traces are captured cold."""

    def test_inline_run_units(self, empty_memo):
        units = build_units(KERNELS, scale=0.1, seed=11, aux=False)
        assert not in_scratch(units)
        run_units(units, RunOptions(workers=1, use_cache=False))
        assert empty_memo == {}
        assert in_scratch(units)

    def test_pooled_run_units(self, empty_memo, monkeypatch):
        from repro.runner import pool

        started = []
        real = pool._pool_context
        monkeypatch.setattr(pool, "_pool_context",
                            lambda: started.append(True) or real())
        units = build_units(KERNELS, configs=resolve_configs("ladder"),
                            scale=0.1, seed=12, aux=False)
        assert len(units) > INLINE_MAX_UNITS
        assert not in_scratch(units)
        run_units(units, RunOptions(workers=2, use_cache=False))
        assert started, "the run never started a pool"
        assert empty_memo == {}
        assert in_scratch(units)

    def test_execute_unit(self, empty_memo):
        (spec,) = build_units(["qrng_K2"], scale=0.1, seed=13, aux=False)
        assert not in_scratch([spec])
        cold = execute_unit(spec)
        assert empty_memo == {}
        assert in_scratch([spec])
        assert execute_unit(spec).trace_cache_hit
        assert cold.trace_rows > 0


def run_module(tmp_path, module, *argv):
    """Run ``python -m module argv`` with ``TMPDIR`` pointed at an
    empty directory; returns that directory."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return tmpdir


class TestNoLeftovers:
    def test_st2_run(self, tmp_path):
        out = tmp_path / "manifest.jsonl"
        tmpdir = run_module(
            tmp_path, "repro.runner", "--kernels", ",".join(KERNELS),
            "--workers", "2", "--no-cache", "--quiet", "--out", str(out))
        assert sorted(tmpdir.iterdir()) == []
        header = json.loads(out.read_text().splitlines()[0])
        assert header["traces_captured"] == len(KERNELS)
        assert "trace_store" not in header

    def test_st2_sweep_run(self, tmp_path):
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "name": "scratch-tiny",
            "kernels": KERNELS,
            "axes": {"mechanism": ["static1", "operand"]},
            "scale": 0.25, "seed": 0, "aux": False}))
        out = tmp_path / "sweep.json"
        tmpdir = run_module(
            tmp_path, "repro.sweep", "run", str(spec), "--workers", "2",
            "--no-cache", "--quiet", "--out", str(out))
        assert sorted(tmpdir.iterdir()) == []
        assert json.loads(out.read_text())["executed_units"] > 0
