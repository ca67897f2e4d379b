"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures.  The
23-kernel runner pass, its traces, the calibrated power model and the
circuit-level adder characterisation are session-scoped: they are
exactly the shared inputs the paper's experiments reuse.  The runner
pass (``runner_results``) and the traces (``suite_runs``) share one
trace store, so each suite kernel is executed functionally once per
session.

``REPRO_BENCH_SCALE`` (default 1.0) scales workload sizes.  The
rendered figures and measured-vs-paper records go to a temporary
directory, so a bench run leaves the checkout clean; ``pytest
benchmarks --regen`` writes them to the committed ``benchmarks/out/``
instead.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
OUT_DIR = Path(__file__).parent / "out"


def pytest_addoption(parser):
    parser.addoption("--regen", action="store_true",
                     help="write bench artifacts to the committed "
                          "benchmarks/out/ (default: a temp dir)")


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def trace_store():
    """``REPRO_BENCH_TRACE_STORE=DIR`` keeps the session's traces in
    that memory-mapped store; by default they go to the process-wide
    scratch store, removed at exit."""
    from repro.sim.trace_store import TraceStore, scratch_store
    store_dir = os.environ.get("REPRO_BENCH_TRACE_STORE")
    return TraceStore(store_dir) if store_dir else scratch_store()


@pytest.fixture(scope="session")
def suite_runs(trace_store) -> dict:
    """Kernel name -> :class:`~repro.sim.trace_store.StoredRun`: the
    traces ``runner_results`` evaluates, read from the session store
    (and captured into it first when the runner served every unit from
    its result cache)."""
    from repro.runner import build_units
    from repro.runner.units import stored_run
    return {spec.kernel: stored_run(trace_store, spec)
            for spec in build_units("all", scale=BENCH_SCALE, seed=0)}


@pytest.fixture(scope="session")
def power_model():
    from repro.power.calibration import calibrated_model
    return calibrated_model()


@pytest.fixture(scope="session")
def adder_model():
    from repro.st2.architecture import default_adder_model
    return default_adder_model()


@pytest.fixture(scope="session")
def runner_results(trace_store) -> dict:
    """The 23-kernel ST2 evaluation driven through the parallel cached
    runner (``repro.runner``) over the session trace store — kernel
    name -> typed :class:`~repro.st2.results.RunResult`.

    ``REPRO_BENCH_WORKERS`` overrides the pool size (0 = auto);
    ``REPRO_BENCH_NO_CACHE=1`` bypasses the disk cache, forcing a
    fresh in-process computation of every unit.
    """
    from repro.runner import (RunOptions, build_units, default_workers,
                              run_suite_units)
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) \
        or default_workers()
    options = RunOptions(
        workers=workers,
        use_cache=not os.environ.get("REPRO_BENCH_NO_CACHE"),
        trace_store=trace_store)
    units = build_units("all", scale=BENCH_SCALE, seed=0)
    keyed = run_suite_units(units, options)
    return {kernel: result for (kernel, _cfg), result in keyed.items()}


@pytest.fixture(scope="session")
def artifact_dir(request, tmp_path_factory) -> Path:
    if not request.config.getoption("--regen"):
        return tmp_path_factory.mktemp("bench-out")
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def save_artifact(artifact_dir: Path, name: str, text: str) -> None:
    (artifact_dir / name).write_text(text + "\n")
    print("\n" + text)
