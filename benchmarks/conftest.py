"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures.  The
23-kernel traces, the calibrated power model and the circuit-level adder
characterisation are session-scoped: they are exactly the shared inputs
the paper's experiments reuse.

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
def suite_runs():
    from repro.kernels.suite import run_suite
    return run_suite(scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="session")
def power_model():
    from repro.power.calibration import calibrated_model
    return calibrated_model(seed=0)


@pytest.fixture(scope="session")
def adder_model():
    from repro.st2.architecture import default_adder_model
    return default_adder_model()


@pytest.fixture(scope="session")
def suite_evaluations(suite_runs, power_model, adder_model):
    from repro.st2.architecture import evaluate_run
    return {name: evaluate_run(run, model=power_model,
                               adder_model=adder_model)
            for name, run in suite_runs.items()}


@pytest.fixture(scope="session")
def runner_results() -> dict:
    """The 23-kernel ST2 evaluation driven through the parallel cached
    runner (``repro.runner``) — kernel name -> typed
    :class:`~repro.st2.results.RunResult`.

    ``REPRO_BENCH_WORKERS`` overrides the pool size (0 = auto);
    ``REPRO_BENCH_NO_CACHE=1`` bypasses the disk cache, forcing a
    fresh in-process computation of every unit;
    ``REPRO_BENCH_TRACE_STORE=DIR`` keeps the captured traces in that
    memory-mapped trace store instead of a temporary one.
    """
    from repro.runner import (RunOptions, build_units, default_workers,
                              run_suite_units)
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) \
        or default_workers()
    options = RunOptions(
        workers=workers,
        use_cache=not os.environ.get("REPRO_BENCH_NO_CACHE"))
    store_dir = os.environ.get("REPRO_BENCH_TRACE_STORE")
    if store_dir:
        from repro.sim.trace_store import TraceStore
        options.trace_store = TraceStore(store_dir)
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
