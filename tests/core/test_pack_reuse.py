"""One :class:`~repro.core.batch.TracePack` per trace: every in-process
study builds the pack once and scores all its configs on it, and the
slow reference builds none (it shares no code with the kernels)."""

import sys

import pytest

from repro.core import batch
from repro.core.correlation import slice_carry_correlation
from repro.core.predictors import run_speculation
from repro.core.speculation import (DESIGN_LADDER, PREV_PEEK, ST2_DESIGN,
                                    explore)
from repro.st2.ablations import contention_sweep, history_depth_sweep
from tests.conftest import random_trace
from tests.core import reference_speculation as ref_spec


@pytest.fixture
def pack_builds(monkeypatch):
    """Row counts of every ``build_pack`` call, wherever a module bound
    the name."""
    calls = []
    original = batch.build_pack

    def spy(trace):
        calls.append(len(trace))
        return original(trace)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith(("repro", "tests")) \
                and vars(module).get("build_pack") is original:
            monkeypatch.setattr(module, "build_pack", spy)
    return calls


@pytest.fixture
def trace(rng):
    return random_trace(rng, n=300)


@pytest.mark.parametrize("study", [
    lambda t: run_speculation(t, ST2_DESIGN),
    lambda t: explore(t, DESIGN_LADDER),
    history_depth_sweep,
    contention_sweep,
    slice_carry_correlation,
], ids=["run_speculation", "explore", "history_depth_sweep",
        "contention_sweep", "slice_carry_correlation"])
def test_one_pack_per_call(trace, pack_builds, study):
    study(trace)
    assert pack_builds == [len(trace)]


def test_held_pack_is_reused(trace, pack_builds):
    pack = batch.build_pack(trace)
    run_speculation(trace, ST2_DESIGN, pack)
    slice_carry_correlation(trace, pack=pack)
    assert pack_builds == [len(trace)]


def test_reference_builds_no_pack(trace, pack_builds):
    ref_spec.predict(trace, PREV_PEEK)
    assert pack_builds == []
