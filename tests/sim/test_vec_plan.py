"""The plan's ``prev`` history memo: keyed by every field the history
index reads, shared by configs that differ only in ``peek``, with the
trace's simultaneity groups computed once per plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import batch
from repro.core.batch import build_pack, predict_trace_batch
from repro.core.predictors import SpeculationConfig
from repro.core.speculation import DESIGN_LADDER
from repro.sim.vec.plan import TracePlan
from tests.conftest import random_trace


def plan_of(trace) -> TracePlan:
    """A plan of ``trace`` without timing (prediction never reads it)."""
    return TracePlan(n_rows=len(trace), n_insts=0,
                     pack=build_pack(trace), timing=None)


def fresh(trace, config):
    """``config``'s prediction from a plan that has seen nothing else."""
    plan = plan_of(trace)
    return predict_trace_batch(trace, config, plan.pack, plan.history)


def assert_same(a, b) -> None:
    for field in ("bits", "has_prev", "peek_known"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                      err_msg=field)


@pytest.fixture
def trace():
    # sm = gtid % 4: per-SM tables see different histories
    return random_trace(np.random.default_rng(5), n=600, n_pcs=8,
                        n_threads=64)


@pytest.fixture
def argsort_calls(monkeypatch):
    calls = []
    real = np.argsort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


class TestHistoryMemo:
    def test_sm_scoped_is_part_of_the_key(self, trace):
        shared = SpeculationConfig("shared", "prev", pc_index="mod",
                                   pc_bits=2)
        scoped = SpeculationConfig("scoped", "prev", pc_index="mod",
                                   pc_bits=2, sm_scoped=True)
        plan = plan_of(trace)
        first = predict_trace_batch(trace, shared, plan.pack, plan.history)
        second = predict_trace_batch(trace, scoped, plan.pack, plan.history)
        assert_same(first, fresh(trace, shared))
        assert_same(second, fresh(trace, scoped))
        # the two indexes really differ on this trace
        assert not np.array_equal(first.has_prev, second.has_prev)
        assert len(plan.history) == 2

    def test_peek_variants_sort_once(self, trace, argsort_calls):
        plain = SpeculationConfig("p", "prev", pc_index="mod", pc_bits=4)
        peek = SpeculationConfig("pp", "prev", pc_index="mod", pc_bits=4,
                                 peek=True)
        plan = plan_of(trace)
        got = [predict_trace_batch(trace, cfg, plan.pack, plan.history)
               for cfg in (plain, peek, plain)]
        assert len(argsort_calls) == 1
        assert len(plan.history) == 1
        argsort_calls.clear()
        assert_same(got[0], fresh(trace, plain))
        assert_same(got[1], fresh(trace, peek))
        assert_same(got[2], got[0])

    def test_memoised_predictions_are_read_only(self, trace):
        plan = plan_of(trace)
        cfg = SpeculationConfig("p", "prev")
        pred = predict_trace_batch(trace, cfg, plan.pack, plan.history)
        with pytest.raises(ValueError):
            pred.bits[0] = 1

    def test_groups_computed_once_per_plan(self, trace, monkeypatch):
        """Over the ladder's ``prev`` configs, ``trace_groups`` runs
        once per plan, and every prediction equals the unmemoised one."""
        configs = [c for c in DESIGN_LADDER if c.mechanism == "prev"]
        assert len(configs) > 1
        expect = [predict_trace_batch(trace, cfg, build_pack(trace))
                  for cfg in configs]
        calls = []
        real = batch.trace_groups

        def spy(t):
            calls.append(1)
            return real(t)

        monkeypatch.setattr(batch, "trace_groups", spy)
        for n_plans in (1, 2):
            plan = plan_of(trace)
            got = [predict_trace_batch(trace, cfg, plan.pack, plan.history)
                   for cfg in configs]
            assert len(calls) == n_plans
            for a, b in zip(got, expect):
                assert_same(a, b)
