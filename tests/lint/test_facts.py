"""Static carry facts (repro.lint.facts) and their consumption by the
evaluation engine's static-peek overlay — including the end-to-end
soundness check against ground-truth trace carries on a real suite
kernel.
"""

import numpy as np
import pytest

from repro.core.batch import (build_pack, evaluate_trace_batch,
                              predict_trace_batch)
from repro.core.predictors import trace_n_predictions, trace_static_peek
from repro.core.speculation import PREV, ST2_DESIGN
from repro.kernels.suite import run_kernel
from repro.lint.absint import AdderSite, FunctionSummary
from repro.lint.domains import AbsVal, Interval, KnownBits
from repro.lint.facts import (N_BOUNDARIES, facts_for_kernel,
                              facts_to_json, function_facts,
                              site_carries, site_label)
from tests.core.reference_speculation import columns, packed

SCALE = 0.25


def site(kind, a, b, lineno=10, scopes=()):
    return AdderSite(kind=kind, lineno=lineno, scopes=scopes,
                     op_a=a, op_b=b, visits=1)


def iv(lo, hi, bits=KnownBits()):
    return AbsVal(Interval(lo, hi), bits)


class TestSiteCarries:
    def test_interval_rule_carry_zero(self):
        c = site_carries(site("iadd", iv(0, 100), iv(0, 100)))
        assert c == {0: 0, 1: 0, 2: 0}

    def test_interval_rule_carry_one(self):
        c = site_carries(site("iadd", iv(200, 255), iv(100, 255)))
        assert c == {0: 1, 1: 0, 2: 0}

    def test_isub_const_operands_exact(self):
        # 5 - 0 records 5 + ~0 + 1 = 5 + 2**32: every boundary carries
        c = site_carries(site("isub", iv(5, 5), iv(0, 0)))
        assert c == {0: 1, 1: 1, 2: 1}

    def test_ripple_rule_low_byte_zero(self):
        # operands with a known-zero low byte (e.g. both shifted left
        # by 8): interval is too wide, but bits pin boundary 0
        low_zero = KnownBits(0xFF, 0)
        a = iv(0, 2**32 - 1, low_zero)
        c = site_carries(site("iadd", a, a))
        assert c == {0: 0}

    def test_possible_negative_is_ineligible(self):
        assert site_carries(site("iadd", iv(-1, 5), iv(0, 5))) is None

    def test_unbounded_is_ineligible(self):
        assert site_carries(site("iadd", iv(0, None), iv(0, 5))) is None

    def test_unmodeled_kind_is_ineligible(self):
        assert site_carries(site("imul", iv(0, 5), iv(0, 5))) is None


class TestSiteLabel:
    def test_loop_inc_tag_composes_with_scopes(self):
        s = site("loop-inc", iv(0, 1), iv(1, 1), lineno=7,
                 scopes=("s",))
        assert site_label("fn", s) == "fn:7#s|loop-inc"
        bare = site("loop-inc", iv(0, 1), iv(1, 1), lineno=7)
        assert site_label("fn", bare) == "fn:7#loop-inc"


class TestMerging:
    def summary(self, sites):
        return FunctionSummary(name="fn", path="<t>", lineno=1,
                               adder_sites=sites)

    def test_same_label_must_agree(self):
        zero = site("iadd", iv(0, 100), iv(0, 100))
        one = site("iadd", iv(200, 255), iv(100, 255))
        facts = function_facts(self.summary([zero, one]))
        # boundary 0 disagrees (0 vs 1); boundaries 1, 2 agree on 0
        assert facts["fn:10"].carries == {1: 0, 2: 0}
        assert facts["fn:10"].sites == 2

    def test_ineligible_site_poisons_label(self):
        good = site("iadd", iv(0, 100), iv(0, 100))
        bad = site("iadd", iv(0, None), iv(0, 100))
        assert function_facts(self.summary([good, bad])) == {}

    def test_bailed_summary_has_no_facts(self):
        s = FunctionSummary(name="fn", path="<t>", lineno=1,
                            bailed=True, reason="x")
        assert function_facts(s) == {}

    def test_json_round_trip_shape(self):
        facts = function_facts(self.summary(
            [site("iadd", iv(0, 100), iv(0, 100))]))
        js = facts_to_json(facts)
        assert js == {"fn:10": {"width": 32,
                                "carries": {"0": 0, "1": 0, "2": 0},
                                "sites": 1, "line": 10}}


class TestSuiteFacts:
    def test_qrng_dimension_loop_is_proved(self):
        # for dim in k.range(QRNG_DIMENSIONS) with QRNG_DIMENSIONS = 3:
        # the latch adds 1 to dim in [0, 2] — every boundary carries 0
        facts = facts_for_kernel("qrng_K1")
        incs = {lbl: f for lbl, f in facts.items()
                if lbl.endswith("loop-inc")}
        assert incs, "no loop-inc fact exported for qrng_K1"
        assert any(f.carries == {j: 0 for j in range(N_BOUNDARIES)}
                   for f in incs.values())

    def test_unknown_kernel_yields_empty(self):
        assert facts_for_kernel("nonexistent_K9") == {}


@pytest.fixture(scope="module")
def qrng_run():
    return run_kernel("qrng_K1", scale=SCALE)


class TestStaticPeekSoundness:
    """Acceptance: facts match ground truth bit-for-bit on real traces,
    and static resolution never increases mispredictions."""

    def test_facts_cover_trace_rows(self, qrng_run):
        facts = facts_for_kernel("qrng_K1")
        known, _ = trace_static_peek(qrng_run.trace, facts)
        assert known.sum() > 0

    def test_static_values_equal_true_carries(self, qrng_run):
        facts = facts_for_kernel("qrng_K1")
        known, value = trace_static_peek(qrng_run.trace, facts)
        true = columns(build_pack(qrng_run.trace).carries)
        assert np.array_equal(value[known], true[known])

    def test_dict_facts_match_object_facts(self, qrng_run):
        facts = facts_for_kernel("qrng_K1")
        k1, v1 = trace_static_peek(qrng_run.trace, facts)
        k2, v2 = trace_static_peek(qrng_run.trace,
                                   facts_to_json(facts))
        assert np.array_equal(k1, k2) and np.array_equal(v1, v2)

    def test_predictions_bit_identical_where_dynamic_agrees(self,
                                                            qrng_run):
        # overlaying true carries can only flip wrong bits right
        facts = facts_for_kernel("qrng_K1")
        trace = qrng_run.trace
        pack = build_pack(trace)
        base = predict_trace_batch(trace, ST2_DESIGN, pack)
        base_bits = columns(base.bits)
        sk, sv = trace_static_peek(trace, facts)
        static = np.where(sk, sv, base_bits)
        true = columns(pack.carries)
        assert np.array_equal(static[~sk], base_bits[~sk])
        assert np.array_equal(static[sk], true[sk])

    def test_misprediction_rate_never_increases(self, qrng_run):
        facts = facts_for_kernel("qrng_K1")
        trace = qrng_run.trace
        pack = build_pack(trace)
        dyn_pred = predict_trace_batch(trace, ST2_DESIGN, pack)
        sk, sv = trace_static_peek(trace, facts)
        static, _, _ = evaluate_trace_batch(
            pack, packed(np.where(sk, sv, columns(dyn_pred.bits))))
        dyn, _, _ = evaluate_trace_batch(pack, dyn_pred.bits)
        assert static.mean() <= dyn.mean()

    def test_speculation_events_reduced_vs_prev(self, qrng_run):
        # Prev has no runtime Peek, so every statically pinned slice
        # is a strict dynamic-event saving
        facts = facts_for_kernel("qrng_K1")
        trace = qrng_run.trace
        valid = (np.arange(7)[None, :]
                 < trace_n_predictions(trace)[:, None])
        base = predict_trace_batch(trace, PREV, build_pack(trace))
        sk, _ = trace_static_peek(trace, facts)
        base_known = columns(base.peek_known).astype(bool)
        events_base = (valid & ~base_known).sum()
        events_static = (valid & ~(base_known | sk)).sum()
        assert events_static < events_base

    def test_ablation_row_is_non_negative(self, qrng_run):
        from repro.runner.units import evaluation_payload
        facts = facts_for_kernel("qrng_K1")
        row = evaluation_payload(qrng_run, ST2_DESIGN,
                                 facts=facts)["metrics"]["static_peek"]
        assert row["fact_labels"] == len(facts)
        assert row["static_bits"] > 0
        assert row["events_reduced"] >= 0
        assert row["misprediction_rate_static"] <= \
            row["misprediction_rate_base"]
