"""Oracle semantics: agreement on healthy kernels, detection of
injected bugs, and the big-int adder reference itself."""

import numpy as np
import pytest

from repro.fuzz.gen import generate_kernel
from repro.fuzz.harness import bundle_for, execute
from repro.fuzz.oracles import (check_kernel, check_static_facts,
                                facts_as_json, reference_outcome,
                                sample_rows, KernelVerdict)
from repro.runner.units import ModelBundle, resolve_configs

CONFIGS = resolve_configs("st2,prev")


@pytest.fixture(scope="module")
def models():
    return ModelBundle()


@pytest.fixture(scope="module")
def healthy(tmp_path_factory):
    """One materialized generated kernel plus its unsanitized run."""
    d = tmp_path_factory.mktemp("healthy")
    kernel = generate_kernel(21, 0)
    bundle = bundle_for(kernel, str(d))
    return bundle, execute(bundle, sanitize=False)


class TestAdderReference:
    def test_exact_add_and_carries(self):
        ref = reference_outcome(0xFF, 0x01, 0, 32, [0, 0, 0])
        assert ref["result"] == 0x100
        # slice 0 produces a carry the predictions missed
        assert ref["mispredicted"] is True
        assert ref["wrong_bits"] >= 1

    def test_correct_predictions_are_clean(self):
        a, b = 0x12345678, 0x0F0F0F0F
        bounds = [(lo, lo + 8) for lo in range(0, 32, 8)]
        carry, pred = 0, []
        for lo, hi in bounds[:-1]:
            sa = (a >> lo) & 0xFF
            sb = (b >> lo) & 0xFF
            carry = (sa + sb + carry) >> 8
            pred.append(carry)
        ref = reference_outcome(a, b, 0, 32, pred)
        assert ref["mispredicted"] is False
        assert ref["recomputed"] == 0
        assert ref["wrong_bits"] == 0
        assert ref["result"] == (a + b) & 0xFFFFFFFF

    def test_agrees_with_core_adder_on_random_rows(self):
        from repro.core.adder import ST2Adder
        from repro.core.slices import geometry_for

        rng = np.random.default_rng(3)
        geo = geometry_for(32)
        for _ in range(200):
            a = int(rng.integers(0, 1 << 32))
            b = int(rng.integers(0, 1 << 32))
            cin = int(rng.integers(0, 2))
            bits = rng.integers(0, 2, size=geo.n_predictions,
                                dtype=np.uint8)
            ref = reference_outcome(a, b, cin, 32, bits.tolist())
            out = ST2Adder(geo).add(
                np.asarray([a], dtype=np.uint64),
                np.asarray([b], dtype=np.uint64),
                bits.reshape(1, -1),
                cin=np.asarray([cin], dtype=np.uint8))
            assert int(out.result[0]) == ref["result"]
            assert bool(out.mispredicted[0]) == ref["mispredicted"]
            assert int(out.recomputed_slices[0]) == ref["recomputed"]

    def test_sample_rows_deterministic_and_bounded(self):
        rows = sample_rows(10_000, 128, seed=5)
        again = sample_rows(10_000, 128, seed=5)
        assert np.array_equal(rows, again)
        assert len(rows) == 128
        assert len(np.unique(rows)) == 128
        assert np.array_equal(sample_rows(50, 128, seed=5),
                              np.arange(50))


class TestHealthyKernel:
    def test_all_oracles_pass(self, healthy, models, tmp_path):
        bundle, _ = healthy
        verdict = check_kernel(bundle, CONFIGS, models=models)
        assert verdict.ok, [f.message for f in verdict.failures]
        assert verdict.checks.get("bounds", 0) >= 1
        assert verdict.checks.get("adder_rows", 0) > 0
        assert verdict.checks.get("sanitizer") == 1


class TestInjectedBugs:
    def test_contradicted_fact_is_reported(self, healthy, models):
        """A fact table claiming a wrong carry bit for a real label
        must be called out as a soundness bug."""
        from repro.lint.facts import module_facts_from_source

        bundle, run = healthy
        trace = run.trace
        facts = module_facts_from_source(bundle.source, bundle.path)
        facts_json = facts_as_json(facts)
        # poison: claim carry 1 at every boundary of a hot 32-bit
        # label (deterministic pick — ties must not depend on string
        # hash order, and the width must match the poisoned claim)
        labels = [trace.pc_labels[int(p)] for p in trace.pc]
        target = min(lab for lab, w in zip(labels, trace.width)
                     if int(w) == 32)
        poisoned = dict(facts_json)
        poisoned[target] = {"width": 32,
                            "carries": {"0": 1, "1": 1, "2": 1},
                            "sites": 1, "line": 1}
        verdict = KernelVerdict(name="poisoned")
        from repro.lint.absint import analyze_source
        summaries = analyze_source(bundle.source, bundle.path)
        check_static_facts(run, poisoned, poisoned, summaries, verdict)
        assert any(f.oracle == "static" for f in verdict.failures), \
            "poisoned fact table was not detected"

    def test_bailed_function_claiming_facts_is_reported(self, healthy,
                                                        models):
        from repro.lint.absint import analyze_source

        bundle, run = healthy
        summaries = analyze_source(
            "def fuzz_kernel(k, ints, flts, iout, fout, n):\n"
            "    vals = [k.iadd(n, c) for c in (1, 2)]\n",
            bundle.path)
        assert summaries["fuzz_kernel"].bailed
        leaked = {"fuzz_kernel:2": {"width": 32, "carries": {"0": 0},
                                    "sites": 1, "line": 2}}
        verdict = KernelVerdict(name="leak")
        check_static_facts(run, leaked, leaked, summaries, verdict)
        assert any("bailed" in f.message for f in verdict.failures)
