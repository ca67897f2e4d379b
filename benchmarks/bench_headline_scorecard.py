"""The reproduction scorecard: every headline claim, one table.

The measurement and the grading live in :mod:`repro.st2.scorecard`.
Here the per-kernel inputs come from the parallel cached runner (the
``runner_results`` fixture); a one-kernel serial re-execution
cross-checks that the pooled numbers are identical to in-process ones.

This is the machine-checked version of EXPERIMENTS.md.  The same
measurement, at ``CLAIMS_SCALE``, is pinned value for value in
``BENCH_claims.json`` and gated by ``tests/test_claims.py``.
"""

from _bench_utils import save_artifact
from repro.st2.scorecard import grade, measure, render


def test_headline_scorecard(benchmark, runner_results, adder_model,
                            bench_scale, artifact_dir):
    measured = benchmark.pedantic(
        measure, args=(runner_results, adder_model),
        rounds=1, iterations=1)

    # parallel == serial: the pooled/cached unit for one kernel must be
    # numerically identical to a fresh in-process serial execution
    from repro.runner import build_units, execute_unit
    from repro.runner.units import results_equal
    probe = build_units(["qrng_K2"], scale=bench_scale, seed=0)[0]
    assert results_equal(execute_unit(probe),
                         runner_results["qrng_K2"]), \
        "runner result diverged from serial in-process evaluation"

    rows, failures = grade(measured)
    save_artifact(artifact_dir, "headline_scorecard.txt",
                  render(rows, failures))

    assert not failures, f"claims out of tolerance: {failures}"
