"""The reproduction scorecard: every headline claim, one table.

Pulls each published number from the structured registry
(:mod:`repro.st2.paper_numbers`), measures its counterpart, and grades
the match:

* ``exact``  — deterministic arithmetic that must match to the digit;
* ``band``   — matched within the documented tolerance;
* ``shape``  — the ordering/direction holds, magnitude differs (with
  the delta recorded in EXPERIMENTS.md).

The per-kernel inputs come from the parallel cached runner
(:mod:`repro.runner`, the ``runner_results`` fixture) rather than an
in-process suite sweep; a one-kernel serial re-execution cross-checks
that the pooled numbers are identical to in-process ones.

This is the machine-checked version of EXPERIMENTS.md.  The same
measurement, at ``CLAIMS_SCALE``, is pinned value for value in
``BENCH_claims.json`` and gated by ``tests/test_claims.py``;
``benchmarks/regen_claims_baseline.py`` rewrites the pins.
"""

import numpy as np

from _bench_utils import save_artifact
from repro.analysis.ascii_charts import table
from repro.circuits.characterize import (best_slice_width,
                                         slice_bitwidth_sweep)
from repro.st2.overheads import overhead_report
from repro.st2.paper_numbers import value

CORR_KEYS = {
    "corr_prev_gtid": "Prev+Gtid",
    "corr_prev_fullpc_gtid": "Prev+FullPC+Gtid",
    "corr_prev_fullpc_ltid": "Prev+FullPC+Ltid",
}

#: workload scale of the pinned claims gate (``BENCH_claims.json``)
CLAIMS_SCALE = 0.25


def _measure(runner_results, adder_model):
    m = {}
    mets = [r.metrics for r in runner_results.values()]
    aux = [r.aux for r in runner_results.values()]
    # misprediction + savings + performance
    m["miss_st2"] = float(np.mean(
        [x.misprediction_rate for x in mets]))
    m["recompute_per_miss_avg"] = float(np.mean(
        [x.recomputed_per_misprediction for x in mets
         if x.misprediction_rate > 0]))
    m["avg_slowdown"] = float(np.mean([x.slowdown for x in mets]))
    m["worst_slowdown"] = max(x.slowdown for x in mets)
    m["system_energy_saving"] = float(np.mean(
        [x.system_saving for x in mets]))
    m["chip_energy_saving"] = float(np.mean(
        [x.chip_saving for x in mets]))
    m["alu_fpu_system_share"] = float(np.mean(
        [x.alu_fpu_share for x in mets]))
    # VaLHALLA comparison
    m["miss_valhalla"] = float(np.mean(
        [a["valhalla_misprediction_rate"] for a in aux]))
    m["st2_vs_valhalla_reduction"] = 1 - m["miss_st2"] \
        / m["miss_valhalla"]
    # correlation
    for out_key, rate_key in CORR_KEYS.items():
        m[out_key] = float(np.nanmean(
            [a["correlation"][rate_key] for a in aux]))
    # circuits
    points = slice_bitwidth_sweep()
    p8 = next(p for p in points if p.slice_width == 8)
    m["slice_width"] = best_slice_width(points)
    m["slice_vdd_fraction"] = p8.vdd_fraction
    m["adder_power_saving"] = adder_model.saving(
        m["miss_st2"], m["recompute_per_miss_avg"])
    # overheads (deterministic)
    rep = overhead_report()
    m["crf_bytes_per_sm"] = rep.crf_bytes_per_sm
    m["total_storage_kb"] = round(rep.total_storage_bytes / 1024)
    m["dff_bits_alu_adder"] = 14
    return m


def measure_claims(scale: float = CLAIMS_SCALE) -> dict:
    """Every headline claim measured from a fresh, uncached, serial
    runner pass over the 23-kernel suite at ``scale``."""
    from repro.runner import RunOptions, build_units, run_suite_units
    from repro.st2.architecture import default_adder_model

    units = build_units("all", scale=scale, seed=0)
    keyed = run_suite_units(units, RunOptions(workers=1, use_cache=False))
    results = {kernel: result for (kernel, _cfg), result in keyed.items()}
    return _measure(results, default_adder_model())


GRADING = (
    # key, grade, tolerance (relative unless 'abs')
    ("crf_bytes_per_sm", "exact", 0),
    ("total_storage_kb", "exact", 0),
    ("dff_bits_alu_adder", "exact", 0),
    ("slice_width", "exact", 0),
    ("slice_vdd_fraction", "band", 0.15),
    ("adder_power_saving", "band", 0.10),
    ("corr_prev_fullpc_gtid", "band", 0.10),
    ("corr_prev_fullpc_ltid", "band", 0.10),
    ("avg_slowdown", "band-abs", 0.005),
    ("worst_slowdown", "band-abs", 0.02),
    ("recompute_per_miss_avg", "band", 0.25),
    ("miss_st2", "shape", 0.60),
    ("miss_valhalla", "shape", 0.40),
    ("st2_vs_valhalla_reduction", "shape", 0.30),
    ("alu_fpu_system_share", "band", 0.15),
    ("system_energy_saving", "shape", 0.45),
    ("chip_energy_saving", "shape", 0.35),
    ("corr_prev_gtid", "shape", 0.80),
)


def grade(measured: dict) -> tuple:
    """``(table rows, failed claim keys)`` of ``measured`` against the
    paper's numbers and each claim's documented tolerance."""
    rows = []
    failures = []
    for key, kind, tol in GRADING:
        paper = value(key)
        got = measured[key]
        if kind == "exact":
            ok = got == paper
        elif kind == "band-abs":
            ok = abs(got - paper) <= tol
        else:   # relative band / shape
            ok = abs(got - paper) <= tol * abs(paper)
        rows.append((key, paper, f"{got:.4g}", kind,
                     "PASS" if ok else "FAIL"))
        if not ok:
            failures.append(key)
    return rows, failures


def test_headline_scorecard(benchmark, runner_results, adder_model,
                            bench_scale, artifact_dir):
    measured = benchmark.pedantic(
        _measure, args=(runner_results, adder_model),
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
    txt = table("reproduction scorecard (machine-checked EXPERIMENTS.md)",
                ["claim", "paper", "measured", "grade", "status"], rows)
    txt += (f"\n\n{len(rows) - len(failures)}/{len(rows)} claims within"
            " their documented tolerance bands")
    save_artifact(artifact_dir, "headline_scorecard.txt", txt)

    assert not failures, f"claims out of tolerance: {failures}"
