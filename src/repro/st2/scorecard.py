"""The reproduction scorecard: the paper's 18 headline claims, measured
from runner results and graded against the published numbers.

Each published number comes from the structured registry
(:mod:`repro.st2.paper_numbers`); its counterpart is measured from the
ST2-design units of one runner pass (metrics plus the ``aux``
VaLHALLA / Figure 3 measurements), the circuit characterisation and
the overhead arithmetic.  Every claim is graded one of:

* ``exact``    — deterministic arithmetic that must match to the digit;
* ``band``     — within the documented relative tolerance;
* ``band-abs`` — within the documented absolute tolerance;
* ``shape``    — the ordering/direction holds, magnitude differs (with
  the delta recorded in EXPERIMENTS.md).

``st2-report`` and the headline-scorecard bench print the graded
table (:func:`render`); ``tests/test_claims.py`` pins every value of
:func:`measure_claims` at :data:`CLAIMS_SCALE` in
``BENCH_claims.json``, and ``benchmarks/regen_claims_baseline.py``
rewrites those pins.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_charts import table
from repro.circuits.characterize import best_slice_width, slice_bitwidth_sweep
from repro.st2.overheads import overhead_report
from repro.st2.paper_numbers import value

#: claim key -> Figure 3 configuration name in ``aux["correlation"]``
CORR_KEYS = {
    "corr_prev_gtid": "Prev+Gtid",
    "corr_prev_fullpc_gtid": "Prev+FullPC+Gtid",
    "corr_prev_fullpc_ltid": "Prev+FullPC+Ltid",
}

#: workload scale of the pinned claims gate (``BENCH_claims.json``)
CLAIMS_SCALE = 0.25

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


def measure(runner_results, adder_model) -> dict:
    """Every claim measured from ``{kernel: RunResult}`` of the ST2
    design (with ``aux``) and the circuit-level ``adder_model``."""
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
    return measure(results, default_adder_model())


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


def render(rows, failures) -> str:
    """The graded rows of :func:`grade` as the scorecard table plus a
    tally line."""
    txt = table("reproduction scorecard (machine-checked EXPERIMENTS.md)",
                ["claim", "paper", "measured", "grade", "status"], rows)
    return txt + (f"\n\n{len(rows) - len(failures)}/{len(rows)} claims "
                  "within their documented tolerance bands")
