"""Section VI overheads — level shifters and ST2 storage.

Paper numbers: level shifters < 0.68 % of the 815 mm^2 chip, ~0.6 W
static, ~470 uW worst-case dynamic, costing ~0.5 % of the savings
(18.5 % net system saving); storage 448 B CRF/SM (~35 kB chip) plus
~15 kB of DFFs — ~50 kB, 0.09 % of on-chip SRAM.
"""

import numpy as np

from _bench_utils import save_artifact
from repro.analysis.ascii_charts import table
from repro.st2.architecture import evaluate_run
from repro.st2.overheads import overhead_report


def _adder_rate(evaluations):
    """Average chip-wide adder ops/s across the suite."""
    rates = []
    for e in evaluations:
        # reconstruct ops/s from the kernel's activity counts
        rates.append(e.speculation.n_ops
                     / max(e.timing_baseline.duration_s(), 1e-9))
    return float(np.mean(rates))


def test_overheads(benchmark, suite_runs, power_model, adder_model,
                   artifact_dir):
    report = benchmark.pedantic(overhead_report, rounds=1, iterations=1)

    # absolute joules and durations: the runner payload carries only
    # normalised stacks, so evaluate the session's traces directly
    evaluations = [evaluate_run(run, model=power_model,
                                adder_model=adder_model)
                   for run in suite_runs.values()]
    rate = _adder_rate(evaluations)
    avg_power = float(np.mean(
        [e.energy.baseline.system_j
         / e.timing_baseline.duration_s()
         for e in evaluations]))
    dyn_w = report.shifter_dynamic_w(rate)
    penalty = report.savings_penalty(avg_power, rate)

    rows = [
        ("level shifters per chip", f"{report.n_level_shifters:,}"),
        ("shifter area", f"{report.shifter_area_mm2:.1f} mm^2 "
         f"({report.shifter_area_fraction:.2%} of chip; paper <0.68%)"),
        ("shifter static power", f"{report.shifter_static_w:.2f} W "
         "(paper ~0.6 W)"),
        ("shifter dynamic power", f"{dyn_w * 1e6:.0f} uW worst-case "
         "(paper ~470 uW)"),
        ("savings penalty", f"{penalty:.2%} (paper ~0.5%)"),
        ("CRF per SM", f"{report.crf_bytes_per_sm} B (paper 448 B)"),
        ("CRF per chip", f"{report.crf_bytes_chip / 1024:.0f} kB "
         "(paper ~35 kB)"),
        ("state DFFs per chip", f"{report.dff_bytes_chip / 1024:.0f} kB "
         "(paper ~15 kB)"),
        ("total ST2 storage", f"{report.total_storage_bytes / 1024:.0f} "
         "kB (paper ~50 kB)"),
        ("fraction of on-chip SRAM", f"{report.storage_fraction:.3%} "
         "(paper 0.09%)"),
    ]
    txt = table("ST2 GPU overheads", ["overhead", "value"], rows)
    save_artifact(artifact_dir, "overheads.txt", txt)

    assert report.crf_bytes_per_sm == 448
    assert 34_000 <= report.crf_bytes_chip <= 36_000
    assert 48_000 <= report.total_storage_bytes <= 52_000
    assert report.storage_fraction < 0.002
    assert report.shifter_area_fraction < 0.012
    assert report.shifter_static_w < 1.5
    assert penalty < 0.02
