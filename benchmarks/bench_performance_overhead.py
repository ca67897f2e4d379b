"""Section VI performance claim — ST2's execution-time overhead.

Paper: within 0.36 % of the baseline on average; the worst kernel is
dwt2d_K1 at a still-small 3.5 %.
"""

import numpy as np

from _bench_utils import save_artifact
from repro.analysis.ascii_charts import hbar_chart


def _slowdowns(runner_results):
    return {name: r.slowdown for name, r in runner_results.items()}


def test_performance_overhead(benchmark, runner_results, artifact_dir):
    slows = benchmark.pedantic(_slowdowns, args=(runner_results,),
                               rounds=1, iterations=1)

    names = list(slows)
    values = [max(slows[n], 0.0) for n in names]
    txt = hbar_chart("ST2 execution-time overhead per kernel",
                     names, values, fmt="{:7.3%}")
    avg = float(np.mean(list(slows.values())))
    worst_name = max(slows, key=slows.get)
    txt += (f"\n\naverage slowdown: {avg:.3%}   (paper: 0.36%)"
            f"\nworst kernel: {worst_name} at {slows[worst_name]:.2%}"
            "   (paper: dwt2d_K1 at 3.5%)")
    save_artifact(artifact_dir, "performance_overhead.txt", txt)

    assert avg < 0.01, "average slowdown must be well below 1%"
    assert slows[worst_name] < 0.06, "worst case must stay small"
    # the worst kernel should be one of the high-misprediction,
    # ALU-bound ones the paper identifies
    assert runner_results[worst_name].misprediction_rate > 0.1
