"""Spatio-temporal value-correlation study (paper Section III).

Two artefacts come from here:

* **Figure 2** — the evolution of the values produced by each hot-loop
  addition PC over logical time, showing that values at the *same* PC
  are of similar magnitude while values across PCs differ wildly.
* **Figure 3** — the per-kernel fraction of 8-bit-slice carry-ins that
  match the predecessor under three history keys: previous op of the
  same thread regardless of PC (``Prev+Gtid``, ~50 % in the paper),
  previous op of the same thread at the same PC (``Prev+FullPC+Gtid``,
  ~83 %), and previous op at the same PC in the same warp lane across
  all threads (``Prev+FullPC+Ltid``, ~89 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.core.batch import build_pack, carry_match_rate_batch
from repro.core.speculation import FIG3_CONFIGS


@dataclass
class PcValueSeries:
    """Logical-time value series of one addition PC (Figure 2)."""

    pc: int
    label: str
    times: np.ndarray       # logical time = global trace row index
    values: np.ndarray      # the additions' result values
    chain_lengths: np.ndarray

    @property
    def magnitude_band(self) -> tuple:
        """(p10, p90) of |value| — the 'similar magnitude' band."""
        mags = np.abs(self.values)
        return float(np.percentile(mags, 10)), float(np.percentile(mags, 90))


def value_evolution(trace, max_pcs: int = 12,
                    max_points_per_pc: int = 4000) -> list:
    """Per-PC value series in logical time (the Figure 2 study).

    PCs are ordered by dynamic execution count; the busiest ``max_pcs``
    are returned, which for a hot-loop kernel are exactly the loop-body
    additions the paper annotates PC1..PC7.
    """
    series = []
    pcs, counts = np.unique(trace.pc, return_counts=True)
    order = np.argsort(-counts)
    for pc in pcs[order][:max_pcs]:
        rows = np.nonzero(trace.pc == pc)[0][:max_points_per_pc]
        sub = trace.select(rows)
        widths = np.unique(sub.width)
        chains = np.zeros(len(rows), dtype=np.int64)
        for w in widths:
            sel = sub.width == w
            chains[sel] = bitops.carry_chain_length(
                sub.op_a[sel], sub.op_b[sel], int(w), sub.cin[sel])
        label = (trace.pc_labels[pc] if pc < len(trace.pc_labels)
                 else f"pc{pc}")
        series.append(PcValueSeries(pc=int(pc), label=label, times=rows,
                                    values=sub.value,
                                    chain_lengths=chains))
    return series


@dataclass
class CorrelationSummary:
    """Figure 3 numbers for one kernel."""

    kernel: str
    match_rates: dict       # config name -> match fraction

    def rate(self, name: str) -> float:
        return self.match_rates[name]


def slice_carry_correlation(trace, kernel: str = "",
                            configs=FIG3_CONFIGS,
                            pack=None) -> CorrelationSummary:
    """Carry-in match rates under the three Figure 3 history keys.

    ``pack`` is the trace's :class:`~repro.core.batch.TracePack` when
    the caller already holds one (built once here otherwise)."""
    if pack is None:
        pack = build_pack(trace)
    rates = {cfg.name: carry_match_rate_batch(trace, cfg, pack)
             for cfg in configs}
    return CorrelationSummary(kernel=kernel, match_rates=rates)


def intra_pc_value_spread(trace) -> float:
    """Median per-PC coefficient of variation of |result| — a scalar
    summary of 'values at the same PC have similar magnitude'."""
    spreads = []
    for pc in np.unique(trace.pc):
        vals = np.abs(trace.value[trace.pc == pc])
        if len(vals) < 8:
            continue
        mean = vals.mean()
        if mean > 0:
            spreads.append(vals.std() / mean)
    return float(np.median(spreads)) if spreads else 0.0


def inter_pc_value_spread(trace) -> float:
    """Coefficient of variation of |result| across *all* PCs mixed —
    contrast with :func:`intra_pc_value_spread` (Section III's claim is
    inter >> intra)."""
    vals = np.abs(trace.value)
    if len(vals) == 0 or vals.mean() == 0:
        return 0.0
    return float(vals.std() / vals.mean())
