"""Register-transfer-level model of the ST2 adder (Figure 4, complete).

Where :class:`repro.core.adder.ST2Adder` is the fast behavioural model
the studies use, this module is an *executable specification* of the
hardware protocol, clock edge by clock edge, with every register of the
paper's schematic explicit:

* per-slice **input registers** (operand slices + carry prediction),
* per-slice **output registers** (the sum kept or overwritten),
* per-slice **Cout DFF** (the carry-out observed in cycle 1),
* per-slice **State DFF** (``S[i]`` — "my carry-in is suspect"),
* the **error wires** ``E[i] = Cpred[i-1] XOR Cout[i-1]`` and their
  OR-chain into the State DFFs,
* the **stall wire** (any ``E`` fired → occupy a second cycle), and
* the final **carry-select resolution** that decides, per suspect
  slice, whether the cycle-1 or cycle-2 sum is the correct one.

It is a test reference, like ``tests/sim/reference_timing.py``: no
production path runs it.  ``test_st2_rtl.py`` and
``test_cross_model.py`` drive it clock by clock and cross-validate
every outcome against the behavioural model — the RTL-level proof that
one recompute cycle always suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import bitops
from repro.core.slices import AdderGeometry


def _slice_add(a_bits: int, b_bits: int, cin: int, width: int) -> tuple:
    """One slice's combinational adder: returns (sum, cout)."""
    total = a_bits + b_bits + cin
    return total & ((1 << width) - 1), total >> width


@dataclass
class SliceState:
    """Architectural state of one slice (the paper's DFFs)."""

    input_a: int = 0
    input_b: int = 0
    cpred: int = 0            # latched carry prediction (slice > 0)
    output: int = 0           # Output Register
    cout: int = 0             # Cout DFF (cycle-1 carry-out)
    cout_alt: int = 0         # cycle-2 carry-out (inverse carry case)
    output_alt: int = 0       # cycle-2 sum
    state: int = 0            # State DFF: S[i]


class ST2AdderRTL:
    """Clock-accurate ST2 adder. Drive with :meth:`start_op` then
    :meth:`clock` until :attr:`busy` clears; read :attr:`result`."""

    def __init__(self, geometry: AdderGeometry):
        self.geometry = geometry
        self.slices = [SliceState() for _ in range(geometry.n_slices)]
        self.cin = 0
        self.phase = 0            # 0 idle, 1 after cycle 1, 2 done
        self.errors: list = [0] * geometry.n_slices
        self.stall = 0            # the FU-busy signal to the scoreboard
        self.cycles_used = 0

    # -- driving -----------------------------------------------------------

    def start_op(self, a: int, b: int, predictions, cin: int = 0) -> None:
        """Latch operands and predictions into the input registers and
        reset the State DFFs (the 'new operation' edge)."""
        geo = self.geometry
        a = int(bitops.to_unsigned(a, geo.width))
        b = int(bitops.to_unsigned(b, geo.width))
        if len(predictions) != geo.n_predictions:
            raise ValueError(
                f"need {geo.n_predictions} predictions, "
                f"got {len(predictions)}")
        for idx, (lo, hi) in enumerate(geo.bounds):
            s = self.slices[idx]
            mask = (1 << (hi - lo)) - 1
            s.input_a = (a >> lo) & mask
            s.input_b = (b >> lo) & mask
            s.cpred = int(predictions[idx - 1]) if idx > 0 else 0
            s.state = 0
            s.cout = s.cout_alt = 0
            s.output = s.output_alt = 0
        self.cin = cin
        self.phase = 0
        self.errors = [0] * geo.n_slices
        self.stall = 0
        self.cycles_used = 0

    @property
    def busy(self) -> bool:
        return self.phase in (0, 1) and (self.phase == 0 or self.stall)

    def clock(self) -> None:
        """One rising clock edge."""
        if self.phase == 0:
            self._cycle_one()
        elif self.phase == 1 and self.stall:
            self._cycle_two()
        self.cycles_used += 1

    # -- the two cycles -----------------------------------------------------

    def _assumed_cin(self, idx: int) -> int:
        return self.cin if idx == 0 else self.slices[idx].cpred

    def _cycle_one(self) -> None:
        geo = self.geometry
        # all slices compute in parallel with their assumed carry-ins
        for idx, (lo, hi) in enumerate(geo.bounds):
            s = self.slices[idx]
            s.output, s.cout = _slice_add(
                s.input_a, s.input_b, self._assumed_cin(idx), hi - lo)
        # end of nominal cycle: error detection and OR-chain
        self.errors = [0] * geo.n_slices
        suspect = 0
        for idx in range(1, geo.n_slices):
            e = self.slices[idx].cpred ^ self.slices[idx - 1].cout
            self.errors[idx] = e
            suspect |= e
            self.slices[idx].state = suspect
        self.stall = suspect
        self.phase = 1

    def _cycle_two(self) -> None:
        geo = self.geometry
        # only suspect slices recompute, with the inverse carry-in
        for idx, (lo, hi) in enumerate(geo.bounds):
            s = self.slices[idx]
            if idx > 0 and s.state:
                s.output_alt, s.cout_alt = _slice_add(
                    s.input_a, s.input_b, 1 - s.cpred, hi - lo)
        # carry-select resolution: ripple the now-known carries through
        # the per-slice (kept, recomputed) pairs
        carry = self.cin
        for idx in range(geo.n_slices):
            s = self.slices[idx]
            assumed = self._assumed_cin(idx)
            if idx > 0 and s.state and carry != assumed:
                s.output, s.cout = s.output_alt, s.cout_alt
            # non-suspect slices were computed with the correct carry
            carry = s.cout
        self.stall = 0
        self.phase = 2

    # -- observation ----------------------------------------------------------

    @property
    def result(self) -> int:
        value = 0
        for idx, (lo, _hi) in enumerate(self.geometry.bounds):
            value |= self.slices[idx].output << lo
        return value

    @property
    def carry_out(self) -> int:
        return self.slices[-1].cout

    @property
    def recomputed_slices(self) -> int:
        return sum(s.state for s in self.slices[1:])

    def run_op(self, a: int, b: int, predictions, cin: int = 0) -> tuple:
        """Convenience: drive a whole operation; returns
        ``(result, cycles, recomputed)``."""
        self.start_op(a, b, predictions, cin)
        self.clock()
        if self.stall:
            self.clock()
        return self.result, self.cycles_used, self.recomputed_slices
