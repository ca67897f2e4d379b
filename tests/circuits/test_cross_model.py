"""Cross-model consistency: the gate-level netlist, the RTL protocol
model and the vectorised behavioural model must tell one story."""

import numpy as np
import pytest

from repro.circuits.adders_rtl import sliced_adder
from repro.core import bitops
from repro.core.adder import ST2Adder
from repro.core.slices import INT64, AdderGeometry
from tests.circuits.reference_st2_rtl import ST2AdderRTL


def _stimulus(a, b, cin, preds, width):
    n = len(a)
    n_preds = len(preds[0])
    stim = np.zeros((n, 2 * width + 1 + n_preds), dtype=bool)
    for i in range(width):
        stim[:, i] = (a >> np.uint64(i)) & np.uint64(1)
        stim[:, width + i] = (b >> np.uint64(i)) & np.uint64(1)
    stim[:, 2 * width] = cin
    stim[:, 2 * width + 1:] = preds
    return stim


class TestGateVsBehavioural:
    @pytest.mark.parametrize("width", [16, 32, 64])
    def test_error_wires_agree(self, width, rng):
        """The netlist's cycle-1 E[i] outputs must equal the
        behavioural model's error matrix for the same inputs."""
        geo = AdderGeometry(width)
        net = sliced_adder(width, 8)
        n = 120
        lim = bitops.mask(width)
        a = rng.integers(0, lim, n, dtype=np.uint64)
        b = rng.integers(0, lim, n, dtype=np.uint64)
        cin = rng.integers(0, 2, n).astype(np.uint8)
        preds = rng.integers(0, 2, (n, geo.n_predictions)) \
            .astype(np.uint8)

        out = net.outputs(_stimulus(a, b, cin, preds, width))
        n_slices = geo.n_slices
        gate_errors = out[:, width + n_slices:].astype(np.uint8)

        beh = ST2Adder(geo).add(a, b, preds, cin=cin)
        assert np.array_equal(gate_errors, beh.errors[:, 1:])

    def test_gate_couts_match_cycle1_semantics(self, rng):
        """The netlist's per-slice carry-outs are the cycle-1 values
        (computed with the *predicted* carry-ins), not the true ones."""
        width = 16
        net = sliced_adder(width, 8)
        # slice 1 propagates: 0xFF00 + 0x00FF, true cin of slice1 = 0
        a = np.array([0xFF00], dtype=np.uint64)
        b = np.array([0x00FF], dtype=np.uint64)
        preds = np.array([[1]], dtype=np.uint8)   # wrong prediction
        out = net.outputs(_stimulus(a, b, np.array([0]), preds, width))
        cout_slice1 = out[0, width + 1]
        # slice 1 = 0xFF + 0x00 with assumed cin 1 -> carries out 1
        assert bool(cout_slice1) is True


class TestRtlVsBehavioural:
    def test_three_models_agree_on_errors(self, rng):
        geo = INT64
        beh = ST2Adder(geo)
        rtl = ST2AdderRTL(geo)
        for _ in range(60):
            a = int(rng.integers(0, bitops.mask(64), dtype=np.uint64,
                                 endpoint=True))
            b = int(rng.integers(0, bitops.mask(64), dtype=np.uint64,
                                 endpoint=True))
            preds = rng.integers(0, 2, geo.n_predictions).tolist()
            out = beh.add(np.array([a], np.uint64),
                          np.array([b], np.uint64),
                          np.array([preds], np.uint8))
            rtl.start_op(a, b, preds)
            rtl.clock()
            assert rtl.errors == list(out.errors[0])
            assert rtl.stall == int(out.mispredicted[0])
            if rtl.stall:
                rtl.clock()
            assert rtl.result == int(out.result[0])
