"""The sequential history-table reference the batched ``prev``
predictions are checked against."""

import numpy as np
import pytest

from repro.core.predictors import SpeculationConfig
from tests.core.reference_speculation import ReferencePredictor


class TestReferencePredictor:
    def test_rejects_non_prev(self):
        with pytest.raises(ValueError):
            ReferencePredictor(SpeculationConfig("s", "static0"))

    def test_cold_table_predicts_zero(self):
        ref = ReferencePredictor(SpeculationConfig("p", "prev"))
        bits = ref.predict_row(0, 0, 0, 0, 7)
        assert not bits.any()

    def test_update_then_predict(self):
        ref = ReferencePredictor(SpeculationConfig("p", "prev"))
        ref.update_row(0, 0, 0, 0, np.array([1, 0, 1], np.uint8))
        assert list(ref.predict_row(0, 0, 0, 0, 3)) == [1, 0, 1]

    def test_xor_index_folds_pc(self):
        cfg = SpeculationConfig("x", "prev", pc_index="xor", pc_bits=4)
        ref = ReferencePredictor(cfg)
        # pc=0x21 folds to 0x2^0x1=3; pc=3 folds to 3 -> same entry
        ref.update_row(0x21, 0, 0, 0, np.array([1], np.uint8))
        assert ref.predict_row(0x03, 0, 0, 0, 1)[0] == 1
