"""The claims gate: the paper's 18 headline numbers, pinned.

Runs the headline-scorecard measurement
(:func:`repro.st2.scorecard.measure_claims`) at its pinned scale and
checks every value twice: against ``BENCH_claims.json`` at the file's
``rel_tol`` (so a refactor that moves a claim fails even when the new
value is still inside the paper's tolerance), and against the paper's
own number at the claim's documented tolerance grade.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.st2.scorecard import CLAIMS_SCALE, GRADING, grade, measure_claims

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "BENCH_claims.json").read_text())


@pytest.fixture(scope="module")
def measured():
    assert PINS["scale"] == CLAIMS_SCALE
    return measure_claims(PINS["scale"])


def test_every_claim_is_pinned(measured):
    graded = {key for key, _, _ in GRADING}
    assert set(PINS["claims"]) == set(measured) == graded
    assert len(graded) == 18


def test_claims_match_pins(measured):
    moved = {key: (pin, measured[key])
             for key, pin in PINS["claims"].items()
             if not math.isclose(measured[key], pin,
                                 rel_tol=PINS["rel_tol"])}
    assert not moved, f"claims moved off their pins: {moved}"


def test_claims_within_paper_tolerance(measured):
    _, failures = grade(measured)
    assert not failures, f"claims out of paper tolerance: {failures}"
