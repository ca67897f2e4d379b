"""The claims gate: the paper's 18 headline numbers, pinned.

Runs the headline-scorecard measurement
(``benchmarks/bench_headline_scorecard.py``) at its pinned scale and
checks every value twice: against ``BENCH_claims.json`` at the file's
``rel_tol`` (so a refactor that moves a claim fails even when the new
value is still inside the paper's tolerance), and against the paper's
own number at the claim's documented tolerance grade.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
PINS = json.loads((ROOT / "BENCH_claims.json").read_text())


@pytest.fixture(scope="module")
def scorecard():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench_headline_scorecard
    finally:
        sys.path.remove(str(BENCH_DIR))
    return bench_headline_scorecard


@pytest.fixture(scope="module")
def measured(scorecard):
    assert PINS["scale"] == scorecard.CLAIMS_SCALE
    return scorecard.measure_claims(PINS["scale"])


def test_every_claim_is_pinned(scorecard, measured):
    graded = {key for key, _, _ in scorecard.GRADING}
    assert set(PINS["claims"]) == set(measured) == graded
    assert len(graded) == 18


def test_claims_match_pins(measured):
    moved = {key: (pin, measured[key])
             for key, pin in PINS["claims"].items()
             if not math.isclose(measured[key], pin,
                                 rel_tol=PINS["rel_tol"])}
    assert not moved, f"claims moved off their pins: {moved}"


def test_claims_within_paper_tolerance(scorecard, measured):
    _, failures = scorecard.grade(measured)
    assert not failures, f"claims out of paper tolerance: {failures}"
