#!/usr/bin/env python
"""Regenerate ``BENCH_claims.json``: the 18 headline-scorecard values.

Runs the scorecard measurement
(:func:`bench_headline_scorecard.measure_claims`) at its pinned scale
and writes every measured value.  ``tests/test_claims.py`` then gates
each value at ``rel_tol`` on top of the paper-tolerance grades, so a
change that moves any claim fails tier-1 even inside the paper's band.

Usage::

    python benchmarks/regen_claims_baseline.py            # rewrite
    python benchmarks/regen_claims_baseline.py --dry-run  # print only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_headline_scorecard import CLAIMS_SCALE, grade, measure_claims

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_claims.json"
REL_TOL = 1e-9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate BENCH_claims.json from the scorecard")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--dry-run", action="store_true",
                        help="measure and print, do not write")
    args = parser.parse_args(argv)

    measured = measure_claims(CLAIMS_SCALE)
    _, failures = grade(measured)
    if failures:
        print(f"claims out of paper tolerance: {failures}",
              file=sys.stderr)
        return 1
    payload = {
        "description": (
            "headline scorecard values at REPRO_BENCH_SCALE="
            f"{CLAIMS_SCALE} (23 kernels, ST2 config, seed 0, no "
            "cache); gated by tests/test_claims.py; regenerate with "
            "benchmarks/regen_claims_baseline.py"),
        "scale": CLAIMS_SCALE,
        "rel_tol": REL_TOL,
        "claims": measured,
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.dry_run:
        print(text, end="")
        return 0
    args.out.write_text(text)
    print(f"wrote {len(measured)} claim(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
