"""The static speculation-outcome bounds tier (repro.lint.bounds):
per-kernel reports, the L9/L10 info rules and the byte-stable
``st2-lint bounds --json`` export."""

import io
import json
from pathlib import Path

import pytest

from repro.lint.bounds import (CLASS_KEYS, bounds_for_kernel,
                               module_bounds_from_source,
                               trivial_report)
from repro.lint.cli import bounds_main

DATA = Path(__file__).parent / "data"
KERNEL = DATA / "golden_kernel.py"

PINNED_IADD = '''import numpy as np


def pinned(k, data, out):
    x = k.iadd(3, 5)
    for i in k.range(4):
        x = k.iadd(x, 0)
'''

ROW_FREE = '''import numpy as np


def rowfree(k, data, out):
    t = k.thread_id()
    for i in k.range(0):
        t = k.iadd(t, 1)
'''

SITE_FREE = '''import numpy as np


def helper(k, key):
    return k.lt(key, 8)
'''

BAILING = '''import numpy as np


def bailer(k, data, out):
    bump = lambda v: k.iadd(v, 1)
    k.st_global(out, k.thread_id(), bump(k.thread_id()))
'''


class TestKernelReports:
    def test_pinned_kernel_is_tight(self):
        rep = module_bounds_from_source(PINNED_IADD)["pinned"]
        assert not rep.trivial
        assert (rep.rows.lo, rep.rows.hi) == (9, 9)
        cls = rep.bounds_for("static0", False)
        assert (cls.mis.lo, cls.mis.hi) == (0.0, 0.0)
        assert (cls.over.lo, cls.over.hi) == (0.0, 0.0)
        assert cls.saved.lo is not None and cls.saved.lo >= 0.0

    def test_row_free_kernel_saves_nothing(self):
        rep = module_bounds_from_source(ROW_FREE)["rowfree"]
        assert not rep.trivial
        assert rep.sites               # the adder site exists...
        assert (rep.rows.lo, rep.rows.hi) == (0, 0)   # ...dead
        for key in CLASS_KEYS:
            cls = rep.classes[key]
            assert (cls.saved.lo, cls.saved.hi) == (0.0, 0.0)
            assert (cls.mis.lo, cls.mis.hi) == (0.0, 0.0)

    def test_bail_degrades_to_trivial(self):
        rep = module_bounds_from_source(BAILING)["bailer"]
        assert rep.trivial and rep.bail_reason
        template = trivial_report(rep.function, rep.path, rep.lineno,
                                  rep.bail_reason)
        assert rep.classes == template.classes
        assert rep.rows == template.rows and not rep.sites

    def test_affine_chain_regression(self):
        """Pinned numbers for the bounds tier's suite fixture:
        affineChain's carries are all provably zero, so static1
        mispredicts every pinned row (96 of 97; the LEA row is
        indeterminate)."""
        rep = bounds_for_kernel("affineChain")
        assert rep is not None and not rep.trivial
        assert (rep.rows.lo, rep.rows.hi) == (97, 97)
        s1 = rep.bounds_for("static1", False)
        assert s1.mis.lo == pytest.approx(96 / 97)
        assert s1.mis.hi == 1.0
        s0 = rep.bounds_for("static0", False)
        assert s0.mis.lo == 0.0
        assert s0.mis.hi == pytest.approx(1 / 97)


class TestInfoRules:
    def run_lint(self, src, tmp_path, *flags):
        from repro.lint.cli import main
        mod = tmp_path / "m.py"
        mod.write_text(src)
        out = io.StringIO()
        code = main([str(mod), "--show-info", *flags], out=out)
        return code, out.getvalue()

    def test_l9_fires_on_row_free_kernel(self, tmp_path):
        code, text = self.run_lint(ROW_FREE, tmp_path)
        assert code == 0          # info-only: never the exit code
        assert "L9" in text and "never profitable" in text

    def test_l9_silent_on_site_free_helper(self, tmp_path):
        """A function with no adder site at all is vacuously
        unprofitable — L9 must not spam every non-emitting helper."""
        code, text = self.run_lint(SITE_FREE, tmp_path)
        assert code == 0
        assert "L9" not in text

    def test_l10_fires_on_pinned_kernel(self, tmp_path):
        code, text = self.run_lint(PINNED_IADD, tmp_path)
        assert code == 0
        assert "L10" in text and "always profitable" in text

    def test_info_rules_hidden_without_flag(self, tmp_path):
        from repro.lint.cli import main
        mod = tmp_path / "m.py"
        mod.write_text(PINNED_IADD)
        out = io.StringIO()
        assert main([str(mod)], out=out) == 0
        assert "L10" not in out.getvalue()
        assert "clean" in out.getvalue()


class TestBoundsCli:
    def test_always_exits_zero(self):
        out = io.StringIO()
        assert bounds_main([str(KERNEL)], out) == 0
        assert "kernel(s)" in out.getvalue()

    def test_json_shape(self):
        out = io.StringIO()
        assert bounds_main([str(KERNEL), "--json"], out) == 0
        doc = json.loads(out.getvalue())
        assert doc["version"] == 1
        assert doc["kernels"] >= 2      # golden_kernel + golden_bailer
        [module] = doc["modules"].values()
        rec = module["golden_kernel"]
        assert not rec["trivial"]
        assert sorted(rec["bounds"]) == sorted(CLASS_KEYS)
        for cls in rec["bounds"].values():
            assert set(cls) == {"misprediction_rate",
                                "recompute_per_row", "perf_overhead",
                                "energy_saved"}
        assert module["golden_bailer"]["trivial"]
        assert module["golden_bailer"]["bail_reason"]

    def test_json_byte_stable_across_path_shuffles(self, tmp_path):
        """Same file set, any argv order: identical bytes."""
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text(PINNED_IADD)
        b.write_text(ROW_FREE)
        outputs = []
        for paths in ([str(a), str(b)], [str(b), str(a)],
                      [str(b), str(a), str(b)]):
            out = io.StringIO()
            assert bounds_main([*paths, "--json"], out) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]
