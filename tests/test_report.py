"""``st2-report``: one runner pass regenerates every section of the
reproduction and ends with the graded 18-claim scorecard; the exit
code says whether every claim is within its documented tolerance."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import report
from repro.core.speculation import ST2_DESIGN
from repro.st2.architecture import default_adder_model
from repro.st2.scorecard import grade, measure, render

SRC = Path(__file__).resolve().parents[1] / "src"


class TestReport:
    @pytest.fixture(scope="class")
    def run(self):
        """The report at scale 0.1: ``(stdout, exit code, the pass's
        ST2-design results)``."""
        passes = []
        real = report.run_suite_units

        def recording(units, options):
            keyed = real(units, options)
            passes.append(keyed)
            return keyed

        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(buf):
            mp.setattr(report, "run_suite_units", recording)
            code = report.main(["0.1"])
        (keyed,) = passes
        st2 = {kernel: result for (kernel, config), result in keyed.items()
               if config == ST2_DESIGN.name}
        return buf.getvalue(), code, st2

    @pytest.fixture(scope="class")
    def output(self, run):
        return run[0]

    def test_all_sections_present(self, output):
        for section in ("Figure 1", "Figure 3", "Figure 5",
                        "Section V-B", "Section V-C", "Section VI",
                        "overheads", "scorecard"):
            assert section in output, section

    def test_paper_anchors_quoted(self, output):
        for anchor in ("paper: 21/23", "paper: 8", "paper: ~70%",
                       "paper 9%", "448 B"):
            assert anchor in output, anchor

    def test_reports_suite_size(self, output):
        assert "23 kernels" in output

    def test_finishes(self, output):
        assert "report complete" in output

    def test_scorecard_rows_are_the_graded_pass(self, run):
        output, _, st2 = run
        assert len(st2) == 23
        rows, failures = grade(measure(st2, default_adder_model()))
        assert len(rows) == 18
        assert render(rows, failures) in output

    def test_exit_code_follows_the_scorecard(self, run):
        _, code, st2 = run
        _, failures = grade(measure(st2, default_adder_model()))
        assert code == (1 if failures else 0)
        # at scale 0.1 the worst-case slowdown falls below its band,
        # so this pass exercises the FAIL path
        assert failures == ["worst_slowdown"]


class TestArguments:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            report.main(["--help"])
        assert exc.value.code == 0
        assert "scale" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", ["abc", "0", "-1", "nan",
                                       "inf"])
    def test_bad_scale_is_a_usage_error(self, scale, capsys):
        try:
            code = report.main([scale])
        except SystemExit as exc:       # argparse's own usage errors
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "st2-report" in err and "scale" in err


def test_leaves_no_scratch_store(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "repro.report", "0.1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "report complete" in proc.stdout
    assert sorted(tmpdir.iterdir()) == []
