"""The sweep report renderer on a synthetic (execution-free)
SweepResult: frontier table, per-axis sensitivity and member rows."""

import pytest

from repro.api import SweepSpec
from repro.sweep.engine import SweepResult
from repro.sweep.pareto import ParetoPoint
from repro.sweep.report import (axis_sensitivity, member_rows,
                                render_report)


def objectives(saved, miss, over):
    return {"energy_saved": saved, "misprediction_rate": miss,
            "perf_overhead": over}


def fields(mechanism, peek):
    return {"mechanism": mechanism, "peek": peek, "pc_index": "none",
            "pc_bits": 0, "thread_key": "", "sm_scoped": False}


@pytest.fixture
def result():
    spec = SweepSpec(name="report-t", kernels=("qrng_K2",),
                     axes=(("mechanism", ("static1", "operand")),
                           ("peek", (False, True))))
    points = (
        ParetoPoint(key="staticOne",
                    objectives=objectives(0.10, 0.30, 0.02),
                    fields=fields("static1", False),
                    members=("staticOne",),
                    per_kernel={"qrng_K2":
                                objectives(0.10, 0.30, 0.02)}),
        ParetoPoint(key="staticOne+Peek",
                    objectives=objectives(0.12, 0.25, 0.02),
                    fields=fields("static1", True),
                    members=("staticOne+Peek",),
                    per_kernel={"qrng_K2":
                                objectives(0.12, 0.25, 0.02)}),
        ParetoPoint(key="CASA",
                    objectives=objectives(0.14, 0.20, 0.01),
                    fields=fields("operand", False),
                    members=("CASA",),
                    per_kernel={"qrng_K2":
                                objectives(0.14, 0.20, 0.01)}),
    )
    return SweepResult(
        spec=spec, kernels=("qrng_K2",), frontier=points[2:],
        points=points,
        pruned={"staticOne": {"reason": "dominated",
                              "dominated_by": "CASA",
                              "units_skipped": 0}},
        prune=True, complete=True,
        executed_units=3, reused_units=0, skipped_units=1,
        invalid_combos=0, duplicate_configs=0,
        manifest="sweep.manifest.jsonl", wall_time_s=1.5)


class TestSensitivity:
    def test_axis_means(self, result):
        sens = axis_sensitivity(result)
        assert set(sens) == {"mechanism", "peek"}
        static1 = sens["mechanism"]["static1"]
        assert static1["energy_saved"] == pytest.approx(0.11)
        assert sens["mechanism"]["operand"]["energy_saved"] \
            == pytest.approx(0.14)
        assert sens["peek"][False]["energy_saved"] \
            == pytest.approx(0.12)

    def test_values_without_points_are_absent(self, result):
        sens = axis_sensitivity(result)
        # peek=True has exactly one completed point
        assert sens["peek"][True]["misprediction_rate"] \
            == pytest.approx(0.25)


class TestMemberRows:
    def test_one_row_per_member(self, result):
        rows = member_rows(result)
        assert len(rows) == 3
        by_member = {name: (fields, objs)
                     for name, fields, objs in rows}
        casa_fields, casa_objs = by_member["CASA"]
        assert casa_fields["mechanism"] == "operand"
        assert casa_objs["energy_saved"] == pytest.approx(0.14)


class TestRender:
    def test_report_mentions_everything(self, result):
        text = render_report(result)
        assert "report-t" in text
        assert "CASA" in text
        assert "| energy saved" in text or "energy saved" in text
        assert "mechanism" in text and "peek" in text
        assert "dominated" in text
        assert "sweep.manifest.jsonl" in text

    def test_incomplete_flagged(self, result):
        import dataclasses
        partial = dataclasses.replace(result, complete=False)
        assert "incomplete" in render_report(partial).lower()


class TestCollapsedAxis:
    """Dead axes stay visible: an axis whose every *completed* config
    holds one value must appear as an explicit "collapsed (dead
    axis)" row, never be silently omitted."""

    @pytest.fixture
    def collapsed(self):
        spec = SweepSpec(name="dead-axis", kernels=("qrng_K2",),
                         axes=(("mechanism", ("static1", "operand")),
                               ("thread_key", ("", "ltid"))))
        points = (
            ParetoPoint(key="staticOne",
                        objectives=objectives(0.10, 0.30, 0.02),
                        fields=fields("static1", False),
                        members=("staticOne",),
                        per_kernel={"qrng_K2":
                                    objectives(0.10, 0.30, 0.02)}),
            ParetoPoint(key="CASA",
                        objectives=objectives(0.14, 0.20, 0.01),
                        fields=fields("operand", False),
                        members=("CASA",),
                        per_kernel={"qrng_K2":
                                    objectives(0.14, 0.20, 0.01)}),
        )
        # both ltid members were domination-pruned: no completed
        # config exposes thread_key="ltid"
        return SweepResult(
            spec=spec, kernels=("qrng_K2",), frontier=points[1:],
            points=points,
            pruned={"Ltid+staticOne": {"reason": "dominated",
                                       "dominated_by": "CASA",
                                       "units_skipped": 1},
                    "Ltid+CASA": {"reason": "dominated",
                                  "dominated_by": "CASA",
                                  "units_skipped": 1}},
            prune=True, complete=True,
            executed_units=2, reused_units=0, skipped_units=2,
            invalid_combos=0, duplicate_configs=0,
            manifest="sweep.manifest.jsonl", wall_time_s=1.0)

    def test_axis_present_in_sensitivity(self, collapsed):
        sens = axis_sensitivity(collapsed)
        assert set(sens) == {"mechanism", "thread_key"}
        assert len(sens["thread_key"]) == 1      # only "" completed

    def test_render_emits_collapsed_row(self, collapsed):
        text = render_report(collapsed)
        assert "### `thread_key`" in text
        assert "collapsed (dead axis)" in text
        assert "every completed config holds `''`" in text
        # the live axis still gets a real table
        assert "### `mechanism`" in text
        assert "energy-saved spread across `mechanism`" in text

    def test_fully_dead_axis_renders_without_crash(self, collapsed):
        """Zero completed values on an axis (everything pruned) must
        render the no-completed-config variant, not divide by zero."""
        import dataclasses
        spec = SweepSpec(name="dead-axis", kernels=("qrng_K2",),
                         axes=(("pc_index", ("full", "mod")),))
        empty = dataclasses.replace(collapsed, spec=spec,
                                    frontier=(), points=())
        text = render_report(empty)
        assert "no completed config exposes this axis" in text
