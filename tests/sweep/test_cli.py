"""The ``st2-sweep`` CLI: example/expand/run/report round trip plus
the exit-code contract on its error surfaces."""

import json

import pytest

from repro.sweep.cli import main
from repro.sweep.specio import EXAMPLE_WIRE, example_spec, load_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "name": "cli-tiny",
        "kernels": ["qrng_K2"],
        "axes": {"mechanism": ["static1", "operand"]},
        "scale": 0.25,
        "seed": 0,
        "aux": False,
    }))
    return path


class TestExample:
    def test_prints_json_example(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        assert code == 0
        assert json.loads(out) == EXAMPLE_WIRE

    def test_output_is_loadable(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "example")
        assert code == 0
        path = tmp_path / "example.json"
        path.write_text(out)
        assert load_spec(path) == example_spec()

    def test_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "example", "--json")
        assert code == 0
        assert json.loads(out) == EXAMPLE_WIRE


class TestExpand:
    def test_expand_json(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "expand", str(spec_path),
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["grid_size"] == 2
        assert doc["n_groups"] == 2
        assert sorted(g["canon"] for g in doc["groups"]) \
            == ["CASA", "staticOne"]

    def test_expand_human(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "expand", str(spec_path))
        assert code == 0
        assert "cli-tiny" in out and "staticOne" in out

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "expand",
                               str(tmp_path / "absent.yaml"))
        assert code == 2
        assert "cannot read" in err

    def test_bad_spec_contents(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "kernels": []}')
        code, _, err = run_cli(capsys, "expand", str(path))
        assert code == 2
        assert "kernels" in err


class TestRunAndReport:
    def test_round_trip(self, capsys, spec_path, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys, "run", str(spec_path), "--out", str(out_path),
            "--workers", "2", "--cache-dir",
            str(tmp_path / "cache"), "--quiet")
        assert code == 0
        assert "frontier" in out
        doc = json.loads(out_path.read_text())
        assert doc["complete"] is True
        assert doc["spec"]["name"] == "cli-tiny"
        # the resume manifest and obs metrics ride next to the report
        manifest = tmp_path / "sweep.json.manifest.jsonl"
        assert manifest.exists()
        assert (tmp_path
                / "sweep.json.manifest.metrics.json").exists()

        code, report_out, _ = run_cli(capsys, "report",
                                      str(out_path))
        assert code == 0
        assert "cli-tiny" in report_out
        assert "energy saved" in report_out

        code, json_out, _ = run_cli(capsys, "report", str(out_path),
                                    "--json")
        assert code == 0
        report_doc = json.loads(json_out)
        assert set(report_doc) == {"frontier", "sensitivity",
                                   "markdown"}

    def test_rerun_reuses_everything(self, capsys, spec_path,
                                     tmp_path):
        args = ("run", str(spec_path), "--out",
                str(tmp_path / "s.json"), "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"), "--quiet",
                "--json")
        code, first_out, _ = run_cli(capsys, *args)
        assert code == 0
        code, second_out, _ = run_cli(capsys, *args)
        assert code == 0
        second = json.loads(second_out)["result"]
        assert second["executed_units"] == 0
        assert second["reused_units"] \
            == json.loads(first_out)["result"]["executed_units"]

    def test_report_on_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report",
                               str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    def test_report_on_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_run_unknown_kernel(self, capsys, tmp_path):
        path = tmp_path / "bad-kernel.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "bad",
            "kernels": ["warp_drive"],
            "axes": {"peek": [False]},
        }))
        code, _, err = run_cli(capsys, "run", str(path), "--out",
                               str(tmp_path / "o.json"), "--quiet")
        assert code == 2
        assert "warp_drive" in err


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "command is required" in err

    @pytest.mark.parametrize("argv, flag", [
        (("--max-units", "-1"), "--max-units"),
        (("--workers", "0"), "--workers"),
        (("--workers", "-3"), "--workers"),
    ])
    def test_out_of_range_flags_rejected(self, capsys, spec_path,
                                         tmp_path, argv, flag):
        out_path = tmp_path / "o.json"
        code, _, err = run_cli(capsys, "run", str(spec_path), "--out",
                               str(out_path), "--quiet", *argv)
        assert code == 2
        assert flag in err
        assert not out_path.exists()
