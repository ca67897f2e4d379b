"""st2-fuzz CLI: determinism, exit codes, machine output."""

import json

import pytest

from repro.fuzz.cli import main
from repro.cli_common import EXIT_OK, EXIT_PROBLEMS, EXIT_USAGE


def _json_out(capsys):
    out, err = capsys.readouterr()
    return json.loads(out), err


class TestGen:
    def test_emits_one_json_document(self, capsys):
        assert main(["gen", "--seed", "1", "--count", "2",
                     "--json"]) == EXIT_OK
        doc, err = _json_out(capsys)
        assert err == ""
        assert len(doc["kernels"]) == 2
        assert doc["kernels"][0]["source"].startswith("import numpy")

    def test_text_output_prints_sources(self, capsys):
        assert main(["gen", "--seed", "1"]) == EXIT_OK
        assert "def fuzz_kernel(" in capsys.readouterr().out

    def test_index_offsets_the_stream(self, capsys):
        main(["gen", "--seed", "1", "--count", "1", "--index", "3",
              "--json"])
        offset, _ = _json_out(capsys)
        main(["gen", "--seed", "1", "--count", "4", "--json"])
        batch, _ = _json_out(capsys)
        assert offset["kernels"][0] == batch["kernels"][3]


class TestRun:
    def test_clean_run_exits_ok(self, capsys):
        assert main(["run", "--seed", "21", "--budget", "2",
                     "--json"]) == EXIT_OK
        doc, _ = _json_out(capsys)
        assert doc["checked"] == 2
        assert doc["failed"] == 0
        assert doc["checks"]["adder_rows"] > 0

    def test_runs_are_deterministic(self, capsys):
        argv = ["run", "--seed", "4", "--budget", "2", "--json"]
        main(argv)
        first, _ = _json_out(capsys)
        main(argv)
        second, _ = _json_out(capsys)
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_oracle_subset_runs_only_those(self, capsys):
        assert main(["run", "--seed", "21", "--budget", "1",
                     "--oracles", "adder", "--json"]) == EXIT_OK
        doc, _ = _json_out(capsys)
        assert "adder_rows" in doc["checks"]
        assert "bounds" not in doc["checks"]

    def test_unknown_oracle_exits_usage(self, capsys):
        assert main(["run", "--oracles", "psychic"]) == EXIT_USAGE
        assert "unknown oracle" in capsys.readouterr().err

    def test_unknown_config_exits_usage(self, capsys):
        assert main(["run", "--configs", "warpspeed"]) == EXIT_USAGE
        assert "unknown config" in capsys.readouterr().err

    def test_failures_exit_problems_and_are_minimized(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        """With the old empty-mask sanitizer re-introduced, a campaign
        that hits a uniform barrier must fail, minimize, and save a
        fixture."""
        import numpy as np

        from repro.sim import sanitizer as san_mod
        from repro.sim.sanitizer import BarrierDivergenceError

        def old_on_barrier(self, mask: np.ndarray) -> None:
            if not mask.all():
                fname, line = san_mod._kernel_frame()
                raise BarrierDivergenceError(
                    f"{fname}:{line}: syncthreads under a divergent "
                    f"mask ({int(mask.sum())}/{mask.size})")
            self.epoch += 1

        monkeypatch.setattr(san_mod.KernelSanitizer, "on_barrier",
                            old_on_barrier)
        save = tmp_path / "corpus"
        code = main(["run", "--seed", "7", "--budget", "3",
                     "--oracles", "sanitizer",
                     "--save-failures", str(save),
                     "--shrink-evals", "60", "--json"])
        assert code == EXIT_PROBLEMS
        doc, _ = _json_out(capsys)
        assert doc["failed"] >= 1
        entry = doc["failures"][0]
        assert "minimized_source" in entry
        assert entry["shrink"]["to"] <= entry["shrink"]["from"]
        saved = list(save.glob("*.json"))
        assert saved and json.loads(saved[0].read_text())["source"]


class TestReplay:
    def test_replays_committed_corpus_green(self, capsys):
        assert main(["replay", "--json"]) == EXIT_OK
        doc, _ = _json_out(capsys)
        assert doc["fixtures"] >= 1 and doc["failed"] == 0

    def test_unreadable_fixture_exits_usage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["replay", str(bad)]) == EXIT_USAGE
        assert "unreadable fixture" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
