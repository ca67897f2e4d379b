"""The shared CLI contract: every repro CLI exits 0/1/2 the same way
and speaks ``--json`` on its informational commands."""

from __future__ import annotations

import json

import pytest

from repro import cli_common
from repro.cli_common import EXIT_OK, EXIT_USAGE

# (name, main, cheap-success argv, --json argv) for every console tool;
# mains are resolved lazily so one import error doesn't mask the rest
CLIS = {
    "st2-run": ("repro.runner.cli", ["--list"], ["--list", "--json"]),
    "st2-trace": ("repro.runner.trace_cli", None, None),
    "st2-lint": ("repro.lint.cli",
                 ["--list-rules"], ["--list-rules", "--json"]),
    "st2-lint-bounds": ("repro.lint.cli",
                        ["bounds", "tests/lint/data/golden_kernel.py"],
                        ["bounds", "tests/lint/data/golden_kernel.py",
                         "--json"]),
    "st2-stats": ("repro.obs.cli", None, None),
    "st2-fuzz": ("repro.fuzz.cli",
                 ["gen", "--seed", "1", "--count", "1"],
                 ["gen", "--seed", "1", "--count", "1", "--json"]),
    "st2-serve": ("repro.serve.cli",
                  ["--show-config"], ["--show-config", "--json"]),
    "st2-client": ("repro.serve.client_cli",
                   ["spec", "--kernels", "qrng_K2"],
                   ["spec", "--kernels", "qrng_K2", "--json"]),
    "st2-sweep": ("repro.sweep.cli",
                  ["example"], ["example", "--json"]),
}


def _main(name):
    import importlib
    return importlib.import_module(CLIS[name][0]).main


@pytest.mark.parametrize("name", sorted(CLIS))
def test_unknown_flag_exits_usage(name, capsys):
    """Argparse usage errors exit 2 on every tool."""
    with pytest.raises(SystemExit) as exc:
        _main(name)(["--no-such-flag"])
    assert exc.value.code == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("name",
                         [n for n, c in CLIS.items() if c[1]])
def test_cheap_success_exits_ok(name, capsys):
    assert _main(name)(CLIS[name][1]) == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("name",
                         [n for n, c in CLIS.items() if c[2]])
def test_json_flag_emits_one_document(name, capsys):
    assert _main(name)(CLIS[name][2]) == EXIT_OK
    out, err = capsys.readouterr()
    json.loads(out)         # exactly one valid JSON document
    assert err == ""


#: the retired evaluation-engine selector flag
ENGINE_FLAG = "--" + "engine"


@pytest.mark.parametrize("name,argv", [
    ("st2-run", [ENGINE_FLAG, "vec"]),
    ("st2-client", ["spec", "--kernels", "qrng_K2", ENGINE_FLAG, "vec"]),
])
def test_removed_engine_flag_exits_usage(name, argv, capsys):
    """There is one evaluation engine: the former engine selector is
    an unknown flag like any other."""
    with pytest.raises(SystemExit) as exc:
        _main(name)(argv)
    assert exc.value.code == EXIT_USAGE
    assert ENGINE_FLAG in capsys.readouterr().err


def test_subcommand_tools_require_a_command():
    """st2-trace / st2-stats / st2-fuzz / st2-client demand a
    subcommand."""
    for name in ("st2-trace", "st2-stats", "st2-fuzz", "st2-client"):
        with pytest.raises(SystemExit) as exc:
            _main(name)([])
        assert exc.value.code == EXIT_USAGE


def test_sweep_requires_a_command(capsys):
    """st2-sweep reports the missing subcommand itself (exit 2 with a
    prog-prefixed message, not an argparse SystemExit)."""
    assert _main("st2-sweep")([]) == EXIT_USAGE
    assert "command is required" in capsys.readouterr().err


class TestHelpers:
    def test_fail_writes_prog_prefixed_stderr(self, capsys):
        code = cli_common.fail("st2-x", "boom")
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err == "st2-x: boom\n"
        assert out == ""

    def test_emit_json_is_parseable_and_sorted(self, capsys):
        cli_common.emit_json({"b": 1, "a": [1, 2]})
        text = capsys.readouterr().out
        assert json.loads(text) == {"a": [1, 2], "b": 1}
        assert text.index('"a"') < text.index('"b"')

    def test_run_cli_maps_keyboard_interrupt(self):
        def angry():
            raise KeyboardInterrupt
        assert cli_common.run_cli(angry) == 130

    def test_run_cli_passes_return_through(self):
        assert cli_common.run_cli(lambda: 7) == 7
