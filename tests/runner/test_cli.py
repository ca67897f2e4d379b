"""The ``st2-run`` CLI and the JSONL manifest format."""

from __future__ import annotations

import json

import pytest

from repro.kernels.suite import KERNEL_NAMES, resolve_kernels
from repro.runner import read_manifest, resolve_configs, write_manifest
from repro.runner.cli import main


def test_resolve_kernels_groups_and_lists():
    assert resolve_kernels("all") == KERNEL_NAMES
    assert resolve_kernels("smoke") == ("binomial", "pathfinder",
                                        "qrng_K2")
    assert resolve_kernels("qrng_K2,binomial") == ("qrng_K2",
                                                   "binomial")
    assert resolve_kernels(["smoke", "binomial"]) == \
        ("binomial", "pathfinder", "qrng_K2")     # deduplicated
    with pytest.raises(KeyError):
        resolve_kernels("no_such_kernel")


def test_resolve_configs_aliases_and_names():
    (st2,) = resolve_configs("st2")
    assert st2.name == "Ltid+Prev+ModPC4+Peek"
    ladder = resolve_configs("ladder")
    assert len(ladder) == 12
    assert len(resolve_configs("st2,Ltid+Prev+ModPC4+Peek")) == 1
    with pytest.raises(KeyError):
        resolve_configs("no_such_config")


def test_cli_writes_manifest(tmp_path, capsys):
    out = tmp_path / "run" / "manifest.jsonl"
    rc = main(["--kernels", "qrng_K2", "--workers", "1", "--no-aux",
               "--cache-dir", str(tmp_path / "cache"),
               "--out", str(out)])
    assert rc == 0
    header, units = read_manifest(out)
    assert header["kernels"] == ["qrng_K2"]
    assert header["configs"] == ["Ltid+Prev+ModPC4+Peek"]
    assert header["n_units"] == len(units) == 1
    assert header["cache_misses"] == 1
    assert "code_version" in header
    unit = units[0]
    assert unit["cached"] is False
    assert unit["trace_rows"] > 0
    assert unit["trace_bytes"] > 0
    assert unit["wall_time_s"] > 0
    assert 0 <= unit["metrics"]["misprediction_rate"] <= 1
    captured = capsys.readouterr().out
    assert "st2-run results" in captured
    assert "qrng_K2" in captured

    # warm rerun: all hits, identical numbers
    rc = main(["--kernels", "qrng_K2", "--workers", "1", "--no-aux",
               "--cache-dir", str(tmp_path / "cache"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    header2, units2 = read_manifest(out)
    assert header2["cache_hits"] == 1
    assert units2[0]["cached"] is True
    assert units2[0]["metrics"] == unit["metrics"]


def test_cli_trace_store_round_trip(tmp_path):
    """--trace-store: cold pass captures once per kernel; warm pass
    re-executes nothing and reproduces identical numbers."""
    from repro.runner.units import results_equal
    out = tmp_path / "m.jsonl"
    args = ["--kernels", "qrng_K2,pathfinder", "--configs", "st2,prev",
            "--workers", "1", "--no-aux", "--scale", "0.2",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-store", str(tmp_path / "traces"),
            "--out", str(out), "--quiet"]
    assert main(args) == 0
    header, units = read_manifest(out)
    assert header["trace_store"] == str(tmp_path / "traces")
    assert header["traces_total"] == 2          # kernels, not configs
    assert header["traces_captured"] == 2
    assert len(units) == 4
    assert all(u["trace_cache_hit"] is False for u in units)

    # bypass the result cache so every unit re-evaluates, then check
    # the store absorbed all functional execution
    assert main(args + ["--no-cache"]) == 0
    header2, units2 = read_manifest(out)
    assert header2["traces_captured"] == 0
    assert header2["trace_store_hits"] == 2
    assert all(u["trace_cache_hit"] is True for u in units2)
    for a, b in zip(units, units2):
        assert results_equal(a, b)


def test_cli_list_mode(tmp_path, capsys):
    rc = main(["--kernels", "smoke", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("Ltid+Prev+ModPC4+Peek") == 3


def test_cli_rejects_unknown_kernel(capsys):
    rc = main(["--kernels", "bogus"])
    assert rc == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_cli_rejects_empty_work_list(capsys):
    rc = main(["--kernels", ""])
    assert rc == 2
    assert "no work units" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--workers", "0"), ("--workers", "-3"),
    ("--scale", "0"), ("--scale", "-1")])
def test_cli_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "manifest.jsonl"
    rc = main(["--kernels", "qrng_K2", "--no-cache", flag, value,
               "--out", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_manifest_round_trip(tmp_path):
    results = [{"kernel": "k", "metrics": {"x": float("nan")},
                "cached": False}]
    path = write_manifest(tmp_path / "m.jsonl", results,
                          meta={"workers": 3})
    header, units = read_manifest(path)
    assert header["workers"] == 3
    assert units[0]["kernel"] == "k"
    assert units[0]["metrics"]["x"] != units[0]["metrics"]["x"]  # NaN


def test_manifest_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "run", "manifest_version": 99,
                                "n_units": 0}) + "\n")
    with pytest.raises(ValueError):
        read_manifest(path)
    path.write_text(json.dumps({"type": "unit"}) + "\n")
    with pytest.raises(ValueError):
        read_manifest(path)


def test_module_entry_point():
    import repro.runner.__main__  # noqa: F401  (importable entry point)
