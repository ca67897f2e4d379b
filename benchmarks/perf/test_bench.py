"""Tests of the performance benchmark: run with ``pytest benchmarks/perf``.

The comparison rules are checked on synthetic samples, the digest
checker on a real manifest that is then tampered with, and every
workload once at its smallest size (``--size smoke``) for metric
coverage and a clean tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import bench
import workloads as wl

BENCH = [sys.executable, str(Path(bench.__file__).resolve())]
SPEC = bench.load_benchmark()


def _env(tmp_path: Path) -> dict:
    env = dict(os.environ)
    env.update(HOME=str(tmp_path / "home"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               REPRO_TRACE_DIR=str(tmp_path / "traces"))
    return env


def _bench(args, tmp_path: Path, timeout: float = 600.0):
    return subprocess.run(BENCH + list(map(str, args)), cwd=wl.ROOT,
                          env=_env(tmp_path), capture_output=True,
                          text=True, timeout=timeout)


def _git_status():
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


# -- compare ------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_compare_flags_regression_beyond_bound():
    change = [x * 1.2 for x in PARENT]
    assert bench.compare_metric(PARENT, change, "lower", 0.1) \
        == "regression"
    assert bench.compare_metric(PARENT, change, "higher", 0.1) == "gain"


def test_compare_small_slowdown_within_bound_is_not_regression():
    change = [x * 1.05 for x in PARENT]
    assert bench.compare_metric(PARENT, change, "lower", 0.1) \
        == "unchanged"


def test_compare_gain_needs_nine_in_ten_pair_wins():
    change = [x * 0.9 for x in PARENT]
    assert bench.compare_metric(PARENT, change, "lower", 0.1) == "gain"
    # two of ten pairs lost: 8/10 wins is not a gain
    mixed = change[:8] + [PARENT[8] * 1.01, PARENT[9] * 1.01]
    assert bench.compare_metric(PARENT, mixed, "lower", 0.1) \
        == "unchanged"


def test_compare_gain_needs_ten_pairs():
    change = [x * 0.8 for x in PARENT]
    assert bench.compare_metric(PARENT[:3], change[:3], "lower", 0.25) \
        == "unchanged"
    assert bench.compare_metric(PARENT, change, "lower", 0.25) == "gain"


def test_compare_gain_needs_gap_beyond_parent_iqr():
    noisy = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 94.0,
             106.0]
    change = [x - 0.5 for x in noisy]      # wins every pair, tiny gap
    assert bench.compare_metric(noisy, change, "lower", 0.25) \
        == "unchanged"


def test_compare_wide_spread_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0, 90.0,
             110.0]
    assert bench.compare_metric(noisy, noisy, "lower", 0.1) \
        == "unresolved"
    # ...unless every change run beats every parent run
    assert bench.compare_metric(noisy, [10.0] * 10, "lower", 0.1) \
        == "gain"


def _doc(values, failed=0):
    return {"workloads": {"w": [
        {"attempted": 10, "failed": failed,
         "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                     for m in SPEC["end_to_end"]}}
        for v in values]}}


def test_compare_flags_more_failures():
    rows, ok = bench.compare(_doc(PARENT), _doc(PARENT, failed=1), SPEC)
    assert not ok
    assert ("w", "failed_frac", 0.0, 0.1, "more failures") in rows
    rows, ok = bench.compare(_doc(PARENT), _doc(PARENT), SPEC)
    assert ok and all(row[-1] == "unchanged" for row in rows)


# -- correctness pins -----------------------------------------------------

def test_tampered_manifest_fails_the_digest_check(tmp_path):
    manifest = tmp_path / "m.jsonl"
    env = _env(tmp_path)
    env["PYTHONPATH"] = str(wl.SRC)
    subprocess.run([sys.executable, "-m", "repro.runner", "--kernels",
                    "qrng_K2,sortNets_K2", "--configs", "st2,valhalla",
                    "--scale", "0.25", "--workers", "1", "--no-cache",
                    "--out", str(manifest)], cwd=wl.ROOT, env=env,
                   check=True, capture_output=True, timeout=300)
    wl.ensure_importable()
    digest = wl.manifest_rows_digest(manifest)[1]
    pins = {"full": {"paper-cold": {"0": digest}}}
    assert wl.check_digests("paper-cold", "full", 0, [digest], pins) == []

    lines = manifest.read_text().splitlines()
    unit = json.loads(lines[1])
    unit["metrics"]["misprediction_rate"] += 1e-6
    lines[1] = json.dumps(unit)
    manifest.write_text("\n".join(lines) + "\n")
    tampered = wl.manifest_rows_digest(manifest)[1]
    problems = wl.check_digests("paper-cold", "full", 0, [tampered], pins)
    assert problems and "paper-cold" in problems[0]
    # without a pin, passes must still agree with each other
    assert wl.check_digests("paper-cold", "full", 7, [digest, tampered],
                            pins)


def test_run_exits_nonzero_and_names_workload_on_pin_mismatch(
        tmp_path, monkeypatch, capsys):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {"smoke": {"capture-xl": {"0": "0" * 64}}}))
    monkeypatch.setattr(wl, "PINS_PATH", pins)
    monkeypatch.setattr(bench, "load_benchmark", lambda: dict(
        SPEC, workloads=[{"name": "capture-xl", "why": ""}]))
    for name, value in _env(tmp_path).items():
        monkeypatch.setenv(name, value)
    code = bench.main(["run", "--size", "smoke", "--repeats", "1",
                       "--seconds", "1", "--seed", "0"])
    assert code != 0
    assert "FAIL capture-xl" in capsys.readouterr().err


def test_work_of_killed_runs_is_removed(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "WORK_ROOT", tmp_path)
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    orphan = tmp_path / f"capture-xl-{gone.pid}-1"
    live = tmp_path / f"capture-xl-{os.getpid()}-2"
    for path in (orphan, live):
        (path / "traces").mkdir(parents=True)
    wl._remove_orphaned_work()
    assert not orphan.exists() and live.exists()


# -- smoke: every workload once, smallest size ---------------------------

def _check_metrics(result: dict, names) -> None:
    units = {m["name"]: m["unit"] for m in names}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_smoke_every_workload_emits_every_metric(tmp_path):
    before = _git_status()
    out = tmp_path / "smoke.json"
    proc = _bench(["run", "--size", "smoke", "--repeats", "1",
                   "--seconds", "1", "--out", out], tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for runs in doc["workloads"].values():
        assert runs[0]["correct"] and runs[0]["failed"] == 0
        _check_metrics(runs[0], SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in runs[0]["metrics"].values())

    for workload in doc["workloads"]:
        proc = _bench(["measure", "--workload", workload, "--size",
                       "smoke", "--seconds", "1", "--trace", "1"],
                      tmp_path)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        _check_metrics(result, SPEC["per_layer"])
    assert not (wl.ROOT / ".bench_tmp").exists()
    if before is not None:
        assert _git_status() == before
