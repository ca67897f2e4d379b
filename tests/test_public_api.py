"""Public-API surface: everything documented in README must import and
compose the way the examples show."""

from pathlib import Path

import numpy as np
import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]
LAZY_PACKAGES = ["repro", "repro.sim", "repro.st2", "repro.power"]


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_readme_snippet_runs(self):
        """The exact flow from README's quickstart."""
        from repro import (GridLauncher, LaunchConfig, ST2_DESIGN,
                           run_speculation)

        def saxpy(k, a, x, y, out, n):
            i = k.global_id()
            with k.where(k.lt(i, n)):
                xi = k.ld_global(x, i)
                yi = k.ld_global(y, i)
                k.st_global(out, i, k.ffma(a, xi, yi))

        launcher = GridLauncher(seed=0)
        x = launcher.buffer("x", np.random.rand(512).astype(np.float32))
        y = launcher.buffer("y", np.random.rand(512).astype(np.float32))
        out = launcher.buffer("out", np.zeros(512, np.float32))
        run = launcher.run(saxpy, LaunchConfig(4, 128), a=2.0, x=x, y=y,
                           out=out, n=512)
        result = run_speculation(run.trace, ST2_DESIGN)
        assert 0.0 <= result.thread_misprediction_rate <= 1.0
        assert np.allclose(out.data, 2.0 * x.data + y.data, rtol=1e-5)


class TestSweepApi:
    """The sweep surface exported at the top level (PR 9)."""

    def test_sweep_names_export(self):
        from repro import ParetoPoint, SweepResult, SweepSpec
        assert SweepSpec is not None
        assert ParetoPoint is not None
        assert SweepResult is not None

    def test_sweep_spec_round_trip(self):
        from repro import SweepSpec
        spec = SweepSpec(name="api-demo", kernels=("qrng_K2",),
                         axes=(("mechanism", ("static1", "operand")),
                               ("peek", (False, True))),
                         scale=0.5, seed=3)
        clone = SweepSpec.from_wire(spec.to_wire())
        assert clone == spec
        assert clone.digest() == spec.digest()
        assert spec.grid_size == 4

    def test_pareto_point_round_trip(self):
        from repro import ParetoPoint
        point = ParetoPoint(
            key="staticOne",
            objectives={"energy_saved": 0.1,
                        "misprediction_rate": 0.2,
                        "perf_overhead": 0.01},
            members=("staticOne",))
        assert ParetoPoint.from_wire(point.to_wire()) == point


class TestSubpackageApi:
    def test_core_exports(self):
        import repro.core as core
        for name in core.__all__:
            assert hasattr(core, name), name

    def test_sim_exports(self):
        import repro.sim as sim
        for name in sim.__all__:
            assert hasattr(sim, name), name

    def test_power_exports(self):
        import repro.power as power
        for name in power.__all__:
            assert hasattr(power, name), name

    def test_st2_exports(self):
        import repro.st2 as st2
        for name in st2.__all__:
            assert hasattr(st2, name), name

    def test_circuits_exports(self):
        import repro.circuits as circuits
        for name in circuits.__all__:
            assert hasattr(circuits, name), name

    def test_analysis_and_isa_exports(self):
        import repro.analysis as analysis
        import repro.isa as isa
        for mod in (analysis, isa):
            for name in mod.__all__:
                assert hasattr(mod, name), name


class TestLazyExports:
    """The PEP 562 surface of the lazily-exporting packages."""

    @pytest.fixture(scope="class")
    def prose(self):
        return ((REPO / "README.md").read_text()
                + (REPO / "DESIGN.md").read_text())

    @pytest.mark.parametrize("modname", LAZY_PACKAGES)
    def test_every_export_importable_and_documented(self, modname,
                                                    prose):
        """Each lazily-exported name resolves to a real object that is
        documented — its own docstring, or a mention in README/DESIGN."""
        import importlib
        mod = importlib.import_module(modname)
        for name in mod.__all__:
            value = getattr(mod, name)
            assert value is not None, f"{modname}.{name}"
            documented = bool(getattr(value, "__doc__", None)) \
                or name in prose
            assert documented, \
                f"{modname}.{name} has no docstring and is not " \
                "mentioned in README.md/DESIGN.md"

    @pytest.mark.parametrize("modname", LAZY_PACKAGES)
    def test_dir_covers_all(self, modname):
        import importlib
        mod = importlib.import_module(modname)
        assert set(mod.__all__) <= set(dir(mod))

    @pytest.mark.parametrize("modname", LAZY_PACKAGES)
    def test_unknown_attribute_raises(self, modname):
        import importlib
        mod = importlib.import_module(modname)
        with pytest.raises(AttributeError, match="no_such_name"):
            mod.no_such_name

    def test_import_is_light(self):
        """``import repro.st2`` must not drag in the power stack (the
        point of lazy exports: cache-hit runner paths stay cheap)."""
        code = ("import sys; import repro.st2; "
                "sys.exit(1 if 'repro.power.model' in sys.modules "
                "else 0)")
        assert _fresh_process(code).returncode == 0

    def test_cli_paths_never_import_scipy(self):
        """The CLIs and the model bundle every unit builds run on numpy
        alone: the calibrated model is committed data, not a fit."""
        code = ("import sys\n"
                "import repro.runner.cli, repro.sweep.cli, "
                "repro.serve.cli, repro.report\n"
                "from repro.runner.units import ModelBundle\n"
                "ModelBundle().ensure()\n"
                "sys.exit('scipy' in sys.modules)\n")
        assert _fresh_process(code).returncode == 0


def _fresh_process(code: str):
    """Run ``code`` in a new interpreter on this checkout's sources."""
    import os
    import subprocess
    import sys
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})


class TestTensorGemmExtension:
    def test_runs_and_traces(self):
        from repro.kernels import tensor_gemm
        prep = tensor_gemm.prepare(scale=0.5, seed=0)
        run = prep.run()
        assert len(run.trace) > 100
        # HMMA ops present but not adder-class
        from repro.isa.opcodes import Opcode
        counts = run.insts.counts_by_opcode()
        assert Opcode.HMMA in counts
        assert not Opcode.HMMA.is_adder_op

    def test_epilogue_math(self):
        from repro.kernels import tensor_gemm
        prep = tensor_gemm.prepare(scale=0.5, seed=1)
        c = prep.params["c"].data.copy()
        d0 = prep.params["d"].data.copy()
        prep.run()
        d = prep.params["d"].data
        expect = 1.0 * c + 0.8 * d0
        assert np.allclose(d, expect, rtol=1e-5)
