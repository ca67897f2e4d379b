"""The ``repro.api`` wire schemas: round-trips, forward compatibility
and the lossless translation to the ``st2-run`` surface."""

from __future__ import annotations

import pytest

from repro.api import (ERROR_CODES, SCHEMA_VERSION, ErrorEnvelope,
                       JobResult, JobSpec, JobStatus, WireError,
                       is_error)

SPEC = JobSpec(kernels=("qrng_K2", "sortNets_K2"), configs=("st2",),
               scale=0.25, seed=3, aux=False, per_kernel_seeds=True,
               priority=-5, client="ci")


class TestJobSpec:
    def test_round_trip_is_lossless(self):
        assert JobSpec.from_wire(SPEC.to_wire()) == SPEC

    def test_wire_doc_carries_current_version(self):
        assert SPEC.to_wire()["schema_version"] == SCHEMA_VERSION

    def test_unknown_fields_are_ignored(self):
        doc = SPEC.to_wire()
        doc["future_knob"] = {"nested": True}
        doc["another"] = 7
        assert JobSpec.from_wire(doc) == SPEC

    def test_missing_version_reads_as_one(self):
        doc = SPEC.to_wire()
        del doc["schema_version"]
        assert JobSpec.from_wire(doc) == SPEC

    def test_newer_version_rejected(self):
        doc = SPEC.to_wire()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(WireError, match="schema_version"):
            JobSpec.from_wire(doc)

    def test_optional_fields_default(self):
        spec = JobSpec.from_wire({"kernels": ["qrng_K2"]})
        assert spec.configs == ("st2",)
        assert spec.scale == 1.0
        assert spec.client == "anon"

    @pytest.mark.parametrize("engine", ["vec", "interp", "quantum", 7,
                                        None])
    def test_legacy_engine_key_is_ignored(self, engine):
        """Documents from before the single evaluation engine may
        carry an ``engine`` key; any value reads as the same spec."""
        doc = SPEC.to_wire()
        doc["engine"] = engine
        assert JobSpec.from_wire(doc) == SPEC
        assert "engine" not in SPEC.to_wire()

    @pytest.mark.parametrize("doc", [
        "not an object",
        {},                                     # kernels missing
        {"kernels": []},                        # kernels empty
        {"kernels": [1, 2]},                    # not strings
        {"kernels": ["qrng_K2"], "scale": "big"},
        {"kernels": ["qrng_K2"], "scale": -1.0},
        {"kernels": ["qrng_K2"], "seed": 1.5},
        {"kernels": ["qrng_K2"], "seed": True},  # bool is not an int
        {"kernels": ["qrng_K2"], "priority": "high"},
        {"kernels": ["qrng_K2"], "client": 7},
        {"kernels": ["qrng_K2"], "schema_version": "one"},
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(WireError):
            JobSpec.from_wire(doc)

    def test_from_run_args_is_the_inverse(self):
        spec = JobSpec.from_run_args(
            kernels=("qrng_K2", "sortNets_K2"), configs=("st2",),
            scale=0.25, seed=3, aux=False, per_kernel_seeds=True,
            priority=-5, client="ci")
        assert spec == SPEC


class TestTranslation:
    def test_units_match_the_st2_run_grid(self):
        from repro.runner.units import build_units, resolve_configs
        expect = build_units(
            ["qrng_K2", "sortNets_K2"],
            configs=resolve_configs(["st2"]), scale=0.25, seed=3,
            aux=False, per_kernel_seeds=True)
        assert SPEC.units() == expect

    def test_units_share_cache_keys_with_st2_run(self):
        from repro.runner.cache import unit_key
        offline = {unit_key(u, "v0") for u in SPEC.units()}
        served = {unit_key(u, "v0") for u in SPEC.units()}
        assert offline == served

    def test_unknown_kernel_is_a_wire_error(self):
        with pytest.raises(WireError, match="job_spec"):
            JobSpec(kernels=("no_such_kernel",)).units()

    def test_unknown_config_is_a_wire_error(self):
        with pytest.raises(WireError, match="job_spec"):
            JobSpec(kernels=("qrng_K2",),
                    configs=("no_such_config",)).units()

    def test_scheduling_hints_never_reach_unit_identity(self):
        from repro.runner.cache import unit_key
        hinted = JobSpec(kernels=SPEC.kernels, configs=SPEC.configs,
                         scale=SPEC.scale, seed=SPEC.seed,
                         per_kernel_seeds=SPEC.per_kernel_seeds,
                         priority=99, client="someone-else")
        assert [unit_key(u, "v0") for u in SPEC.units()] \
            == [unit_key(u, "v0") for u in hinted.units()]


class TestJobStatus:
    STATUS = JobStatus(job_id="abc123", state="running",
                       units_total=4, units_done=1, units_failed=0,
                       units_cached=1, units_coalesced=2, priority=1,
                       client="ci", submitted_s=10.0, started_s=11.0,
                       finished_s=None, error=None)

    def test_round_trip_is_lossless(self):
        assert JobStatus.from_wire(self.STATUS.to_wire()) == self.STATUS

    def test_unknown_fields_are_ignored(self):
        doc = self.STATUS.to_wire()
        doc["eta_s"] = 12.5
        assert JobStatus.from_wire(doc) == self.STATUS

    def test_terminal_property(self):
        assert not self.STATUS.terminal
        for state in ("done", "failed"):
            doc = dict(self.STATUS.to_wire(), state=state)
            assert JobStatus.from_wire(doc).terminal

    def test_unknown_state_rejected(self):
        with pytest.raises(WireError, match="state"):
            JobStatus(job_id="x", state="paused", units_total=1)

    def test_newer_version_rejected(self):
        doc = dict(self.STATUS.to_wire(),
                   schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(WireError):
            JobStatus.from_wire(doc)


class TestJobResult:
    UNIT = {"kernel": "qrng_K2", "scale": 0.25, "seed": 0,
            "config": "Ltid+Prev+ModPC4+Peek", "config_fields": {},
            "metrics": {"slowdown": 0.01}, "energy_stacks": {},
            "wall_time_s": 0.1, "capture_time_s": 0.05,
            "eval_time_s": 0.05, "trace_cache_hit": False,
            "trace_rows": 10, "trace_bytes": 80, "n_static_pcs": 2}
    RESULT = JobResult(job_id="abc123", units=(UNIT,),
                       meta={"engine": "auto"})

    def test_round_trip_is_lossless(self):
        again = JobResult.from_wire(self.RESULT.to_wire())
        assert again.job_id == self.RESULT.job_id
        assert again.meta == self.RESULT.meta
        assert list(again.units) == [self.UNIT]

    def test_units_are_copied_not_aliased(self):
        doc = self.RESULT.to_wire()
        again = JobResult.from_wire(doc)
        doc["units"][0]["kernel"] = "mutated"
        assert again.units[0]["kernel"] == "qrng_K2"

    def test_run_results_are_typed_views(self):
        views = self.RESULT.run_results()
        assert views[0].kernel == "qrng_K2"
        assert views[0].metrics.slowdown == 0.01

    def test_malformed_units_rejected(self):
        with pytest.raises(WireError, match="units"):
            JobResult.from_wire({"job_id": "x", "units": ["str"]})
        with pytest.raises(WireError, match="meta"):
            JobResult.from_wire({"job_id": "x", "units": [],
                                 "meta": 3})


class TestErrorEnvelope:
    def test_round_trip_is_lossless(self):
        env = ErrorEnvelope(code="backpressure", message="full",
                            retry_after_s=2.5, detail="queue at 4096")
        assert ErrorEnvelope.from_wire(env.to_wire()) == env

    def test_every_code_is_constructible(self):
        for code in ERROR_CODES:
            env = ErrorEnvelope(code=code, message="m")
            assert ErrorEnvelope.from_wire(env.to_wire()).code == code

    def test_unknown_code_rejected(self):
        with pytest.raises(WireError, match="code"):
            ErrorEnvelope(code="weird", message="m")

    def test_is_error_discriminates_bodies(self):
        env = ErrorEnvelope(code="pending", message="wait")
        assert is_error(env.to_wire())
        assert not is_error(SPEC.to_wire())
        assert not is_error("nope")
