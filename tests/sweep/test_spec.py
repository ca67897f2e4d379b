"""SweepSpec wire behaviour and the compositional-name round trip the
grid machinery depends on."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (SCHEMA_VERSION, SWEEP_AXES, SweepSpec,
                       WireError)
from repro.core.speculation import config_name, parse_config_name


def small_spec(**overrides):
    base = dict(name="t", kernels=("qrng_K2",),
                axes=(("mechanism", ("static1", "operand")),
                      ("peek", (False, True))))
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_wire_round_trip(self):
        spec = small_spec(scale=0.5, seed=7, aux=True)
        clone = SweepSpec.from_wire(spec.to_wire())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_future_schema_rejected(self):
        doc = small_spec().to_wire()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(WireError, match="schema"):
            SweepSpec.from_wire(doc)

    def test_unknown_fields_ignored(self):
        doc = small_spec().to_wire()
        doc["totally_new_rider"] = {"x": 1}
        assert SweepSpec.from_wire(doc) == small_spec()

    @pytest.mark.parametrize("engine", ["vec", "interp", "quantum", 7,
                                        None])
    def test_legacy_engine_key_is_ignored(self, engine):
        """Specs written before the single evaluation engine may carry
        an ``engine`` key; any value reads as the same spec (with the
        same digest, so the key never splits resume identity)."""
        doc = small_spec().to_wire()
        doc["engine"] = engine
        assert SweepSpec.from_wire(doc) == small_spec()
        assert SweepSpec.from_wire(doc).digest() == small_spec().digest()

    def test_benchmark_sweep_spec_loads(self):
        """The committed benchmark sweep spec still says
        ``"engine": "vec"`` and must keep loading."""
        from pathlib import Path

        from repro.sweep.specio import load_spec

        path = Path(__file__).resolve().parents[2] / "benchmarks" \
            / "perf" / "sweep.json"
        spec = load_spec(path)
        assert spec.kernels and spec.axes

    def test_pinned_sweep_spec_matches_baseline(self):
        """``BENCH_sweep.json`` pins the counters of the
        ``benchmarks/sweep_ci.json`` sweep under its digest; editing
        the spec without regenerating the baseline fails here."""
        import json
        from pathlib import Path

        from repro.sweep.specio import load_spec

        root = Path(__file__).resolve().parents[2]
        baseline = json.loads((root / "BENCH_sweep.json").read_text())
        spec = load_spec(root / "benchmarks" / "sweep_ci.json")
        assert spec.digest() == baseline["grid"]["sweep_digest"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(WireError, match="unknown axis"):
            small_spec(axes=(("warp_size", (16, 32)),))

    def test_repeated_axis_rejected(self):
        with pytest.raises(WireError, match="repeats"):
            small_spec(axes=(("peek", (False,)), ("peek", (True,))))

    def test_out_of_domain_value_rejected(self):
        with pytest.raises(WireError):
            small_spec(axes=(("mechanism", ("psychic",)),))

    def test_negative_pc_bits_rejected(self):
        with pytest.raises(WireError):
            small_spec(axes=(("pc_bits", (-1,)),))

    def test_empty_axes_rejected(self):
        with pytest.raises(WireError):
            small_spec(axes=())

    def test_grid_size(self):
        spec = small_spec(axes=(("mechanism", ("prev", "static1")),
                                ("pc_index", ("none", "mod")),
                                ("pc_bits", (0, 4))))
        assert spec.grid_size == 8

    def test_invalid_combos_dropped_at_expansion(self):
        """mod-PC indexing with pc_bits=0 is invalid — it is dropped
        by configs(), not rejected at spec construction."""
        spec = small_spec(axes=(("mechanism", ("prev",)),
                                ("pc_index", ("mod",)),
                                ("pc_bits", (0, 4))))
        assert spec.grid_size == 2
        assert [c.name for c in spec.configs()] == ["Prev+ModPC4"]


# -- compositional naming ------------------------------------------------

mechanisms = st.sampled_from(SWEEP_AXES["mechanism"])
pc_indexes = st.sampled_from(SWEEP_AXES["pc_index"])
thread_keys = st.sampled_from(SWEEP_AXES["thread_key"])


@st.composite
def field_combos(draw):
    fields = {
        "mechanism": draw(mechanisms),
        "peek": draw(st.booleans()),
        "pc_index": draw(pc_indexes),
        "thread_key": draw(thread_keys),
        "sm_scoped": draw(st.booleans()),
    }
    fields["pc_bits"] = draw(st.integers(1, 10)) \
        if fields["pc_index"] in ("mod", "xor") else 0
    return fields


class TestNamingRoundTrip:
    @given(field_combos())
    @settings(max_examples=120)
    def test_parse_inverts_config_name(self, fields):
        name = config_name(**fields)
        config = parse_config_name(name)
        parsed = {f: getattr(config, f) for f in fields}
        assert parsed == fields
        assert config.name == name

    def test_token_order_is_free(self):
        assert parse_config_name("Prev+ModPC4+Ltid+Peek").name \
            == parse_config_name("Ltid+Prev+ModPC4+Peek").name

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            parse_config_name("Prev+Warp7")

    def test_spec_grid_configs_all_round_trip(self):
        spec = small_spec(axes=(
            ("mechanism", ("prev", "valhalla", "static0")),
            ("pc_index", ("none", "mod", "xor")),
            ("pc_bits", (0, 2)),
            ("thread_key", ("", "gtid", "ltid"))))
        for config in spec.configs():
            clone = parse_config_name(config.name)
            assert dataclasses.asdict(clone) \
                == dataclasses.asdict(config)
