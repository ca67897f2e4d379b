"""Spec file loading: JSON, YAML through PyYAML, format detection and
error surfaces."""

import sys

import pytest

from repro.sweep.cli import main
from repro.sweep.specio import (EXAMPLE_WIRE, SpecIOError,
                                detect_format, example_spec,
                                example_text, load_spec, parse_text,
                                spec_from_doc)

YAML_SPEC = """\
# the example spec, written as YAML
schema_version: 1
name: ladder-mini
kernels: [qrng_K2, pathfinder]
axes:
  mechanism: [static1, operand, valhalla, prev]
  peek: [false, true]
  pc_index: [none, mod]
  pc_bits:
    - 0
    - 4
scale: 1.0
seed: 0
aux: false
"""


class TestLoading:
    def test_yaml_without_pyyaml_names_it(self, monkeypatch, tmp_path,
                                          capsys):
        monkeypatch.setitem(sys.modules, "yaml", None)
        path = tmp_path / "x.yaml"
        path.write_text(YAML_SPEC)
        with pytest.raises(SpecIOError, match="PyYAML") as info:
            load_spec(path)
        assert ".json" in str(info.value)
        assert main(["expand", str(path)]) == 2
        assert str(info.value) in capsys.readouterr().err

    def test_load_spec_yaml_and_json_agree(self, tmp_path):
        pytest.importorskip("yaml")
        ypath = tmp_path / "s.yaml"
        jpath = tmp_path / "s.json"
        ypath.write_text(YAML_SPEC)
        jpath.write_text(example_text())
        yspec, jspec = load_spec(ypath), load_spec(jpath)
        assert yspec == jspec == example_spec()
        assert yspec.digest() == jspec.digest()

    def test_json_example_loads(self):
        assert parse_text(example_text(), "json") == EXAMPLE_WIRE

    def test_bad_json_raises(self):
        with pytest.raises(SpecIOError, match="JSON"):
            parse_text("{nope", "json")

    def test_unknown_format_raises(self):
        with pytest.raises(SpecIOError, match="format"):
            parse_text("{}", "toml")

    def test_detect_format(self):
        assert detect_format("sweep.json") == "json"
        assert detect_format("sweep.yaml") == "yaml"
        assert detect_format("sweep.YML") == "yaml"
        with pytest.raises(SpecIOError):
            detect_format("sweep.txt")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SpecIOError, match="cannot read"):
            load_spec(tmp_path / "absent.json")

    def test_spec_from_doc_requires_mapping(self):
        with pytest.raises(SpecIOError, match="mapping"):
            spec_from_doc(["not", "a", "mapping"])

    def test_wire_errors_carry_source(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "kernels": []}')
        with pytest.raises(SpecIOError, match="bad.json"):
            load_spec(path)

    def test_example_spec_is_valid(self):
        spec = example_spec()
        assert spec.grid_size == 32
        assert spec.name == "ladder-mini"
