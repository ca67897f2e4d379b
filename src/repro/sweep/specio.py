"""Sweep-spec files: JSON and YAML readers for ``st2-sweep``.

JSON always works.  YAML goes through PyYAML's ``safe_load``; without
PyYAML a ``.yaml``/``.yml`` spec is a :class:`SpecIOError` that says
so, and the package never grows a hard dependency.

The parsed document feeds :meth:`SweepSpec.from_wire`, so files follow
the exact wire schema (including ``schema_version`` skew rules);
:class:`SpecIOError` wraps both parse and schema failures with the
file path attached.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.api import SweepSpec, WireError


class SpecIOError(ValueError):
    """A sweep-spec file that cannot be parsed or fails the schema."""


# ----------------------------------------------------------------------
# document loading
# ----------------------------------------------------------------------

def parse_text(text: str, fmt: str) -> Any:
    """Parse spec text as ``json`` or ``yaml``."""
    if fmt == "json":
        try:
            return json.loads(text)
        except ValueError as exc:
            raise SpecIOError(f"invalid JSON: {exc}") from None
    if fmt == "yaml":
        try:
            import yaml
        except ImportError:
            raise SpecIOError(
                "YAML specs need PyYAML (pip install pyyaml); "
                "or write the spec as .json") from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SpecIOError(f"invalid YAML: {exc}") from None
    raise SpecIOError(f"unknown spec format {fmt!r} (json or yaml)")


def detect_format(path: Any) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".yaml", ".yml"):
        return "yaml"
    raise SpecIOError(
        f"cannot infer spec format from {Path(path).name!r} "
        f"(use .json / .yaml / .yml)")


def spec_from_doc(doc: Any, source: str = "<doc>") -> SweepSpec:
    """A parsed document to a validated :class:`SweepSpec`."""
    if not isinstance(doc, dict):
        raise SpecIOError(f"{source}: expected a mapping at top level, "
                          f"got {type(doc).__name__}")
    try:
        return SweepSpec.from_wire(doc)
    except WireError as exc:
        raise SpecIOError(f"{source}: {exc}") from None


def load_spec(path: Any, fmt: str = None) -> SweepSpec:
    """Load and validate a sweep spec file (format from extension
    unless forced)."""
    path = Path(path)
    fmt = fmt if fmt is not None else detect_format(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecIOError(f"cannot read {path}: {exc}") from None
    return spec_from_doc(parse_text(text, fmt), source=str(path))


# ----------------------------------------------------------------------
# examples (``st2-sweep example``)
# ----------------------------------------------------------------------

#: The example sweep: the paper's mechanism ladder crossed with the
#: peek overlay and PC indexing depth on two short kernels.
EXAMPLE_WIRE: Dict[str, Any] = {
    "schema_version": 1,
    "name": "ladder-mini",
    "kernels": ["qrng_K2", "pathfinder"],
    "axes": {
        "mechanism": ["static1", "operand", "valhalla", "prev"],
        "peek": [False, True],
        "pc_index": ["none", "mod"],
        "pc_bits": [0, 4],
    },
    "scale": 1.0,
    "seed": 0,
    "aux": False,
}


def example_spec() -> SweepSpec:
    return SweepSpec.from_wire(EXAMPLE_WIRE)


def example_text() -> str:
    """The example spec rendered as a ready-to-edit JSON file."""
    return json.dumps(EXAMPLE_WIRE, indent=1) + "\n"


__all__ = ["EXAMPLE_WIRE", "SpecIOError", "detect_format",
           "example_spec", "example_text", "load_spec", "parse_text",
           "spec_from_doc"]
