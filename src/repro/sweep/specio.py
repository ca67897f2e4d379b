"""Sweep-spec files: JSON and YAML readers for ``st2-sweep``.

JSON always works.  YAML goes through PyYAML when it is importable and
otherwise falls back to a built-in parser for the *sweep-spec subset*
of YAML — nested mappings by indentation, block lists of scalars
(``- value``), inline lists (``[a, b]``), ``#`` comments, and plain /
quoted scalars with the usual bool/int/float coercions.  That subset
covers every field of a :class:`~repro.api.SweepSpec` document, so
sweep specs stay loadable on machines without PyYAML and the package
never grows a hard dependency.

The parsed document feeds :meth:`SweepSpec.from_wire`, so files follow
the exact wire schema (including ``schema_version`` skew rules);
:class:`SpecIOError` wraps both parse and schema failures with the
file path attached.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.api import SweepSpec, WireError


class SpecIOError(ValueError):
    """A sweep-spec file that cannot be parsed or fails the schema."""


# ----------------------------------------------------------------------
# mini-YAML fallback (sweep-spec subset)
# ----------------------------------------------------------------------

def _unquote(token: str) -> Any:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        if token[0] == '"':
            try:
                return json.loads(token)
            except ValueError:
                raise SpecIOError(f"bad quoted scalar {token!r}")
        return token[1:-1]
    low = token.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    # YAML resolves only null/~ (and empty) as null — bare "none" is a
    # plain string (it is a pc_index axis value), matching PyYAML.
    if low in ("null", "~", ""):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_inline_list(body: str) -> List[Any]:
    items: List[Any] = []
    depth_quote = ""
    current = ""
    for ch in body:
        if depth_quote:
            current += ch
            if ch == depth_quote:
                depth_quote = ""
        elif ch in "\"'":
            depth_quote = ch
            current += ch
        elif ch == ",":
            items.append(current)
            current = ""
        else:
            current += ch
    if depth_quote:
        raise SpecIOError(f"unterminated quote in [{body}]")
    items.append(current)
    items = [item for item in (s.strip() for s in items) if item != ""]
    return [_unquote(item) for item in items]


def _strip_comment(line: str) -> str:
    out = ""
    quote = ""
    for ch in line:
        if quote:
            out += ch
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
            out += ch
        elif ch == "#":
            break
        else:
            out += ch
    return out.rstrip()


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    lines = []
    for raw in text.splitlines():
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise SpecIOError("tabs in indentation are not supported")
        line = _strip_comment(raw)
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        lines.append((indent, line.strip()))
    return lines


def _parse_value(token: str) -> Any:
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        return _split_inline_list(token[1:-1])
    return _unquote(token)


def _parse_block(lines: List[Tuple[int, str]], start: int,
                 indent: int) -> Tuple[Any, int]:
    """Parse the block starting at ``lines[start]`` (all at ``indent``);
    returns ``(value, next_index)``."""
    if lines[start][1].startswith("- ") or lines[start][1] == "-":
        items = []
        i = start
        while i < len(lines) and lines[i][0] == indent \
                and (lines[i][1].startswith("- ")
                     or lines[i][1] == "-"):
            body = lines[i][1][1:].strip()
            if not body:
                raise SpecIOError("empty or nested list items are not "
                                  "supported (scalar items only)")
            items.append(_parse_value(body))
            i += 1
        return items, i
    mapping: Dict[str, Any] = {}
    i = start
    while i < len(lines) and lines[i][0] == indent:
        content = lines[i][1]
        if ":" not in content:
            raise SpecIOError(f"expected 'key: value', got {content!r}")
        key, _, rest = content.partition(":")
        key = _unquote(key)
        if not isinstance(key, str):
            key = str(key)
        rest = rest.strip()
        i += 1
        if rest:
            mapping[key] = _parse_value(rest)
        elif i < len(lines) and lines[i][0] > indent:
            mapping[key], i = _parse_block(lines, i, lines[i][0])
        else:
            mapping[key] = None
    return mapping, i


def mini_yaml(text: str) -> Any:
    """Parse the sweep-spec YAML subset (see module docstring)."""
    lines = _logical_lines(text)
    if not lines:
        return {}
    value, i = _parse_block(lines, 0, lines[0][0])
    if i != len(lines):
        raise SpecIOError(
            f"unparsed trailing content at {lines[i][1]!r} "
            f"(inconsistent indentation?)")
    return value


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
            return mini_yaml(text)
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


def example_text(fmt: str = "yaml") -> str:
    """The example spec rendered as a ready-to-edit file."""
    if fmt == "json":
        return json.dumps(EXAMPLE_WIRE, indent=1) + "\n"
    if fmt != "yaml":
        raise SpecIOError(f"unknown spec format {fmt!r} (json or yaml)")
    lines = [
        "# st2-sweep spec: axes over SpeculationConfig fields,",
        "# crossed with a kernel list (docs/sweeping.md).",
        "schema_version: 1",
        f"name: {EXAMPLE_WIRE['name']}",
        "kernels: [" + ", ".join(EXAMPLE_WIRE["kernels"]) + "]",
        "axes:",
    ]
    for axis, values in EXAMPLE_WIRE["axes"].items():
        rendered = ", ".join(
            "true" if v is True else "false" if v is False else str(v)
            for v in values)
        lines.append(f"  {axis}: [{rendered}]")
    lines += ["scale: 1.0", "seed: 0", "aux: false"]
    return "\n".join(lines) + "\n"


__all__ = ["EXAMPLE_WIRE", "SpecIOError", "detect_format",
           "example_spec", "example_text", "load_spec", "mini_yaml",
           "parse_text", "spec_from_doc"]
