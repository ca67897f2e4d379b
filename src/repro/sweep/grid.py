"""Sweep-spec expansion: the axis grid, normalisation and provable
equivalence classes.

Two reductions happen here, both *provable from the predictor code*
(:mod:`repro.core.predictors`), never heuristic:

* **Normalisation** — ``pc_bits`` only participates in the history
  index under ``mod``/``xor`` PC indexing (``history_keys`` reads it
  nowhere else), so under ``none``/``full`` it is pinned to 0.  Axis
  combinations that differ only in a dead ``pc_bits`` collapse to one
  config (counted as duplicates).  This is unconditional: the dropped
  combinations are not distinct design points at all.
* **Equivalence classes** — the ``static0``/``static1``/``operand``
  mechanisms are stateless and ``valhalla`` keys its history on the
  trace's gtid internally, so none of them reads ``pc_index`` /
  ``pc_bits`` / ``thread_key`` / ``sm_scoped``: every combination of
  those fields is *result-identical* for a given (mechanism, peek).
  Pruned sweeps execute one representative per class; exhaustive
  sweeps (``--no-prune``) execute every member and verify the claimed
  identity bit-for-bit before merging.

Every config carries its canonical compositional name
(:func:`repro.core.speculation.config_name`), which round-trips
through :func:`~repro.core.speculation.parse_config_name`, so a
sweep config travels as a plain name string (manifests, reports,
``st2-run --configs``, ``st2-serve`` jobs) and still resolves to
identical unit cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.api import SweepSpec
from repro.core.predictors import SpeculationConfig
from repro.core.speculation import config_name

#: Config fields that are dead (never read) for these mechanisms —
#: the provable-equivalence rule.  ``peek`` is live for every
#: mechanism (the Peek overlay applies before any dynamic prediction).
HISTORY_FIELDS = ("pc_index", "pc_bits", "thread_key", "sm_scoped")
HISTORY_FREE_MECHANISMS = ("static0", "static1", "operand", "valhalla")


def normalize_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Pin dead ``pc_bits`` to 0 (``none``/``full`` PC indexing)."""
    out = dict(fields)
    if out["pc_index"] in ("none", "full"):
        out["pc_bits"] = 0
    return out


def canonical_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """The representative field dict of a config's equivalence class."""
    out = normalize_fields(fields)
    if out["mechanism"] in HISTORY_FREE_MECHANISMS:
        out.update(pc_index="none", pc_bits=0, thread_key="",
                   sm_scoped=False)
    return out


def _config(fields: Dict[str, Any]) -> SpeculationConfig:
    return SpeculationConfig(name=config_name(**fields), **fields)


@dataclass(frozen=True)
class ConfigGroup:
    """One equivalence class of the grid.

    ``members`` are every grid config in the class (deterministic grid
    order); ``runner`` is the representative a pruned sweep executes
    (the first member); ``canon`` names the class — the key its
    Pareto point carries in both pruned and exhaustive mode.
    """

    canon: str
    canon_fields_: Tuple[Tuple[str, Any], ...]
    members: Tuple[SpeculationConfig, ...]

    @property
    def runner(self) -> SpeculationConfig:
        return self.members[0]

    @property
    def canon_fields(self) -> Dict[str, Any]:
        return dict(self.canon_fields_)


@dataclass(frozen=True)
class SweepPlan:
    """The executable expansion of one :class:`~repro.api.SweepSpec`."""

    spec: SweepSpec
    kernels: Tuple[str, ...]
    groups: Tuple[ConfigGroup, ...]
    invalid_combos: int
    duplicate_configs: int

    @property
    def n_configs(self) -> int:
        return sum(len(g.members) for g in self.groups)

    @property
    def equivalent_members(self) -> int:
        """Grid configs a pruned sweep skips as provably equivalent."""
        return sum(len(g.members) - 1 for g in self.groups)


def expand_plan(spec: SweepSpec) -> SweepPlan:
    """Expand a spec into kernels × equivalence-classed configs.

    Raises ``KeyError`` on unknown kernel names (mirroring
    ``st2-run``); invalid axis combinations (``mod``/``xor`` with
    ``pc_bits < 1``) are dropped and counted.
    """
    from repro.kernels.suite import resolve_kernels

    kernels = tuple(resolve_kernels(list(spec.kernels)))
    invalid = 0
    duplicates = 0
    by_name: Dict[str, SpeculationConfig] = {}
    classes: Dict[str, List[SpeculationConfig]] = {}
    class_fields: Dict[str, Dict[str, Any]] = {}
    for raw in spec.field_grid():
        fields = normalize_fields(raw)
        try:
            cfg = _config(fields)
        except ValueError:
            invalid += 1
            continue
        if cfg.name in by_name:
            duplicates += 1
            continue
        by_name[cfg.name] = cfg
        canon = canonical_fields(fields)
        key = config_name(**canon)
        classes.setdefault(key, []).append(cfg)
        class_fields.setdefault(key, canon)
    groups = tuple(
        ConfigGroup(canon=key,
                    canon_fields_=tuple(sorted(
                        class_fields[key].items())),
                    members=tuple(members))
        for key, members in classes.items())
    return SweepPlan(spec=spec, kernels=kernels, groups=groups,
                     invalid_combos=invalid,
                     duplicate_configs=duplicates)


__all__ = ["HISTORY_FIELDS", "HISTORY_FREE_MECHANISMS", "ConfigGroup",
           "SweepPlan", "canonical_fields", "expand_plan",
           "normalize_fields"]
