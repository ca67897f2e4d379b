"""``st2-sweep report``: render a ``sweep.json`` frontier report.

Everything here works from the :class:`~repro.sweep.engine.SweepResult`
wire document alone — no manifest, no re-execution.  Per-axis
sensitivity is recovered by parsing each completed point's member
names back into :class:`~repro.core.predictors.SpeculationConfig`
fields (:func:`~repro.core.speculation.parse_config_name`), so the
report never needs the original spec expansion machinery.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.speculation import parse_config_name
from repro.sweep.engine import SweepResult
from repro.sweep.pareto import OBJECTIVES, ParetoPoint

#: Objective display order and headers.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("energy_saved", "energy saved"),
    ("misprediction_rate", "mispred rate"),
    ("perf_overhead", "slowdown"),
)


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    return f"{value:.4f}"


def member_rows(result: SweepResult
                ) -> List[Tuple[str, Dict[str, Any],
                                Mapping[str, float]]]:
    """Every *completed* grid config as ``(name, fields, objectives)``.

    Each member of a class carries the class objectives — that is the
    provable-equivalence contract, verified bit-for-bit by exhaustive
    runs.  Domination-pruned configs have no objectives and are
    excluded (the report states how many)."""
    rows = []
    for point in result.points:
        members = point.members if point.members else (point.key,)
        for name in members:
            fields = asdict(parse_config_name(name))
            fields.pop("name", None)
            rows.append((name, fields, point.objectives))
    return rows


def axis_sensitivity(result: SweepResult
                     ) -> Dict[str, Dict[Any, Dict[str, float]]]:
    """Mean objectives per swept-axis value over completed configs.

    ``{axis: {value: {objective: mean}}}``, axes in spec order,
    values in spec order.  The spread of the per-value means is the
    axis's first-order sensitivity.

    Every swept axis appears in the output, including *collapsed*
    (dead) axes — axes whose every config landed in a single
    equivalence class, so at most one value has any completed config
    (e.g. the history axes under history-free mechanisms).  Such an
    axis maps to fewer than two values; the report renders it as an
    explicit "collapsed (dead axis)" row instead of a table.
    """
    rows = member_rows(result)
    out: Dict[str, Dict[Any, Dict[str, float]]] = {}
    for axis, values in result.spec.axes:
        per_value: Dict[Any, Dict[str, float]] = {}
        for value in values:
            picked = [objs for _, fields, objs in rows
                      if fields.get(axis) == value]
            if not picked:
                continue
            per_value[value] = {
                name: sum(o[name] for o in picked) / len(picked)
                for name in OBJECTIVES}
        out[axis] = per_value
    return out


def _point_table(points: Tuple[ParetoPoint, ...],
                 title: str) -> List[str]:
    lines = [f"## {title}", ""]
    if not points:
        return lines + ["(empty)", ""]
    header = "| config class | " \
        + " | ".join(label for _, label in _COLUMNS) \
        + " | members |"
    rule = "|---" * (len(_COLUMNS) + 2) + "|"
    lines += [header, rule]
    ordered = sorted(
        points,
        key=lambda p: -p.objectives.get("energy_saved", float("-inf")))
    for point in ordered:
        cells = " | ".join(_fmt(float(point.objectives[name]))
                           for name, _ in _COLUMNS)
        lines.append(f"| `{point.key}` | {cells} | "
                     f"{max(1, len(point.members))} |")
    return lines + [""]


def _sensitivity_section(result: SweepResult) -> List[str]:
    sensitivity = axis_sensitivity(result)
    lines = ["## Per-axis sensitivity",
             "",
             "Mean objectives over every completed config holding the "
             "axis value (other axes marginalised).",
             ""]
    if not sensitivity:
        return lines + ["(no swept axes)", ""]
    for axis, per_value in sensitivity.items():
        lines += [f"### `{axis}`", ""]
        if len(per_value) < 2:
            # every completed config holds one value of this axis
            # (or none at all): there is nothing to compare, but
            # silence would read as "axis not swept" — say so.
            survivor = next(iter(per_value), None)
            tail = (f"every completed config holds "
                    f"`{survivor!r}`" if per_value
                    else "no completed config exposes this axis")
            lines += [f"collapsed (dead axis): {tail} — the axis "
                      f"cannot affect the objectives on this grid",
                      ""]
            continue
        header = "| value | " \
            + " | ".join(label for _, label in _COLUMNS) + " |"
        lines += [header, "|---" * (len(_COLUMNS) + 1) + "|"]
        for value, means in per_value.items():
            cells = " | ".join(_fmt(means[name])
                               for name, _ in _COLUMNS)
            lines.append(f"| `{value!r}` | {cells} |")
        spread = max(means["energy_saved"]
                     for means in per_value.values()) \
            - min(means["energy_saved"]
                  for means in per_value.values())
        lines += ["",
                  f"energy-saved spread across `{axis}` values: "
                  f"{_fmt(spread)}", ""]
    return lines


def render_report(result: SweepResult) -> str:
    """The full markdown report of one sweep result."""
    spec = result.spec
    n_pruned_dom = sum(1 for info in result.pruned.values()
                       if info.get("reason") == "dominated")
    n_pruned_eq = sum(1 for info in result.pruned.values()
                      if info.get("reason") == "equivalent")
    lines = [
        f"# Sweep report: {spec.name}",
        "",
        f"- kernels: {', '.join(result.kernels)}",
        f"- axes: " + ", ".join(
            f"{axis}×{len(values)}" for axis, values in spec.axes),
        f"- grid: {spec.grid_size} combinations "
        f"({result.invalid_combos} invalid, "
        f"{result.duplicate_configs} duplicate), "
        f"{len(result.points)} completed config classes",
        f"- pruning "
        f"{'on' if result.prune else 'off (exhaustive)'}, "
        f"{'complete' if result.complete else 'INCOMPLETE (budget)'}",
        f"- units: {result.executed_units} executed, "
        f"{result.reused_units} reused from manifest, "
        f"{result.skipped_units} skipped by pruning",
        f"- pruned configs: {n_pruned_eq} provably equivalent, "
        f"{n_pruned_dom} dominated "
        f"(excluded from sensitivity means)",
        f"- manifest: `{result.manifest}`",
        "",
    ]
    lines += _point_table(result.frontier, "Pareto frontier "
                          f"({len(result.frontier)} points)")
    lines += _sensitivity_section(result)
    completed = tuple(p for p in result.points
                      if p.key not in {f.key for f in result.frontier})
    if completed:
        lines += _point_table(
            completed, f"Dominated points ({len(completed)})")
    return "\n".join(lines).rstrip() + "\n"


__all__ = ["axis_sensitivity", "member_rows", "render_report"]
