"""``repro.api`` — the typed, versioned wire schemas of ``st2-serve``.

Both sides of the experiment service import this module and nothing
else from each other: the server (:mod:`repro.serve`) parses submitted
:class:`JobSpec` documents and emits :class:`JobStatus` /
:class:`JobResult` / :class:`ErrorEnvelope` documents; the client
(:mod:`repro.serve.client`, ``st2-client``) does the reverse.  Every
document is a flat JSON object carrying an explicit
``schema_version``, so the two ends can evolve independently.

Versioning policy
-----------------

* ``SCHEMA_VERSION`` is bumped whenever a field changes meaning or a
  required field is added.  Documents carry the version they were
  written with.
* **Readers are tolerant**: unknown fields are ignored (a newer peer
  may have added optional fields), and a missing ``schema_version``
  reads as version 1.  A document from a *newer major* version than
  the reader supports is rejected with :class:`WireError` — silently
  reinterpreting it could corrupt results.
* **Writers are exact**: :meth:`~JobSpec.to_wire` emits every field,
  current version included.

Lossless translation
--------------------

A :class:`JobSpec` is exactly the experiment-defining subset of the
``st2-run`` surface: it expands to the same
:class:`~repro.runner.units.UnitSpec` grid via :meth:`JobSpec.units`,
so a served :class:`JobResult` is ``results_equal`` to what ``st2-run``
computes offline for the same grid — the equivalence the serve-smoke
CI job enforces.  (Documents written before the evaluation engine
became the only one may carry an ``"engine"`` key; like any unknown
field it is ignored.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:                   # pragma: no cover - typing only
    from repro.runner.units import UnitSpec
    from repro.st2.results import RunResult

#: Version of every wire document this module reads and writes.
SCHEMA_VERSION = 1

#: Job lifecycle states a :class:`JobStatus` may carry.
JOB_STATES = ("queued", "running", "done", "failed")

#: Terminal states — the job will never change again.
TERMINAL_STATES = ("done", "failed")

#: Machine-readable error codes an :class:`ErrorEnvelope` may carry.
ERROR_CODES = ("bad_request", "not_found", "pending", "quota_exhausted",
               "backpressure", "draining", "internal")


class WireError(ValueError):
    """A wire document failed validation (shape, types or version)."""


def valid_scale(value: Any) -> bool:
    """Whether ``value`` is a usable workload scale: a finite, positive
    real number.  The one check behind :class:`JobSpec`,
    :class:`SweepSpec` and the ``--scale`` of ``st2-run``,
    ``st2-trace capture`` and ``st2-report``."""
    return (isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _check_version(doc: Mapping[str, Any], kind: str) -> int:
    version = doc.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireError(f"{kind}: schema_version must be an int, "
                        f"got {version!r}")
    if version > SCHEMA_VERSION:
        raise WireError(
            f"{kind}: document is schema_version {version}, this end "
            f"only speaks <= {SCHEMA_VERSION}")
    return version


def _string_tuple(doc: Mapping[str, Any], kind: str,
                  name: str) -> Tuple[str, ...]:
    value = doc.get(name)
    if not isinstance(value, (list, tuple)) or not value \
            or not all(isinstance(v, str) for v in value):
        raise WireError(f"{kind}: {name!r} must be a non-empty list "
                        f"of strings, got {value!r}")
    return tuple(value)


def _number(value: Any, kind: str, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{kind}: {name!r} must be a number, "
                        f"got {value!r}")
    return float(value)


def _integer(value: Any, kind: str, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{kind}: {name!r} must be an int, "
                        f"got {value!r}")
    return value


@dataclass(frozen=True)
class JobSpec:
    """One submitted experiment grid: (kernels × configs) at a fixed
    scale and seed — the client-side mirror of the ``st2-run`` work
    list flags.

    ``priority`` orders jobs in the server's queue (lower runs
    sooner); ``client`` attributes the job to a quota bucket.  Both
    are scheduling hints, not experiment identity: they never reach
    the unit cache keys.
    """

    kernels: Tuple[str, ...]
    configs: Tuple[str, ...] = ("st2",)
    scale: float = 1.0
    seed: int = 0
    aux: bool = False
    per_kernel_seeds: bool = False
    priority: int = 0
    client: str = "anon"

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WireError("job_spec: kernels must be non-empty")
        if not valid_scale(self.scale):
            raise WireError(f"job_spec: scale must be finite and "
                            f"positive, got {self.scale!r}")

    # -- wire form -----------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kernels": list(self.kernels),
            "configs": list(self.configs),
            "scale": self.scale,
            "seed": self.seed,
            "aux": self.aux,
            "per_kernel_seeds": self.per_kernel_seeds,
            "priority": self.priority,
            "client": self.client,
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "JobSpec":
        """Parse a wire document; unknown fields are ignored."""
        if not isinstance(doc, Mapping):
            raise WireError(f"job_spec: expected an object, "
                            f"got {type(doc).__name__}")
        _check_version(doc, "job_spec")
        kernels = _string_tuple(doc, "job_spec", "kernels")
        configs = _string_tuple(doc, "job_spec", "configs") \
            if "configs" in doc else ("st2",)
        client = doc.get("client", "anon")
        if not isinstance(client, str):
            raise WireError("job_spec: client must be a string")
        return cls(
            kernels=kernels, configs=configs,
            scale=_number(doc.get("scale", 1.0), "job_spec", "scale"),
            seed=_integer(doc.get("seed", 0), "job_spec", "seed"),
            aux=bool(doc.get("aux", False)),
            per_kernel_seeds=bool(doc.get("per_kernel_seeds", False)),
            priority=_integer(doc.get("priority", 0), "job_spec",
                              "priority"),
            client=client)

    # -- translation to the runner surface -----------------------------

    def units(self) -> "List[UnitSpec]":
        """Expand to the exact :class:`UnitSpec` grid ``st2-run``
        would build for the same flags (kernel groups and config
        aliases resolve identically).  Raises :class:`WireError` on
        unknown kernels or configs."""
        from repro.runner.units import build_units, resolve_configs

        try:
            configs = resolve_configs(list(self.configs))
            return build_units(
                list(self.kernels), configs=configs, scale=self.scale,
                seed=self.seed, aux=self.aux,
                per_kernel_seeds=self.per_kernel_seeds)
        except KeyError as exc:
            raise WireError(f"job_spec: {exc.args[0]}") from None

    @classmethod
    def from_run_args(cls, kernels: Tuple[str, ...],
                      configs: Tuple[str, ...], scale: float = 1.0,
                      seed: int = 0, aux: bool = False,
                      per_kernel_seeds: bool = False, priority: int = 0,
                      client: str = "anon") -> "JobSpec":
        """The inverse translation: build a spec from the ``st2-run``
        style grid arguments (used by ``st2-client``)."""
        return cls(kernels=tuple(kernels), configs=tuple(configs),
                   scale=scale, seed=seed, aux=aux,
                   per_kernel_seeds=per_kernel_seeds,
                   priority=priority, client=client)


#: SpeculationConfig fields a :class:`SweepSpec` may place axes over,
#: with the value domain of each (``None`` marks free integer axes).
SWEEP_AXES: Dict[str, Optional[Tuple[Any, ...]]] = {
    "mechanism": ("static0", "static1", "operand", "valhalla", "prev"),
    "peek": (False, True),
    "pc_index": ("none", "full", "mod", "xor"),
    "pc_bits": None,
    "thread_key": ("", "gtid", "ltid"),
    "sm_scoped": (False, True),
}

#: Axis value assumed when a :class:`SweepSpec` omits the axis — the
#: :class:`~repro.core.predictors.SpeculationConfig` field defaults.
SWEEP_AXIS_DEFAULTS: Dict[str, Any] = {
    "mechanism": "prev", "peek": False, "pc_index": "none",
    "pc_bits": 0, "thread_key": "", "sm_scoped": False,
}


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design-space sweep: a grid of axis values over
    :class:`~repro.core.predictors.SpeculationConfig` fields, crossed
    with a kernel list at a fixed scale and seed.

    The axes expand to the cartesian product of their values; field
    combinations the config model rejects (``mod``/``xor`` PC indexing
    with ``pc_bits < 1``) are dropped at expansion, not submission.
    ``st2-sweep`` consumes these specs from YAML/JSON files; the wire
    form follows the same ``schema_version`` skew rules as
    :class:`JobSpec`.
    """

    kernels: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    name: str = "sweep"
    scale: float = 1.0
    seed: int = 0
    aux: bool = False

    def __post_init__(self) -> None:
        if not self.kernels \
                or not all(isinstance(k, str) for k in self.kernels):
            raise WireError("sweep_spec: kernels must be a non-empty "
                            "list of strings")
        if not self.name or not isinstance(self.name, str):
            raise WireError("sweep_spec: name must be a non-empty "
                            "string")
        if not valid_scale(self.scale):
            raise WireError(f"sweep_spec: scale must be finite and "
                            f"positive, got {self.scale!r}")
        if not self.axes:
            raise WireError("sweep_spec: axes must name at least one "
                            "swept field")
        seen = set()
        for entry in self.axes:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise WireError("sweep_spec: axes must be (name, "
                                "values) pairs")
            axis, values = entry
            if axis not in SWEEP_AXES:
                raise WireError(
                    f"sweep_spec: unknown axis {axis!r}; choose from "
                    f"{tuple(SWEEP_AXES)}")
            if axis in seen:
                raise WireError(f"sweep_spec: axis {axis!r} repeats")
            seen.add(axis)
            if not isinstance(values, tuple) or not values:
                raise WireError(f"sweep_spec: axis {axis!r} needs a "
                                f"non-empty list of values")
            if len(set(values)) != len(values):
                raise WireError(f"sweep_spec: axis {axis!r} repeats "
                                f"values")
            domain = SWEEP_AXES[axis]
            for value in values:
                if domain is None:
                    if isinstance(value, bool) \
                            or not isinstance(value, int) or value < 0:
                        raise WireError(
                            f"sweep_spec: axis {axis!r} values must "
                            f"be non-negative ints, got {value!r}")
                elif value not in domain:
                    raise WireError(
                        f"sweep_spec: axis {axis!r} value {value!r} "
                        f"not in {domain}")

    # -- derived views --------------------------------------------------

    @property
    def axes_dict(self) -> Dict[str, Tuple[Any, ...]]:
        """The axes as an ordered ``{field: values}`` mapping."""
        return {axis: values for axis, values in self.axes}

    @property
    def grid_size(self) -> int:
        """Cartesian-product size before invalid combos are dropped."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def field_grid(self) -> "List[Dict[str, Any]]":
        """Every axis combination as a full SpeculationConfig field
        dict (omitted axes pinned to their defaults), in deterministic
        row-major order.  Includes combinations the config model will
        reject — :func:`repro.sweep.grid.expand_plan` filters those."""
        import itertools

        axes = self.axes_dict
        names = list(axes)
        rows = []
        for combo in itertools.product(*(axes[n] for n in names)):
            fields = dict(SWEEP_AXIS_DEFAULTS)
            fields.update(dict(zip(names, combo)))
            rows.append(fields)
        return rows

    def digest(self) -> str:
        """Content hash of the wire form — the resume-compatibility
        key a sweep manifest records."""
        import hashlib
        import json

        blob = json.dumps(self.to_wire(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- wire form -----------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "kernels": list(self.kernels),
            "axes": {axis: list(values) for axis, values in self.axes},
            "scale": self.scale,
            "seed": self.seed,
            "aux": self.aux,
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "SweepSpec":
        """Parse a wire document; unknown fields are ignored."""
        if not isinstance(doc, Mapping):
            raise WireError(f"sweep_spec: expected an object, "
                            f"got {type(doc).__name__}")
        _check_version(doc, "sweep_spec")
        kernels = _string_tuple(doc, "sweep_spec", "kernels")
        axes_doc = doc.get("axes")
        if not isinstance(axes_doc, Mapping) or not axes_doc:
            raise WireError("sweep_spec: axes must be a non-empty "
                            "object of {field: [values]}")
        axes = []
        for axis, values in axes_doc.items():
            if not isinstance(values, (list, tuple)):
                raise WireError(f"sweep_spec: axis {axis!r} values "
                                f"must be a list, got {values!r}")
            axes.append((axis, tuple(values)))
        name = doc.get("name", "sweep")
        if not isinstance(name, str):
            raise WireError("sweep_spec: name must be a string")
        return cls(
            kernels=kernels, axes=tuple(axes), name=name,
            scale=_number(doc.get("scale", 1.0), "sweep_spec", "scale"),
            seed=_integer(doc.get("seed", 0), "sweep_spec", "seed"),
            aux=bool(doc.get("aux", False)))


@dataclass(frozen=True)
class JobStatus:
    """One job's lifecycle snapshot, as served by ``GET /v1/jobs/<id>``
    and streamed by ``GET /v1/jobs/<id>/events``."""

    job_id: str
    state: str
    units_total: int
    units_done: int = 0
    units_failed: int = 0
    units_cached: int = 0
    units_coalesced: int = 0
    priority: int = 0
    client: str = "anon"
    submitted_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise WireError(f"job_status: unknown state "
                            f"{self.state!r}; one of {JOB_STATES}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "units_cached": self.units_cached,
            "units_coalesced": self.units_coalesced,
            "priority": self.priority,
            "client": self.client,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "JobStatus":
        if not isinstance(doc, Mapping):
            raise WireError(f"job_status: expected an object, "
                            f"got {type(doc).__name__}")
        _check_version(doc, "job_status")
        job_id = doc.get("job_id")
        state = doc.get("state")
        if not isinstance(job_id, str) or not isinstance(state, str):
            raise WireError("job_status: job_id and state must be "
                            "strings")
        optional = {}
        for name in ("started_s", "finished_s"):
            value = doc.get(name)
            optional[name] = None if value is None \
                else _number(value, "job_status", name)
        error = doc.get("error")
        if error is not None and not isinstance(error, str):
            raise WireError("job_status: error must be a string or "
                            "null")
        return cls(
            job_id=job_id, state=state,
            units_total=_integer(doc.get("units_total", 0),
                                 "job_status", "units_total"),
            units_done=_integer(doc.get("units_done", 0),
                                "job_status", "units_done"),
            units_failed=_integer(doc.get("units_failed", 0),
                                  "job_status", "units_failed"),
            units_cached=_integer(doc.get("units_cached", 0),
                                  "job_status", "units_cached"),
            units_coalesced=_integer(doc.get("units_coalesced", 0),
                                     "job_status", "units_coalesced"),
            priority=_integer(doc.get("priority", 0), "job_status",
                              "priority"),
            client=str(doc.get("client", "anon")),
            submitted_s=_number(doc.get("submitted_s", 0.0),
                                "job_status", "submitted_s"),
            started_s=optional["started_s"],
            finished_s=optional["finished_s"],
            error=error)


@dataclass(frozen=True)
class JobResult:
    """A finished job's payload: the unit result dicts (exactly the
    :data:`~repro.runner.units.RESULT_SCHEMA` payloads ``st2-run``
    caches and manifests) plus the job-level metadata header."""

    job_id: str
    units: Tuple[Dict[str, Any], ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "meta": dict(self.meta),
            "units": [dict(unit) for unit in self.units],
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "JobResult":
        if not isinstance(doc, Mapping):
            raise WireError(f"job_result: expected an object, "
                            f"got {type(doc).__name__}")
        _check_version(doc, "job_result")
        job_id = doc.get("job_id")
        units = doc.get("units")
        meta = doc.get("meta", {})
        if not isinstance(job_id, str):
            raise WireError("job_result: job_id must be a string")
        if not isinstance(units, list) \
                or not all(isinstance(u, dict) for u in units):
            raise WireError("job_result: units must be a list of "
                            "objects")
        if not isinstance(meta, dict):
            raise WireError("job_result: meta must be an object")
        return cls(job_id=job_id,
                   units=tuple(dict(u) for u in units),
                   meta=dict(meta))

    def run_results(self) -> "List[RunResult]":
        """The units as typed :class:`~repro.st2.results.RunResult`
        views — the same objects ``run_units`` returns."""
        from repro.st2.results import RunResult

        return [RunResult(dict(unit)) for unit in self.units]


@dataclass(frozen=True)
class ErrorEnvelope:
    """Every non-2xx server response body.

    ``retry_after_s`` is set on backpressure/quota rejections (it also
    rides in the HTTP ``Retry-After`` header); ``detail`` is free-form
    diagnostic context.
    """

    code: str
    message: str
    retry_after_s: Optional[float] = None
    detail: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise WireError(f"error: unknown code {self.code!r}; "
                            f"one of {ERROR_CODES}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "error": self.code,
            "message": self.message,
            "retry_after_s": self.retry_after_s,
            "detail": self.detail,
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "ErrorEnvelope":
        if not isinstance(doc, Mapping):
            raise WireError(f"error: expected an object, "
                            f"got {type(doc).__name__}")
        _check_version(doc, "error")
        code = doc.get("error")
        message = doc.get("message", "")
        if not isinstance(code, str) or not isinstance(message, str):
            raise WireError("error: error and message must be strings")
        retry = doc.get("retry_after_s")
        detail = doc.get("detail")
        if detail is not None and not isinstance(detail, str):
            raise WireError("error: detail must be a string or null")
        return cls(code=code, message=message,
                   retry_after_s=None if retry is None
                   else _number(retry, "error", "retry_after_s"),
                   detail=detail)


def is_error(doc: Mapping[str, Any]) -> bool:
    """Whether a parsed response body is an :class:`ErrorEnvelope`
    (all error bodies carry the ``error`` code field)."""
    return isinstance(doc, Mapping) and "error" in doc
