"""The named design-space ladder of Figure 5 and its exploration runner.

``DESIGN_LADDER`` lists, left to right, the configurations the paper
sweeps: static predictions, VaLHALLA (with and without the Peek
retrofit), the shared previous-carry table, progressively more PC index
bits (ModPCk), full thread disambiguation (Gtid — shown to be *worse*,
because it forfeits constructive cross-thread interference), the ST2
choice (Ltid), and the XOR-hash variant shown to add nothing.

``ST2_DESIGN`` is the paper's final pick: ``Ltid+Prev+ModPC4+Peek``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batch import build_pack
from repro.core.predictors import SpeculationConfig, run_speculation

STATIC_ONE = SpeculationConfig("staticOne", "static1")
STATIC_ZERO = SpeculationConfig("staticZero", "static0")
CASA = SpeculationConfig("CASA", "operand")
VALHALLA = SpeculationConfig("VaLHALLA", "valhalla")
VALHALLA_PEEK = SpeculationConfig("VaLHALLA+Peek", "valhalla", peek=True)
PREV = SpeculationConfig("Prev", "prev")
PREV_PEEK = SpeculationConfig("Prev+Peek", "prev", peek=True)


def prev_modpc(bits: int, peek: bool = True,
               thread_key: str = "") -> SpeculationConfig:
    """A Prev+ModPCk(+Peek) configuration, optionally thread-indexed."""
    prefix = {"": "", "gtid": "Gtid+", "ltid": "Ltid+"}[thread_key]
    suffix = "+Peek" if peek else ""
    return SpeculationConfig(
        f"{prefix}Prev+ModPC{bits}{suffix}", "prev", peek=peek,
        pc_index="mod", pc_bits=bits, thread_key=thread_key)


GTID_PREV_MODPC4_PEEK = prev_modpc(4, thread_key="gtid")
LTID_PREV_MODPC4_PEEK = prev_modpc(4, thread_key="ltid")
XOR_LTID = SpeculationConfig("Ltid+Prev+XorPC4+Peek", "prev", peek=True,
                             pc_index="xor", pc_bits=4, thread_key="ltid")

#: The ST2 GPU design point (Section IV-B conclusion).
ST2_DESIGN = LTID_PREV_MODPC4_PEEK

#: Figure 5's x-axis, left to right.
DESIGN_LADDER = (
    STATIC_ONE,
    STATIC_ZERO,
    VALHALLA,
    VALHALLA_PEEK,
    PREV_PEEK,
    prev_modpc(1),
    prev_modpc(2),
    prev_modpc(4),
    prev_modpc(8),
    GTID_PREV_MODPC4_PEEK,
    LTID_PREV_MODPC4_PEEK,
    XOR_LTID,
)

#: Figure 3's three correlation configurations.
FIG3_CONFIGS = (
    SpeculationConfig("Prev+Gtid", "prev", thread_key="gtid"),
    SpeculationConfig("Prev+FullPC+Gtid", "prev", pc_index="full",
                      thread_key="gtid"),
    SpeculationConfig("Prev+FullPC+Ltid", "prev", pc_index="full",
                      thread_key="ltid"),
)


#: Display token <-> field value for the compositional config grammar.
_MECHANISM_TOKENS = {
    "static1": "staticOne", "static0": "staticZero",
    "operand": "CASA", "valhalla": "VaLHALLA", "prev": "Prev",
}
_THREAD_TOKENS = {"gtid": "Gtid", "ltid": "Ltid"}


def config_name(mechanism: str, peek: bool = False,
                pc_index: str = "none", pc_bits: int = 0,
                thread_key: str = "", sm_scoped: bool = False) -> str:
    """The canonical display name of a design point.

    Token order is fixed — ``[Sm+][Gtid+|Ltid+]<mechanism>[+FullPC|
    +ModPCk|+XorPCk][+Peek]`` — so every distinct field tuple has
    exactly one canonical name, and :func:`parse_config_name` inverts
    it losslessly.  The paper's ladder names (``Ltid+Prev+ModPC4+Peek``
    …) are already in this form.
    """
    tokens = []
    if sm_scoped:
        tokens.append("Sm")
    if thread_key:
        tokens.append(_THREAD_TOKENS[thread_key])
    tokens.append(_MECHANISM_TOKENS[mechanism])
    if pc_index == "full":
        tokens.append("FullPC")
    elif pc_index == "mod":
        tokens.append(f"ModPC{pc_bits}")
    elif pc_index == "xor":
        tokens.append(f"XorPC{pc_bits}")
    if peek:
        tokens.append("Peek")
    return "+".join(tokens)


def parse_config_name(name: str) -> SpeculationConfig:
    """Parse a compositional design-point name into a config.

    Token order is free (``Prev+FullPC+Gtid`` and ``Gtid+Prev+FullPC``
    are the same point) and matching is case-insensitive, so every
    historical ladder/Figure-3 spelling parses; the returned config
    carries the *canonical* :func:`config_name` spelling.  Raises
    :class:`KeyError` on unknown or repeated tokens and
    :class:`ValueError` on invalid field combinations (via
    :class:`SpeculationConfig` validation).
    """
    mechanisms = {v.lower(): k for k, v in _MECHANISM_TOKENS.items()}
    threads = {v.lower(): k for k, v in _THREAD_TOKENS.items()}
    fields = {"mechanism": None, "peek": False, "pc_index": "none",
              "pc_bits": 0, "thread_key": None, "sm_scoped": False}

    def set_once(field, value, token):
        if fields[field] not in (None, "none", False, 0):
            raise KeyError(
                f"config name {name!r}: token {token!r} repeats or "
                f"conflicts with an earlier token")
        fields[field] = value

    for token in name.split("+"):
        low = token.strip().lower()
        if low in mechanisms:
            set_once("mechanism", mechanisms[low], token)
        elif low in threads:
            set_once("thread_key", threads[low], token)
        elif low == "sm":
            set_once("sm_scoped", True, token)
        elif low == "peek":
            set_once("peek", True, token)
        elif low == "fullpc":
            set_once("pc_index", "full", token)
        elif low.startswith(("modpc", "xorpc")) and low[5:].isdigit():
            set_once("pc_index",
                     "mod" if low.startswith("modpc") else "xor", token)
            fields["pc_bits"] = int(low[5:])
        else:
            raise KeyError(f"unknown speculation config {name!r} "
                           f"(unrecognised token {token!r})")
    if fields["mechanism"] is None:
        raise KeyError(f"config name {name!r} names no mechanism "
                       f"(staticOne, staticZero, CASA, VaLHALLA, Prev)")
    fields["thread_key"] = fields["thread_key"] or ""
    return SpeculationConfig(name=config_name(**fields), **fields)


def config_by_name(name: str) -> SpeculationConfig:
    """Resolve a configuration by display name.

    Exact ladder / Figure-3 names return the canonical module-level
    objects; any other name is parsed compositionally
    (:func:`parse_config_name`), so every point of the design space —
    not just the paper's named ladder — is addressable by name.  This
    is what lets sweep-generated configs travel the ``st2-serve`` wire
    as plain strings and still resolve to identical cache keys.
    """
    for cfg in DESIGN_LADDER + FIG3_CONFIGS + (CASA, PREV):
        if cfg.name == name:
            return cfg
    try:
        return parse_config_name(name)
    except ValueError as exc:
        raise KeyError(f"invalid speculation config {name!r}: {exc}") \
            from None


@dataclass
class DesignSpacePoint:
    """One bar of Figure 5 for one kernel."""

    config: SpeculationConfig
    misprediction_rate: float
    recomputed_per_misprediction: float


def explore(trace, configs=DESIGN_LADDER) -> list:
    """Run the design-space exploration over one kernel trace (one
    :class:`~repro.core.batch.TracePack`, shared by every config)."""
    pack = build_pack(trace)
    points = []
    for cfg in configs:
        result = run_speculation(trace, cfg, pack)
        points.append(DesignSpacePoint(
            config=cfg,
            misprediction_rate=result.thread_misprediction_rate,
            recomputed_per_misprediction=(
                result.recomputed_per_misprediction)))
    return points
