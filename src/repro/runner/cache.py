"""Persistent on-disk result cache for runner work units.

Entries live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) as
one JSON file per unit, keyed by a SHA-256 content hash of the unit's
identity (kernel, scale, seed, full SpeculationConfig, schema version)
*and* a digest of the result-relevant source modules — so editing any
module that can change the numbers silently invalidates every stale
entry, while doc-only packages (analysis, report, the runner itself)
do not churn the cache.

Corrupt, truncated or foreign entries are treated as misses: the unit
is recomputed and the bad file overwritten, never raised to the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

from repro import obs
from repro.runner.units import RESULT_FIELDS, UnitSpec

#: Subpackages that render, schedule or *check* results but cannot
#: change a single number — the only thing maintained by hand.  Every
#: other subpackage of ``repro`` is result-affecting and hashed into
#: the cache key automatically, so adding a new simulation package can
#: never be silently forgotten here.  ``obs`` observes the computation
#: without influencing it, so instrumentation edits keep caches warm.
NON_RESULT_PACKAGES = frozenset(
    {"analysis", "report", "runner", "lint", "obs", "fuzz", "serve",
     "sweep"})

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


@lru_cache(maxsize=1)
def result_affecting_packages() -> tuple:
    """Sorted subpackages of ``repro`` whose source determines unit
    results, discovered from the package tree on disk."""
    import repro
    root = Path(repro.__file__).parent
    return tuple(sorted(
        child.name for child in root.iterdir()
        if child.is_dir() and (child / "__init__.py").is_file()
        and child.name not in NON_RESULT_PACKAGES))


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every source file that can influence unit results."""
    import repro
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in result_affecting_packages():
        pkg_dir = root / package
        if not pkg_dir.is_dir():
            continue
        for path in sorted(pkg_dir.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def unit_key(spec: UnitSpec, version: str = None) -> str:
    """Content-hash cache key for one work unit."""
    payload = spec.identity()
    payload["code_version"] = version if version is not None \
        else code_version()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:40]


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """One-file-per-unit JSON store with atomic writes.

    ``load`` returns ``None`` on any miss — including unreadable JSON,
    a payload or result that is not a JSON object, a key mismatch (hash
    collision or renamed file) and missing result fields — so callers
    recompute instead of crashing.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.units_dir = self.root / "units"

    def path(self, key: str) -> Path:
        return self.units_dir / f"{key}.json"

    def load(self, key: str):
        try:
            with open(self.path(key)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = None
        result = None
        if isinstance(payload, dict) and payload.get("key") == key:
            result = payload.get("result")
        if not isinstance(result, dict) \
                or any(f not in result for f in RESULT_FIELDS):
            obs.add("result_cache.misses")
            return None
        obs.add("result_cache.hits")
        return result

    def store(self, key: str, result: dict) -> Path:
        self.units_dir.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "result": result}
        fd, tmp = tempfile.mkstemp(dir=self.units_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return self.path(key)

    def __len__(self) -> int:
        if not self.units_dir.is_dir():
            return 0
        return sum(1 for _ in self.units_dir.glob("*.json"))
