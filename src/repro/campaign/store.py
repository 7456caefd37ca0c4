"""Content-addressed result store for experiment chunks.

Every cached object is addressed by a SHA-256 over a *canonical* JSON
payload describing exactly what was computed: the experiment kind, the
canonical config dict (stable key order, plain JSON types), the seed
material and chunk geometry, and a fingerprint of the library source.
Two consequences fall out of that addressing scheme:

- a warm store can short-circuit any re-run (same key => same bytes, and
  JSON float round-tripping is exact, so replayed results are
  bit-identical to a cold run);
- any change to the code or to a single config field changes the key,
  so the store can never serve a stale result -- invalidation is
  structural, not TTL-based.

Layout under the store root::

    objects/<k[:2]>/<key>.json     one chunk result each
    campaigns/<id>/manifest.json   campaign identity + chunk keys
    campaigns/<id>/journal.jsonl   redo log of finished chunks
    campaigns/<id>/telemetry.jsonl progress event stream
    campaigns/<id>/result.json     merged payload once complete

Object writes are atomic (tempfile + ``os.replace``), so a reader never
sees a partial object from a killed process -- but they are **not**
fsync'd: the object tree is a cache, of the campaign journals (which
carry every executed chunk's payload and are the durable copy) and of
recomputable work.  After power loss an object may be missing, empty or
NUL-filled; :meth:`ResultStore.get` serves none of those, so a lost
object costs a restore from the journal or a recompute, never a wrong
result.  A bare ``put`` with no journal behind it (``audit/soak.py``'s
verdict cache) is recompute-on-loss by the same rule.  The campaign
files written once per run (manifest, result, metrics) stay fsync'd.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import ScenarioConfig
from repro.fds.config import FdsConfig

#: Default store root, relative to the current working directory.  The
#: CLI and the benchmarks honor ``REPRO_STORE`` to relocate it.
DEFAULT_STORE_DIR = ".repro-store"


def default_store_root() -> Path:
    """The store root: ``$REPRO_STORE`` or ``./.repro-store``."""
    return Path(os.environ.get("REPRO_STORE", DEFAULT_STORE_DIR))


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_config_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """A :class:`ScenarioConfig` as plain JSON types, recursively.

    ``dataclasses.asdict`` already recurses into the nested
    :class:`FdsConfig`; tuples (``loss_params``) become lists, which is
    fine because :func:`config_from_canonical` restores them.
    """
    return dataclasses.asdict(config)


def config_from_canonical(payload: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from its canonical dict."""
    data = dict(payload)
    fds_data = data.pop("fds", None)
    unknown = set(data) - {f.name for f in dataclasses.fields(ScenarioConfig)}
    if fds_data is not None:
        fds_fields = {f.name for f in dataclasses.fields(FdsConfig)}
        unknown |= {f"fds.{name}" for name in fds_data if name not in fds_fields}
    if unknown:
        raise ConfigurationError(
            f"canonical config has unknown fields {sorted(unknown)}; "
            "was it written by another version of the library?"
        )
    if fds_data is not None:
        data["fds"] = FdsConfig(**fds_data)
    if data.get("loss_params") is not None:
        data["loss_params"] = tuple(
            (str(k), float(v)) for k, v in data["loss_params"]
        )
    if data.get("max_backups") is not None:
        data["max_backups"] = int(data["max_backups"])
    return ScenarioConfig(**data)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package source (path + contents).

    Part of every chunk key: a result cached under one version of the
    simulator must never satisfy a request made under another.  Hashing
    the whole package is deliberately coarse -- a false invalidation
    costs one recompute; a false hit silently corrupts results.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def content_key(kind: str, payload: Any, fingerprint: Optional[str] = None) -> str:
    """The store address of one chunk: SHA-256 of its canonical identity."""
    identity = {
        "kind": kind,
        "payload": payload,
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Content-addressed JSON object store with campaign directories."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Misses whose object existed but could not be served.
        self.corrupt = 0

    # -- objects --------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result payload for ``key``, or ``None`` on a miss.

        An object that is not UTF-8 JSON, not a JSON object, carries no
        payload dict or was written under another key is a miss too
        (counted in ``corrupt``): un-synced objects can come back from a
        power loss in any of those shapes.
        """
        try:
            wrapped = _read_object(self._object_path(key))
        except FileNotFoundError:
            self.misses += 1
            return None
        payload = wrapped.get("payload")
        if wrapped.get("key") != key or not isinstance(payload, dict):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        key: str,
        payload: Dict[str, Any],
        kind: str = "chunk",
        fingerprint: Optional[str] = None,
    ) -> None:
        """Cache ``payload`` under ``key`` (atomic replace, not fsync'd)."""
        wrapped = {
            "key": key,
            "kind": kind,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
            "payload": payload,
        }
        path = self._object_path(key)
        _atomic_write_text(
            path, json.dumps(wrapped, indent=None) + "\n", durable=False
        )

    def contains(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def iter_objects(self) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.rglob("*.json")):
            yield path, _read_object(path)

    # -- campaign directories ------------------------------------------
    def campaign_dir(self, campaign_id: str) -> Path:
        return self.root / "campaigns" / campaign_id

    def campaign_ids(self) -> list[str]:
        campaigns = self.root / "campaigns"
        if not campaigns.is_dir():
            return []
        return sorted(p.name for p in campaigns.iterdir() if p.is_dir())

    # -- garbage collection --------------------------------------------
    def gc(self, stale_only: bool = True, dry_run: bool = False) -> Dict[str, int]:
        """Prune the store.

        ``stale_only=True`` (the default) removes only objects and
        campaign directories recorded under a code fingerprint other
        than the current one -- entries that can never be hit again.
        ``stale_only=False`` wipes everything.  Returns removal counts
        and reclaimed bytes; ``dry_run`` reports without deleting.
        """
        current = code_fingerprint()
        removed_objects = removed_campaigns = freed = 0
        for path, wrapped in self.iter_objects():
            if stale_only and wrapped.get("code") == current:
                continue
            freed += path.stat().st_size
            removed_objects += 1
            if not dry_run:
                path.unlink()
        for campaign_id in self.campaign_ids():
            directory = self.campaign_dir(campaign_id)
            manifest_path = directory / "manifest.json"
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError):
                manifest = {}
            if stale_only and manifest.get("code") == current:
                continue
            for path in sorted(directory.rglob("*")):
                if path.is_file():
                    freed += path.stat().st_size
            removed_campaigns += 1
            if not dry_run:
                import shutil

                shutil.rmtree(directory)
        return {
            "objects_removed": removed_objects,
            "campaigns_removed": removed_campaigns,
            "bytes_freed": freed,
        }


def _read_object(path: Path) -> Dict[str, Any]:
    """The wrapped object at ``path``; ``{}`` for anything but a UTF-8
    JSON object (a torn rename leaves an empty or NUL-filled file)."""
    try:
        wrapped = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return {}
    return wrapped if isinstance(wrapped, dict) else {}


def _atomic_write_text(path: Path, text: str, durable: bool = True) -> None:
    """Write via tempfile + rename so readers never see partial objects;
    ``durable`` also forces the bytes to disk before the rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
