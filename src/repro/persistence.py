"""One persistence surface for every durable artefact.

The platform keeps three kinds of durable state — the operational
snapshot store (:mod:`repro.storage.persistence`), the dimensional
warehouse (:mod:`repro.warehouse.persistence`) and the knowledge base
(:mod:`repro.knowledge.persistence`).  Each subsystem module owns its
on-disk format; this module is the one public way in and out of all
three:

* :func:`save` — dispatches on the object's type; always returns the
  path the artefact now lives at;
* :func:`load` — auto-detects the artefact kind from the on-disk layout
  (or takes ``kind=`` explicitly) and reconstructs it;
* :func:`recover` — crash recovery for the operational store (newest
  valid snapshot generation + WAL replay).

All three raise :class:`~repro.errors.PersistenceError` on failure, with
the subsystem's specific error preserved as ``__cause__``.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable, TypeVar

from repro import obs
from repro.errors import (
    KnowledgeBaseError,
    PersistenceError,
    StorageError,
    WarehouseError,
)
from repro.knowledge.kb import KnowledgeBase
from repro.knowledge.persistence import (
    _load_knowledge_base,
    _save_knowledge_base,
)
from repro.storage.engine import StorageEngine
from repro.storage.persistence import (
    KEEP_GENERATIONS,
    _load_snapshot,
    _save_snapshot,
)
from repro.storage.persistence import checkpoint as _checkpoint
from repro.storage.persistence import recover as _recover
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.persistence import _load_warehouse, _save_warehouse
from repro.warehouse.star import StarSchema

__all__ = [
    "save",
    "load",
    "recover",
    "checkpoint",
    "detect_kind",
    "PersistenceError",
    "KEEP_GENERATIONS",
]

_F = TypeVar("_F", bound=Callable)


def _unified(fn: _F) -> _F:
    """Translate subsystem failures into :class:`PersistenceError`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PersistenceError:
            raise
        except (StorageError, WarehouseError, KnowledgeBaseError) as exc:
            raise PersistenceError(str(exc)) from exc

    return wrapper  # type: ignore[return-value]


def detect_kind(path: str | Path) -> str:
    """Which artefact lives at ``path``: storage / warehouse / knowledge.

    Detection reads only the directory layout: a single JSON file is a
    knowledge base, a directory with ``schema.json`` is a warehouse, and
    a directory with generation subdirectories is an operational
    snapshot store.
    """
    target = Path(path)
    if target.is_file():
        return "knowledge"
    if target.is_dir():
        if (target / "schema.json").exists():
            return "warehouse"
        if any(
            child.is_dir() and child.name.startswith("gen-")
            for child in target.iterdir()
        ):
            return "storage"
        raise PersistenceError(
            f"{target}: directory holds no recognisable artefact "
            "(no schema.json or generation directories)"
        )
    raise PersistenceError(f"nothing exists at {target}")


@_unified
def save(
    obj: StorageEngine | DynamicWarehouse | StarSchema | KnowledgeBase,
    path: str | Path,
    *,
    keep: int = KEEP_GENERATIONS,
) -> Path:
    """Persist any durable artefact at ``path``; returns where it landed.

    ``keep`` applies to the operational store only (snapshot generations
    retained); the other artefacts overwrite in place atomically.  For an
    engine the returned path is the new generation directory.
    """
    with obs.span("persistence.save", kind=type(obj).__name__):
        if isinstance(obj, StorageEngine):
            return _save_snapshot(obj, path, keep=keep)
        if isinstance(obj, (DynamicWarehouse, StarSchema)):
            _save_warehouse(obj, path)
            return Path(path)
        if isinstance(obj, KnowledgeBase):
            _save_knowledge_base(obj, path)
            return Path(path)
    raise PersistenceError(
        f"cannot save object of type {type(obj).__name__} "
        "(expected StorageEngine, DynamicWarehouse/StarSchema or KnowledgeBase)"
    )


@_unified
def load(
    path: str | Path, *, kind: str | None = None
) -> StorageEngine | DynamicWarehouse | KnowledgeBase:
    """Reconstruct whichever artefact lives at ``path``.

    ``kind`` (``"storage"`` / ``"warehouse"`` / ``"knowledge"``) skips
    auto-detection — useful when loading a path that does not exist yet
    should fail with the subsystem's message rather than detection's.
    """
    resolved = kind if kind is not None else detect_kind(path)
    with obs.span("persistence.load", kind=resolved, path=str(path)):
        if resolved == "storage":
            return _load_snapshot(path)
        if resolved == "warehouse":
            return _load_warehouse(path)
        if resolved == "knowledge":
            return _load_knowledge_base(path)
    raise PersistenceError(
        f"unknown artefact kind {resolved!r} "
        "(expected storage, warehouse or knowledge)"
    )


@_unified
def recover(
    path: str | Path, wal_path: str | Path | None = None
) -> StorageEngine:
    """Crash-recover the operational store at ``path``.

    Walks snapshot generations newest-first, loads the first valid one
    and replays committed WAL records past its cutoff; see
    :func:`repro.storage.persistence.recover` for the full contract.
    """
    return _recover(path, wal_path)


@_unified
def checkpoint(
    engine: StorageEngine,
    path: str | Path,
    *,
    keep: int = KEEP_GENERATIONS,
) -> Path:
    """Snapshot ``engine`` at ``path``, then truncate its WAL."""
    return _checkpoint(engine, path, keep=keep)
