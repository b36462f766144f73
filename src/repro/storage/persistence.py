"""Whole-database snapshots: checksummed generations plus recovery.

Layout (format 3)::

    <root>/gen-00000001/MANIFEST.json     commit point: per-file digests,
                                          table → filename map, WAL position
    <root>/gen-00000001/catalog.json      table metadata (schema, keys, ...)
    <root>/gen-00000001/table_<name>.blk  rows of each table: one column
                                          block with their row ids
    <root>/gen-00000002/...               newer generations

A generation is *valid* iff its ``MANIFEST.json`` parses and every file
matches its recorded CRC32.  Writers create a fresh generation directory,
write the data files atomically (temp + fsync + rename + directory
fsync), and write the manifest **last** — so a crash at any point leaves
either a complete new generation or an ignorable partial one, never a
half-replaced snapshot.  :func:`recover` walks generations newest-first,
loads the first valid one, then replays committed WAL records appended
after the manifest's ``wal_seq``.

Table names are percent-escaped into filenames (``table_`` prefix keeps
them clear of ``catalog.json``/``MANIFEST.json``) and collisions — only
possible via case-folding filesystems — are rejected loudly.

A table file is the same column block a WAL insert record carries
(:func:`repro.storage.durable.encode_block`): per column a dtype tag, a
validity bitmap and a raw little-endian buffer (str columns as one JSON
list), so saving and loading cost a pass per column, not per row.  The
manifest and catalog stay JSON.  A generation still holds every row of
every table (≈2.2 kB per 277-attribute visit), so writing one costs the
whole store however few rows changed.

That is why checkpointing is **amortised**.  A committed transaction is
durable the moment its WAL commit record is fsynced; a generation only
shortens replay and lets the log shrink.  Writers therefore call
:func:`checkpoint_if_due` after each batch, and it snapshots only when
:func:`checkpoint_status` says so: when no generation is the base of the
engine's log yet, or when ``wal.log`` has grown to at least the byte size of
that generation.  The rule reads nothing but bytes on disk (never a clock
or a batch count), so identical writes leave identical directories.  It
bounds recovery to one snapshot's worth of replay and write amplification
to about 2x: by the time a snapshot of ``S`` bytes is rewritten, at least
``S`` bytes of log were appended since the last one.
"""

from __future__ import annotations

import json
import shutil
import urllib.parse
from pathlib import Path

from repro import obs
from repro.errors import DurabilityError, SnapshotError, StorageError
from repro.storage.durable import (
    atomic_write_bytes,
    crc32_hex,
    decode_block,
    encode_block,
    fsync_dir,
    verify_digest,
)
from repro.storage.engine import StorageEngine, replay_into
from repro.storage.wal import WriteAheadLog
from repro.tabular.dtypes import DType

_FORMAT_VERSION = 3
_GEN_PREFIX = "gen-"
_MANIFEST = "MANIFEST.json"
_CATALOG = "catalog.json"
#: generations retained after a successful save (the newest plus fallbacks)
KEEP_GENERATIONS = 2


def table_filename(name: str) -> str:
    """Escaped, collision-free data filename for a table.

    Percent-escaping is injective, so two distinct table names can only
    collide on a case-insensitive filesystem; :func:`_save_snapshot`
    checks for that explicitly.
    """
    if not name:
        raise StorageError("cannot snapshot a table with an empty name")
    return f"table_{urllib.parse.quote(name, safe='')}.blk"


def _generation_dirs(root: Path) -> list[Path]:
    """Generation directories, oldest first."""
    if not root.is_dir():
        return []
    dirs = [
        d for d in root.iterdir()
        if d.is_dir() and d.name.startswith(_GEN_PREFIX)
        and d.name[len(_GEN_PREFIX):].isdigit()
    ]
    return sorted(dirs, key=lambda d: int(d.name[len(_GEN_PREFIX):]))


def _catalog_payload(engine: StorageEngine) -> dict:
    catalog = {}
    for name in engine.table_names():
        meta = engine.catalog.get(name)
        stored = engine._stored(name)
        catalog[name] = {
            "schema": {k: v.value for k, v in meta.schema.items()},
            "primary_key": meta.primary_key,
            "not_null": sorted(meta.not_null),
            "version": meta.version,
            "foreign_keys": {
                k: list(v) for k, v in meta.foreign_keys.items()
            },
            "indexes": sorted(stored.secondary),
            # Physical row ids must survive recovery: WAL update/delete
            # records reference them, so loads restore rows at their
            # original ids and the allocator continues where it left off.
            "next_row_id": stored.next_row_id,
        }
    return catalog


def _save_snapshot(
    engine: StorageEngine,
    directory: str | Path,
    *,
    keep: int = KEEP_GENERATIONS,
) -> Path:
    """Write a new snapshot generation under ``directory``; returns its path.

    The generation becomes visible (recoverable) only once its manifest
    lands; older generations beyond ``keep`` are pruned afterwards.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    existing = _generation_dirs(root)
    next_number = (
        int(existing[-1].name[len(_GEN_PREFIX):]) + 1 if existing else 1
    )
    gen_dir = root / f"{_GEN_PREFIX}{next_number:08d}"
    gen_dir.mkdir()

    names = engine.table_names()
    filenames = {name: table_filename(name) for name in names}
    by_casefold: dict[str, str] = {}
    for name, filename in filenames.items():
        other = by_casefold.setdefault(filename.casefold(), name)
        if other != name:
            raise StorageError(
                f"table names {other!r} and {name!r} collide on snapshot "
                f"filename {filename!r} (case-insensitive filesystems)"
            )

    with obs.span(
        "snapshot.save", generation=next_number, tables=len(names)
    ) as sp:
        snapshot_bytes = 0
        digests: dict[str, str] = {}
        catalog_bytes = json.dumps(
            _catalog_payload(engine), indent=2
        ).encode("utf-8")
        atomic_write_bytes(gen_dir / _CATALOG, catalog_bytes, point="snapshot.data")
        digests[_CATALOG] = crc32_hex(catalog_bytes)
        snapshot_bytes += len(catalog_bytes)
        for name in names:
            data = encode_block(engine._block(name))
            atomic_write_bytes(
                gen_dir / filenames[name], data, point="snapshot.data"
            )
            digests[filenames[name]] = crc32_hex(data)
            snapshot_bytes += len(data)

        manifest = {
            "format_version": _FORMAT_VERSION,
            "generation": next_number,
            "wal_seq": engine.wal.last_seq,
            "tables": filenames,
            "files": digests,
        }
        atomic_write_bytes(
            gen_dir / _MANIFEST,
            json.dumps(manifest, indent=2).encode("utf-8"),
            point="snapshot.manifest",
        )
        fsync_dir(root)
        sp.set(bytes=snapshot_bytes)
        obs.set_gauge("storage.snapshot.bytes", snapshot_bytes)
        obs.count("storage.snapshot.saves")

    for stale in _generation_dirs(root)[:-keep] if keep > 0 else []:
        shutil.rmtree(stale, ignore_errors=True)
    return gen_dir


def load_generation(gen_dir: str | Path) -> tuple[StorageEngine, dict]:
    """Load one generation, verifying every checksum; returns (engine, manifest)."""
    gen_path = Path(gen_dir)
    manifest_file = gen_path / _MANIFEST
    if not manifest_file.exists():
        raise SnapshotError(
            f"{gen_path}: no manifest — incomplete generation (crashed save?)"
        )
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{gen_path}: manifest is not valid JSON: {exc}")
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise SnapshotError(
            f"{gen_path}: unsupported snapshot format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    digests = manifest["files"]
    if _CATALOG not in digests:
        raise SnapshotError(f"{gen_path}: manifest records no catalog digest")
    catalog_bytes = verify_digest(gen_path / _CATALOG, digests[_CATALOG])
    catalog = json.loads(catalog_bytes.decode("utf-8"))

    engine = StorageEngine()
    for name, meta in catalog.items():
        engine.create_table(
            name,
            {k: DType.coerce(v) for k, v in meta["schema"].items()},
            primary_key=meta["primary_key"],
            not_null=set(meta["not_null"]),
        )
    for name, filename in manifest["tables"].items():
        if filename not in digests:
            raise SnapshotError(
                f"{gen_path}: manifest records no digest for {filename!r}"
            )
        block = decode_block(verify_digest(gen_path / filename, digests[filename]))
        if block.table != name:
            raise SnapshotError(
                f"{gen_path}: {filename!r} holds table {block.table!r}, "
                f"not {name!r}"
            )
        engine._restore_block(block)
    # Foreign keys attach after every table is loaded (the rows were
    # checked when first written), so load order does not matter.
    for name, meta in catalog.items():
        table_meta = engine.catalog.get(name)
        table_meta.foreign_keys = {
            k: tuple(v) for k, v in meta["foreign_keys"].items()
        }
        table_meta.version = meta["version"]
        stored = engine._stored(name)
        stored.next_row_id = max(stored.next_row_id, meta["next_row_id"])
        for column in meta["indexes"]:
            engine.create_index(name, column)
    return engine, manifest


def recover(
    directory: str | Path, wal_path: str | Path | None = None
) -> StorageEngine:
    """Crash recovery: newest *valid* generation + WAL replay.

    Walks generations newest-first, skipping damaged or incomplete ones,
    then replays committed WAL records appended after the chosen
    generation's ``wal_seq``.  The recovered engine adopts the
    (tail-repaired) WAL so subsequent transactions continue the same log.
    """
    root = Path(directory)
    with obs.span("recover", root=str(root)) as sp:
        engine: StorageEngine | None = None
        after_seq = 0
        generation = None
        problems: list[str] = []
        for gen_dir in reversed(_generation_dirs(root)):
            try:
                with obs.span("recover.load_generation", generation=gen_dir.name):
                    engine, manifest = load_generation(gen_dir)
                after_seq = manifest.get("wal_seq", 0)
                generation = gen_dir.name
                break
            except (DurabilityError, OSError, KeyError, ValueError) as exc:
                problems.append(f"{gen_dir.name}: {exc}")
        if engine is None:
            detail = "; ".join(problems) if problems else "no generations present"
            raise SnapshotError(f"no recoverable snapshot at {root} ({detail})")

        replayed = 0
        if wal_path is not None:
            with obs.span("recover.wal_replay", after_seq=after_seq) as replay_sp:
                wal = WriteAheadLog.load(wal_path)
                replayed = replay_into(engine, wal, after_seq=after_seq)
                replay_sp.set(records=replayed)
            engine.wal = wal
        sp.set(
            generation=generation,
            skipped_generations=len(problems),
            wal_records_replayed=replayed,
        )
        obs.count("storage.recoveries")
        return engine


def checkpoint_status(engine: StorageEngine, directory: str | Path) -> dict:
    """Where the engine's log stands against its newest generation.

    ``generation`` (number) and ``snapshot_bytes`` describe the newest
    generation whose manifest landed — ``None``/0 when there is none;
    ``wal_bytes`` is the log file's size.  ``due`` is the checkpoint
    rule: true when that generation is not the base of this log (there
    is none, its manifest does not parse, or the log was not truncated
    at it — a crash between manifest and truncation, or a fresh log over
    a directory another one left behind), when the log is not on disk
    (nothing but a snapshot makes its commits durable), or when the log
    has reached the generation's size.  Costs a directory listing and
    one small JSON parse; no table file is read.
    """
    wal = engine.wal
    wal_bytes = wal.size_bytes
    status = {
        "generation": None,
        "snapshot_bytes": 0,
        "wal_bytes": wal_bytes or 0,
        "due": True,
    }
    committed = [
        d for d in _generation_dirs(Path(directory)) if (d / _MANIFEST).exists()
    ]
    if not committed:
        return status
    newest = committed[-1]
    status["generation"] = int(newest.name[len(_GEN_PREFIX):])
    status["snapshot_bytes"] = sum(
        f.stat().st_size for f in newest.iterdir() if f.is_file()
    )
    try:
        manifest = json.loads((newest / _MANIFEST).read_text(encoding="utf-8"))
        is_base = manifest.get("wal_seq", 0) + 1 == wal.start_seq
    except (OSError, ValueError, AttributeError, TypeError):
        return status
    status["due"] = (
        not is_base
        or wal_bytes is None
        or wal_bytes >= status["snapshot_bytes"]
    )
    return status


def checkpoint_if_due(
    engine: StorageEngine,
    directory: str | Path,
    *,
    keep: int = KEEP_GENERATIONS,
) -> Path | None:
    """:func:`checkpoint` when :func:`checkpoint_status` says it is due.

    Returns the new generation, or ``None`` when the checkpoint was
    deferred — the log already holds every commit durably, and replaying
    it is still cheaper than the snapshot it would be truncated into.
    """
    if not checkpoint_status(engine, directory)["due"]:
        obs.count("storage.checkpoints_deferred")
        return None
    return checkpoint(engine, directory, keep=keep)


def checkpoint(
    engine: StorageEngine,
    directory: str | Path,
    *,
    keep: int = KEEP_GENERATIONS,
) -> Path:
    """Snapshot the engine, then truncate its WAL; returns the generation.

    Ordering matters: the manifest (recording ``wal_seq``) lands before
    the WAL shrinks, so a crash between the two steps merely leaves
    already-snapshotted records in the log — recovery skips them via the
    manifest's sequence cutoff.
    """
    with obs.span("checkpoint", wal_seq=engine.wal.last_seq):
        gen_dir = _save_snapshot(engine, directory, keep=keep)
        engine.wal.truncate()
        obs.count("storage.checkpoints")
    return gen_dir
