"""Knowledge-base persistence: JSON save/load.

The paper's knowledge base is the long-lived artefact of the platform —
findings accumulate across trials and years, so they must outlive any one
process.  Plain JSON keeps the store reviewable by the curator; the file
is replaced atomically (temp + fsync + rename) and carries a CRC32 over
the findings, so silent corruption is detected on load.  Only format 2
loads, and a file without its checksum is refused.
"""

from __future__ import annotations

import datetime as _dt
import json
from pathlib import Path

from repro.errors import KnowledgeBaseError
from repro.knowledge.findings import Evidence, Finding, FindingKind
from repro.knowledge.kb import KnowledgeBase
from repro.storage.durable import atomic_write_bytes, crc32_hex

_FORMAT_VERSION = 2


def _save_knowledge_base(kb: KnowledgeBase, path: str | Path) -> None:
    """Serialise the whole base (findings, evidence, statuses) to JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "promotion_threshold": kb.promotion_threshold,
        "findings": [
            {
                "key": finding.key,
                "kind": finding.kind.value,
                "statement": finding.statement,
                "status": finding.status,
                "tags": sorted(finding.tags),
                "evidence": [
                    {
                        "source": e.source,
                        "description": e.description,
                        "weight": e.weight,
                        "recorded": e.recorded.isoformat() if e.recorded else None,
                    }
                    for e in finding.evidence
                ],
            }
            for finding in sorted(kb._findings.values(), key=lambda f: f.key)
        ],
    }
    payload["checksum"] = crc32_hex(
        json.dumps(payload["findings"], sort_keys=True).encode("utf-8")
    )
    atomic_write_bytes(
        Path(path),
        json.dumps(payload, indent=2).encode("utf-8"),
        point="kb.write",
    )


def _load_knowledge_base(path: str | Path) -> KnowledgeBase:
    """Reconstruct a base from :func:`_save_knowledge_base` output."""
    file_path = Path(path)
    if not file_path.exists():
        raise KnowledgeBaseError(f"no knowledge base at {file_path}")
    try:
        payload = json.loads(file_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise KnowledgeBaseError(
            f"{file_path} is corrupt (not valid JSON): {exc}"
        )
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise KnowledgeBaseError(
            f"unsupported knowledge-base format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    stored_checksum = payload.get("checksum")
    if stored_checksum is None:
        raise KnowledgeBaseError(f"{file_path} has no checksum to verify")
    actual = crc32_hex(
        json.dumps(payload["findings"], sort_keys=True).encode("utf-8")
    )
    if actual != stored_checksum:
        raise KnowledgeBaseError(
            f"{file_path} fails its checksum "
            f"(stored {stored_checksum}, actual {actual})"
        )
    kb = KnowledgeBase(promotion_threshold=payload["promotion_threshold"])
    for raw in payload["findings"]:
        finding = Finding(
            key=raw["key"],
            kind=FindingKind(raw["kind"]),
            statement=raw["statement"],
            evidence=[
                Evidence(
                    source=e["source"],
                    description=e["description"],
                    weight=e["weight"],
                    recorded=(
                        _dt.date.fromisoformat(e["recorded"])
                        if e["recorded"]
                        else None
                    ),
                )
                for e in raw["evidence"]
            ],
            status=raw["status"],
            tags=frozenset(raw["tags"]),
        )
        kb._findings[finding.key] = finding
    return kb
