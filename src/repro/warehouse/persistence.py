"""Warehouse persistence: save/load a star schema (or dynamic warehouse).

The warehouse accumulates years of screening data; rebuilding it from raw
sources on every start defeats the point.  Layout::

    <dir>/schema.json            schema name, grain, measures, hierarchies,
                                 per-file CRC32 digests (the commit point)
    <dir>/dim_<name>.json        members of each dimension (by surrogate key)
    <dir>/facts.json             fact rows (keys + measures)
    <dir>/history.json           (dynamic only) the model-change journal

Every file is written atomically (temp + fsync + rename + directory
fsync) and ``schema.json`` — which records a CRC32 digest of every other
file — is written *last*, so no individual file is ever torn and a crash
mid-save is always *detected*: either the old manifest's digests no
longer match the partially-replaced data files (load fails loudly, and
the warehouse is rebuilt from the operational stores through ETL), or
the save completed and everything verifies.  Unlike the operational
snapshot store, the warehouse keeps no fallback generations — it is
derived state, so detection rather than rollback is the durability
contract here.  Loads verify each digest before parsing; only format 2
loads, and a manifest without digests is refused.

Feedback dimensions persist like any other — their predicates are gone
(they were only needed at fold time); the materialised keys are the data.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import WarehouseError
from repro.storage.durable import atomic_write_bytes, crc32_hex
from repro.tabular.dtypes import DType
from repro.warehouse.attribute import Hierarchy
from repro.warehouse.dimension import Dimension
from repro.warehouse.dynamic import DynamicWarehouse, ModelChange
from repro.warehouse.fact import FactTable, Measure
from repro.warehouse.star import StarSchema

_FORMAT_VERSION = 2


def _save_warehouse(
    warehouse: DynamicWarehouse | StarSchema, directory: str | Path
) -> None:
    """Write the full dimensional model and facts under ``directory``."""
    dynamic = warehouse if isinstance(warehouse, DynamicWarehouse) else None
    schema = warehouse.schema if dynamic is not None else warehouse
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format_version": _FORMAT_VERSION,
        "name": schema.name,
        "fact": {
            "name": schema.fact.name,
            "grain": schema.fact.dimension_names,
            "measures": [
                {
                    "name": m.name,
                    "dtype": m.dtype.value,
                    "default_aggregation": m.default_aggregation,
                    "additive": m.additive,
                }
                for m in schema.fact.measures.values()
            ],
        },
        "dimensions": {},
    }
    digests: dict[str, str] = {}

    def write_file(filename: str, data: bytes) -> None:
        atomic_write_bytes(path / filename, data, point="warehouse.data")
        digests[filename] = crc32_hex(data)

    for name, dimension in schema.dimensions.items():
        manifest["dimensions"][name] = {
            "attributes": {
                a.name: a.dtype.value for a in dimension.attributes.values()
            },
            "natural_key": dimension.natural_key,
            "hierarchies": {
                h.name: h.levels for h in dimension.hierarchies.values()
            },
        }
        members = {
            str(key): dimension.member(key) for key in dimension.member_keys()
        }
        write_file(
            f"dim_{name}.json", json.dumps(members, default=str).encode("utf-8")
        )
    write_file(
        "facts.json", json.dumps(schema.fact._rows, default=str).encode("utf-8")
    )
    if dynamic is not None:
        history = [
            {
                "version": change.version,
                "action": change.action,
                "dimension": change.dimension,
                "detail": change.detail,
            }
            for change in dynamic.history
        ]
        write_file(
            "history.json",
            json.dumps(
                {"version": dynamic.version, "history": history}, indent=2
            ).encode("utf-8"),
        )
    manifest["digests"] = digests
    atomic_write_bytes(
        path / "schema.json",
        json.dumps(manifest, indent=2).encode("utf-8"),
        point="warehouse.manifest",
    )


def _read_verified(path: Path, filename: str, digests: dict) -> str:
    """Read one warehouse file, checking its digest from the manifest."""
    data = (path / filename).read_bytes()
    expected = digests.get(filename)
    if expected is None:
        raise WarehouseError(
            f"warehouse file {filename!r} fails integrity check: "
            f"no digest recorded in schema.json"
        )
    actual = crc32_hex(data)
    if actual != expected:
        raise WarehouseError(
            f"warehouse file {filename!r} fails integrity check: "
            f"checksum mismatch (stored {expected}, actual {actual})"
        )
    return data.decode("utf-8")


def _load_warehouse(directory: str | Path) -> DynamicWarehouse:
    """Reconstruct a :class:`DynamicWarehouse` from :func:`_save_warehouse`."""
    path = Path(directory)
    manifest_file = path / "schema.json"
    if not manifest_file.exists():
        raise WarehouseError(f"no warehouse snapshot at {path}")
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WarehouseError(f"{manifest_file} is not valid JSON: {exc}")
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise WarehouseError(
            f"unsupported warehouse format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    digests = manifest.get("digests")
    if not isinstance(digests, dict):
        raise WarehouseError(
            f"{manifest_file} fails integrity check: no digests recorded"
        )

    dimensions: list[Dimension] = []
    for name, spec in manifest["dimensions"].items():
        dimension = Dimension(
            name,
            {attr: DType.coerce(dt) for attr, dt in spec["attributes"].items()},
            natural_key=spec["natural_key"],
            hierarchies=[
                Hierarchy(h_name, levels)
                for h_name, levels in spec["hierarchies"].items()
            ],
        )
        members = json.loads(_read_verified(path, f"dim_{name}.json", digests))
        for key_text in sorted(members, key=int):
            key = dimension.add_member(members[key_text])
            if key != int(key_text):
                raise WarehouseError(
                    f"dimension {name!r}: surrogate key mismatch on reload "
                    f"({key} != {key_text}); members file corrupted?"
                )
        dimensions.append(dimension)

    fact_spec = manifest["fact"]
    fact = FactTable(
        fact_spec["name"],
        list(fact_spec["grain"]),
        [
            Measure.of(
                m["name"], m["dtype"], m["default_aggregation"], m["additive"]
            )
            for m in fact_spec["measures"]
        ],
    )
    rows = json.loads(_read_verified(path, "facts.json", digests))
    for row in rows:
        keys = {
            dim_name: int(row[f"{dim_name}_key"])
            for dim_name in fact.dimension_names
        }
        values = {m: row.get(m) for m in fact.measures}
        fact.insert(keys, values)

    schema = StarSchema(manifest["name"], fact, dimensions)
    problems = schema.check_integrity()
    if problems:
        raise WarehouseError(
            f"reloaded warehouse fails integrity: {problems[:3]}"
        )
    warehouse = DynamicWarehouse(schema)

    history_file = path / "history.json"
    if history_file.exists():
        payload = json.loads(_read_verified(path, "history.json", digests))
        warehouse.version = payload["version"]
        warehouse.history = [
            ModelChange(
                entry["version"], entry["action"],
                entry["dimension"], entry["detail"],
            )
            for entry in payload["history"]
        ]
    return warehouse
