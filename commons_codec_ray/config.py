"""Pipeline configuration + schema registry.

The registry mirrors the reference's caller-seeded, control-event-mutated
schema state (``DMSTranslatorCrateDB``, reference
``src/commons_codec/transform/aws_dms.py:431-445``): per-table primary
keys (``primary_keys``), a column-type map (``column_types``, analog of
``ColumnTypeMapStore``, ``model.py:47-79``), and a caller-state backup
used to reset on ``drop-table`` (``transform/aws_dms.py:172-178``).

Everything is JSON round-trippable so the registry snapshot can be
persisted inside the epoch manifest (checkpoint/resume requirement).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa

from commons_codec_ray.hashing import DEFAULT_NUM_PARTITIONS

# DMS-style logical types → Arrow types; the INT family maps by width and
# everything else degrades to string, mirroring ``resolve_type``
# (reference transform/aws_dms.py:226-246). Widening happens via
# pyarrow.unify_schemas at decode/apply time.
LOGICAL_TO_ARROW: dict[str, pa.DataType] = {
    "INT8": pa.int8(),
    "INT16": pa.int16(),
    "INT32": pa.int32(),
    "INT64": pa.int64(),
    "NUMERIC": pa.float64(),
    "REAL4": pa.float32(),
    "REAL8": pa.float64(),
    "BOOLEAN": pa.bool_(),
    "TIMESTAMP": pa.timestamp("us"),
    "DATETIME": pa.timestamp("us"),
    "STRING": pa.string(),
}


def resolve_logical_type(ltype: str) -> pa.DataType:
    return LOGICAL_TO_ARROW.get((ltype or "").upper(), pa.string())


@dataclass
class SchemaRegistry:
    """Per-table PK + column-type state, mutated by control events."""

    primary_keys: dict[str, list[str]] = field(default_factory=dict)
    column_types: dict[str, dict[str, str]] = field(default_factory=dict)
    # declarative per-table transform rules (plain JSON, loaded with
    # decode.treatments.Treatment.from_config) — travels with the
    # checkpointed registry; static config, NOT reset by drop-table
    treatments: dict[str, dict] = field(default_factory=dict)
    version: int = 0
    # caller-seeded baseline, restored on drop-table
    _baseline: dict[str, Any] | None = None

    def seed(self) -> None:
        self._baseline = {
            "primary_keys": copy.deepcopy(self.primary_keys),
            "column_types": copy.deepcopy(self.column_types),
        }

    def apply_create_table(self, table: str, columns: dict[str, str], primary_key: list[str]) -> None:
        # PK harvest from control events (ref transform/aws_dms.py:140-144)
        self.primary_keys[table] = list(primary_key)
        self.column_types.setdefault(table, {}).update(columns)
        self.version += 1

    def apply_drop_table(self, table: str) -> None:
        # reset to caller baseline (ref transform/aws_dms.py:172-178)
        base = self._baseline or {"primary_keys": {}, "column_types": {}}
        self.primary_keys[table] = copy.deepcopy(base["primary_keys"].get(table, []))
        self.column_types[table] = copy.deepcopy(base["column_types"].get(table, {}))
        self.version += 1

    def arrow_schema(self, table: str, base: pa.Schema) -> pa.Schema:
        """Unified schema for a table: base ∪ registered columns, with
        int widening via pyarrow.unify_schemas (promote options)."""
        cols = self.column_types.get(table, {})
        if not cols:
            return base
        fields = [pa.field(name, resolve_logical_type(lt)) for name, lt in cols.items()]
        return pa.unify_schemas([base, pa.schema(fields)], promote_options="permissive")

    def to_json(self) -> str:
        return json.dumps(
            {
                "primary_keys": self.primary_keys,
                "column_types": self.column_types,
                "treatments": self.treatments,
                "version": self.version,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "SchemaRegistry":
        d = json.loads(s)
        reg = cls(
            primary_keys=d.get("primary_keys", {}),
            column_types=d.get("column_types", {}),
            treatments=d.get("treatments", {}),
            version=d.get("version", 0),
        )
        reg.seed()
        return reg


@dataclass
class PipelineConfig:
    """Static engine configuration, broadcast to all stages."""

    num_partitions: int = DEFAULT_NUM_PARTITIONS
    table: str = "transcripts"
    # decode batch size: events are small JSON strings; 16k rows ≈ a few MB
    decode_batch_size: int = 16384
    # events per epoch (checkpoint granularity) for the epoch loop
    epoch_size: int = 2_000_000
    # sink mode: "rewrite" = full partition rewrite per touched epoch
    # (merge-on-write, simplest reads); "delta" = write per-epoch delta
    # files with delete tombstones, merge on read, compact automatically
    # — the low-write-amplification mode for small epochs over big
    # partitions
    sink_mode: str = "rewrite"
    # delta sink compaction triggers: fold deltas into a new base when
    # either accumulated delta rows exceed ratio × base rows or the
    # delta-file count exceeds max_deltas
    compact_ratio: float = 0.5
    compact_max_deltas: int = 8
    # applier state cap (bytes of in-memory Arrow partition state per
    # applier). None = unlimited (everything stays resident, the fastest
    # mode when the lake fits cluster RAM). With a budget set, partitions
    # load LAZILY on first touch and cold partitions EVICT back to their
    # committed files (LRU) — the lake ≫ RAM mode. Its cost is small:
    # replaying sf0.1 (108k envelopes, 4 epochs) at 2 CPUs took 1.46 s
    # unbudgeted and 1.70 s at 1 byte, where every partition is evicted
    # and reloaded every epoch (median of 4 alternating reps; PERF.md
    # "One CDC apply path").
    applier_state_budget_bytes: int | None = None
    # emit a row-level change feed (insert/update/delete with before
    # images for deletes) per epoch under lake/changes/ — the CDC OUTPUT
    # stream downstream consumers / incremental view maintenance read.
    # The appliers hold the pre-epoch state in memory (or reload it
    # under a budget), so the feed costs no extra read in either sink
    # mode; both sinks emit identical feeds.
    emit_changes: bool = False
    registry: SchemaRegistry = field(default_factory=SchemaRegistry)

    def __post_init__(self) -> None:
        if not self.registry.column_types:
            self.registry.column_types = {
                self.table: {
                    "conv_id": "STRING",
                    "turn_idx": "INT32",
                    "role": "STRING",
                    "text": "STRING",
                    "tool": "STRING",
                    "ts": "TIMESTAMP",
                }
            }
        if not self.registry.primary_keys:
            self.registry.primary_keys = {self.table: ["conv_id", "turn_idx"]}
        self.registry.seed()
