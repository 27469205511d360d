"""Arrow schemas and op-record constants for the CDC engine.

The transcript lake table shape comes from BASELINE.json's input hint:
``(conv_id:string, turn_idx:int32, role:string, text:string,
tool:string, ts:timestamp[us])`` keyed by ``(conv_id, turn_idx)``.

The op record is the engine-internal IR — the Ray-native analog of the
reference's ``SQLOperation`` (reference ``src/commons_codec/model.py:82-91``):
instead of rendering parameterized SQL text, each change event becomes a
typed row ``{op, key, row-image, lsn}`` that is *applied* to the lake.
Unknown / varied-shape fields spill into the ``aux`` JSON column, the
analog of the reference's ``UniversalRecord.untyped`` bucket
(``model.py:161-175``) and varied-list routing (``transform/dynamodb.py:44-68``).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Op codes (int8 dictionary-ish encoding; kept as plain int8 for Arrow speed)
# ---------------------------------------------------------------------------
OP_DELETE = 0  # delete-by-key                      (ref transform/dynamodb.py:207-210)
OP_UPSERT = 1  # insert or full-row update (LWW)    (ref transform/dynamodb.py:183-205)
OP_SCHEMA_CHANGE = 2  # in-band schema change (create-table control event,
#                ref transform/aws_dms.py:140-144)
OP_DEAD = 3  # undecodable / unknown envelope → dead letter
#              (ref raises ValueError / UnknownOperationError,
#               transform/dynamodb.py:180-214, transform/aws_dms.py:163-166)

OP_NAMES = {OP_DELETE: "DELETE", OP_UPSERT: "UPSERT", OP_SCHEMA_CHANGE: "SCHEMA", OP_DEAD: "DEAD"}

# Primary key of the transcript table.
KEY_COLUMNS = ("conv_id", "turn_idx")

# Columns of the row image (everything except the key).
IMAGE_COLUMNS = ("role", "text", "tool", "ts")

TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

# Flat op-record schema. Flat (not nested struct) so every hot kernel is a
# plain column op; `aux` carries spill-over fields as a JSON string.
OPS_SCHEMA = pa.schema(
    [
        pa.field("op", pa.int8()),
        # dictionary-encoded: one distinct value per stream is the norm,
        # so the exchange moves int8 indices instead of a string per row
        pa.field("table_name", pa.dictionary(pa.int8(), pa.string())),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
        pa.field("aux", pa.string()),
        pa.field("lsn", pa.int64()),
        pa.field("source_offset", pa.int64()),
        pa.field("partition_id", pa.int32()),
        pa.field("shuffle_key", pa.int64()),
        pa.field("error", pa.string()),
    ]
)


# DynamoDB attribute-type letter → Arrow type for key columns
# (semantics of reference transform/dynamodb_model.py:18-28: S→string,
# N→integer-keyed, B→string-encoded binary)
_DYNAMODB_KEY_TYPES = {"S": pa.string(), "N": pa.int64(), "B": pa.string()}


class PrimaryKeySchema:
    """Primary-key schema derived from a DynamoDB-style table description
    (reference transform/dynamodb_model.py:56-73) instead of the engine's
    static ``KEY_COLUMNS`` default.

    ``from_table`` accepts either a dict like boto3's ``describe_table``
    output (``{"KeySchema": [...], "AttributeDefinitions": [...]}``) or
    any object exposing ``key_schema`` / ``attribute_definitions``.
    """

    def __init__(self, fields: list[pa.Field] | None = None):
        self.fields: list[pa.Field] = list(fields or [])

    def add(self, name: str, dynamodb_type: str) -> "PrimaryKeySchema":
        try:
            typ = _DYNAMODB_KEY_TYPES[dynamodb_type]
        except KeyError as exc:
            raise KeyError(
                f"unsupported DynamoDB key type: name={name!r}, type={dynamodb_type!r}"
            ) from exc
        self.fields.append(pa.field(name, typ))
        return self

    @classmethod
    def from_table(cls, table) -> "PrimaryKeySchema":
        if isinstance(table, dict):
            key_schema = table.get("KeySchema") or table.get("key_schema") or []
            attr_defs = (
                table.get("AttributeDefinitions") or table.get("attribute_definitions") or []
            )
        else:
            key_schema = table.key_schema
            attr_defs = table.attribute_definitions
        types = {a["AttributeName"]: a["AttributeType"] for a in attr_defs}
        schema = cls()
        for key in key_schema:
            name = key["AttributeName"]
            schema.add(name, types[name])
        return schema

    def keys(self) -> list[str]:
        return [f.name for f in self.fields]

    def arrow_fields(self) -> list[pa.Field]:
        return list(self.fields)

    def to_sql_ddl_clauses(self) -> list[str]:
        sql_types = {pa.string(): "STRING", pa.int64(): "BIGINT"}
        return [f'"{f.name}" {sql_types[f.type]} PRIMARY KEY' for f in self.fields]


def empty_ops_table() -> pa.Table:
    return OPS_SCHEMA.empty_table()
