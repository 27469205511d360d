"""Per-dialect envelope → op-record decoding (the analog of the
reference's translator family, re-expressed as batch kernels).

Dialect semantics (operation taxonomy, image selection, skip/dead-letter
rules) mirror the reference translators:

- Debezium/DMS-style: operation dispatch load/insert/update/delete +
  create-table/drop-table control records (reference
  transform/aws_dms.py:146-166), invalid shape → dead letter (the
  reference raises MessageFormatError, transform/aws_dms.py:36-55).
- MySQL-binlog-style: write/update/delete rows; housekeeping ops
  (rotate/heartbeat) are skipped silently, mirroring MongoDB
  drop/invalidate → None (reference transform/mongodb.py:337-343).
- DynamoDB-Streams-style: eventSource guard, INSERT/MODIFY read
  ``NewImage``, REMOVE reads ``Keys`` (reference
  transform/dynamodb.py:173-224); descriptor decode incl. varied-list →
  aux routing via :mod:`commons_codec_ray.decode.dynamodb_types`.

Each decoder takes the parsed payload dict and returns a list of op
tuples ``(op_code, record_dict, aux_dict)``; unknown operations raise
``UnknownOperationError`` which the batch stage converts to a dead-letter
row (OP_DEAD) instead of failing the task.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from commons_codec_ray.decode import dynamodb_types
from commons_codec_ray.schemas import OP_DELETE, OP_SCHEMA_CHANGE, OP_UPSERT


class UnknownOperationError(ValueError):
    pass


class MessageFormatError(ValueError):
    pass


OpTuple = tuple[int, dict[str, Any], dict[str, Any]]


def decode_debezium(payload: dict) -> list[OpTuple]:
    meta = payload.get("metadata")
    if not isinstance(meta, dict):
        raise MessageFormatError("missing metadata")
    operation = meta.get("operation")
    if meta.get("record-type") == "control":
        if operation in ("create-table", "drop-table"):
            control = payload.get("control", {})
            return [(OP_SCHEMA_CHANGE, {}, {"operation": operation, "control": control, "table": meta.get("table-name")})]
        raise UnknownOperationError(f"unknown control operation: {operation!r}")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise MessageFormatError("missing data")
    if operation in ("load", "insert", "update"):
        return [(OP_UPSERT, data, {})]
    if operation == "delete":
        # delete events carry key fields + nulls for the rest
        return [(OP_DELETE, data, {})]
    raise UnknownOperationError(f"unknown operation: {operation!r}")


def decode_binlog(payload: dict) -> list[OpTuple]:
    op = payload.get("op")
    if op in ("rotate", "heartbeat"):
        return []  # housekeeping → skip
    rows = payload.get("rows")
    if not isinstance(rows, list):
        raise MessageFormatError("missing rows")
    out: list[OpTuple] = []
    if op in ("write_rows", "update_rows"):
        for r in rows:
            after = r.get("after")
            if not isinstance(after, dict):
                raise MessageFormatError("row without after-image")
            out.append((OP_UPSERT, after, {}))
        return out
    if op == "delete_rows":
        for r in rows:
            before = r.get("before")
            if not isinstance(before, dict):
                raise MessageFormatError("row without before-image")
            out.append((OP_DELETE, before, {}))
        return out
    raise UnknownOperationError(f"unknown binlog op: {op!r}")


def decode_ddbstream(payload: dict) -> list[OpTuple]:
    if payload.get("eventSource") != "aws:dynamodb":
        raise MessageFormatError(f"unknown eventSource: {payload.get('eventSource')!r}")
    name = payload.get("eventName")
    ddb = payload.get("dynamodb")
    if not isinstance(ddb, dict):
        raise MessageFormatError("missing dynamodb body")
    # image selection: NewImage for INSERT/MODIFY, Keys for REMOVE
    if name in ("INSERT", "MODIFY"):
        image = ddb.get("NewImage")
        op = OP_UPSERT
    elif name == "REMOVE":
        image = ddb.get("Keys")
        op = OP_DELETE
    else:
        raise UnknownOperationError(f"unknown eventName: {name!r}")
    if not isinstance(image, dict):
        raise MessageFormatError("missing image")
    typed, varied = dynamodb_types.deserialize_image(image)
    return [(op, typed, varied)]


def decode_maxwell(payload: dict) -> list[OpTuple]:
    """Maxwell's daemon flat JSON (public format): ``type`` is
    insert/update/delete with the row in ``data`` (full image on
    insert/update, key image on delete); bootstrap markers and
    heartbeats are housekeeping → skip, like binlog rotate events."""
    typ = payload.get("type")
    if typ in ("bootstrap-start", "bootstrap-complete", "heartbeat"):
        return []
    if typ in ("database-create", "database-alter", "database-drop"):
        return []  # database-level DDL carries no table schema
    if typ in ("table-alter", "table-create", "table-drop"):
        # Maxwell's output_ddl=true payloads carry the full NEW table
        # definition in `def` ({columns: [{name, type}, ...],
        # "primary-key": [...]}); forward it so the registry can apply
        # the create/alter (pipelines/cdc.py:_apply_schema_event)
        aux = {"operation": typ, "table": payload.get("table")}
        if isinstance(payload.get("def"), dict):
            aux["def"] = payload["def"]
        return [(OP_SCHEMA_CHANGE, {}, aux)]
    data = payload.get("data")
    if not isinstance(data, dict):
        raise MessageFormatError("missing data")
    if typ in ("insert", "update", "bootstrap-insert"):
        return [(OP_UPSERT, data, {})]
    if typ == "delete":
        return [(OP_DELETE, data, {})]
    raise UnknownOperationError(f"unknown maxwell type: {typ!r}")


# JDBC type codes → coercion for Canal's all-string cell encoding.
_CANAL_INT_TYPES = {-6, 5, 4, -5}  # TINYINT/SMALLINT/INTEGER/BIGINT
_CANAL_FLOAT_TYPES = {6, 7, 8, 2, 3}  # FLOAT/REAL/DOUBLE/NUMERIC/DECIMAL


def _canal_coerce(row: dict, sql_type: dict) -> dict:
    out = {}
    for k, v in row.items():
        if v is None:
            out[k] = None
            continue
        t = sql_type.get(k)
        if t in _CANAL_INT_TYPES:
            out[k] = int(v)
        elif t in _CANAL_FLOAT_TYPES:
            out[k] = float(v)
        else:  # VARCHAR / TIMESTAMP / unknown → keep the string
            out[k] = v
    return out


def decode_canal(payload: dict) -> list[OpTuple]:
    """Alibaba Canal flat JSON (public format): ``data`` is a LIST of
    rows with every cell stringified; native types are recovered from
    the ``sqlType`` JDBC-code map (ints/floats parsed, varchar and
    timestamp kept as strings for the downstream cast). DDL events
    (``isDdl``) become schema-change control records."""
    if payload.get("isDdl"):
        return [
            (
                OP_SCHEMA_CHANGE,
                {},
                {"operation": "ddl", "sql": payload.get("sql"), "table": payload.get("table")},
            )
        ]
    typ = payload.get("type")
    rows = payload.get("data")
    if not isinstance(rows, list):
        raise MessageFormatError("missing data rows")
    sql_type = payload.get("sqlType") or {}
    if typ in ("INSERT", "UPDATE"):
        return [(OP_UPSERT, _canal_coerce(r, sql_type), {}) for r in rows]
    if typ == "DELETE":
        return [(OP_DELETE, _canal_coerce(r, sql_type), {}) for r in rows]
    raise UnknownOperationError(f"unknown canal type: {typ!r}")


def decode_connect(payload: dict) -> list[OpTuple]:
    """Kafka Connect JsonConverter envelope (``schemas.enable=true``)
    around a native Debezium record: the ``schema`` struct header is
    validated and discarded, then the ``payload``'s op taxonomy applies
    — c(reate)/r(ead-snapshot)/u(pdate) take the ``after`` image,
    d(elete) takes ``before``, t(runcate) carries no row → skip (like
    binlog rotate / MongoDB drop→None)."""
    schema = payload.get("schema")
    inner = payload.get("payload")
    if not isinstance(schema, dict) or schema.get("type") != "struct":
        raise MessageFormatError("missing Connect schema header")
    if not isinstance(inner, dict):
        raise MessageFormatError("missing Connect payload")
    op = inner.get("op")
    if op == "t":
        return []
    if op in ("c", "r", "u"):
        after = inner.get("after")
        if not isinstance(after, dict):
            raise MessageFormatError("op without after-image")
        return [(OP_UPSERT, after, {})]
    if op == "d":
        before = inner.get("before")
        if not isinstance(before, dict):
            raise MessageFormatError("delete without before-image")
        return [(OP_DELETE, before, {})]
    raise UnknownOperationError(f"unknown connect op: {op!r}")


def decode_mongo(payload: dict) -> list[OpTuple]:
    """MongoDB change-stream envelope (reference
    transform/mongodb.py:304-357): ``operationType`` dispatch —
    insert/update/replace read the ``fullDocument`` image (which
    requires ``watch(full_document="updateLookup")`` upstream, per the
    reference's docstring), delete keys off ``documentKey``,
    drop/invalidate are housekeeping → skip (reference returns None),
    missing/empty operationType and unknown types raise (reference
    ValueError taxonomy, tests/transform/mongodb/test_mongodb_cdc.py:100-117).

    Values decode through the Extended-JSON kernels (M6/M7 —
    decode/extended_json.py), so `$oid`/`$numberInt`/`$date`/... arrive
    typed. ``documentKey`` carries the shard-key fields next to ``_id``
    (MongoDB's documented sharded-collection documentKey shape), which
    is what lets a delete address a (conv_id, turn_idx)-keyed lake; the
    ``_id`` oid itself routes to ``aux`` — the analog of the
    reference's dedicated ``oid`` column.
    """
    import datetime as _dt

    from commons_codec_ray.decode import extended_json

    op_type = payload.get("operationType")
    if not op_type:
        raise MessageFormatError(f"Operation Type missing or empty: {payload}")
    op_type = str(op_type)
    if op_type in ("drop", "invalidate"):
        return []
    key = payload.get("documentKey")
    if not isinstance(key, dict):
        raise MessageFormatError("missing documentKey")
    key_dec = extended_json.decode_document(key)
    oid = key_dec.pop("_id", None)
    aux = {"_id": str(oid)} if oid is not None else {}
    if op_type == "delete":
        if not key_dec:
            # Unsharded collections carry documentKey={_id} only (the
            # MongoDB default). After popping _id there is nothing left
            # to map onto the configured (conv_id, turn_idx) key, so a
            # silent pass-through would emit a null-keyed delete that
            # removes nothing. Dead-letter instead — the reference keys
            # Mongo rows by a dedicated oid column
            # (transform/mongodb.py:244-251), which our key schema does
            # not carry.
            raise MessageFormatError(
                f"delete keyed only by _id ({aux.get('_id')!r}): cannot map "
                "an unsharded documentKey onto the configured primary key"
            )
        return [(OP_DELETE, key_dec, aux)]
    if op_type in ("insert", "update", "replace"):
        doc = payload.get("fullDocument")
        if not isinstance(doc, dict):
            raise MessageFormatError(
                "missing fullDocument (subscribe with full_document='updateLookup')"
            )
        rec = extended_json.decode_document(doc)
        rec.pop("_id", None)
        # documentKey fields win over (possibly stale updateLookup) copies
        rec.update(key_dec)
        # decoded $date values are datetimes; the op-record schema carries
        # timestamps as ISO strings until the vectorized Arrow cast
        for k, v in rec.items():
            if isinstance(v, _dt.datetime):
                rec[k] = v.isoformat()
        return [(OP_UPSERT, rec, aux)]
    raise UnknownOperationError(f"Unknown CDC operation type: {op_type}")


def decode_dbz_mongo(payload: dict) -> list[OpTuple]:
    """Debezium MongoDB CONNECTOR envelope (public Kafka wire format —
    distinct from the native change stream handled by
    :func:`decode_mongo`): because Mongo documents are schemaless, the
    connector ships the row images as Extended-JSON *strings* inside
    the payload — ``after`` for c/r/u, ``filter`` (the delete criteria
    document) for d. The decode is therefore two-stage: orjson-parse
    the embedded string, then Extended-JSON value decode via the M6/M7
    kernels — the JSON-in-string re-parse pattern (T11) applied at the
    image level."""
    import datetime as _dt
    import json as _json

    from commons_codec_ray.decode import extended_json

    op = payload.get("op")
    if op is None and "payload" in payload:  # tolerate the schema wrapper
        payload = payload["payload"]
        op = payload.get("op")
    if op in ("c", "r", "u"):
        raw = payload.get("after")
        if not isinstance(raw, str):
            raise MessageFormatError("dbz-mongo op without after string")
        rec = extended_json.decode_document(_json.loads(raw))
        rec.pop("_id", None)
        for k, v in rec.items():
            if isinstance(v, _dt.datetime):
                rec[k] = v.isoformat()
        return [(OP_UPSERT, rec, {})]
    if op == "d":
        raw = payload.get("filter")
        if not isinstance(raw, str):
            raise MessageFormatError("dbz-mongo delete without filter string")
        key = extended_json.decode_document(_json.loads(raw))
        oid = key.pop("_id", None)
        if not key:
            # same unsharded-collection hazard as decode_mongo: a filter
            # of {_id} alone cannot address the configured primary key —
            # dead-letter rather than emit a null-keyed delete
            raise MessageFormatError(
                f"dbz-mongo delete keyed only by _id ({oid!r}): cannot map "
                "onto the configured primary key"
            )
        return [(OP_DELETE, key, {})]
    raise UnknownOperationError(f"unknown dbz-mongo op: {op!r}")


def _guard_nonempty(fn):
    """Reject data ops whose record decoded to an EMPTY dict — a
    mutated/truncated envelope (``data: {}``, ``Keys: {}``) would
    otherwise surface as a null-keyed upsert/delete that silently
    addresses nothing (the same hazard class as the unsharded-Mongo
    delete above). Raising MessageFormatError dead-letters the row in
    DecodeEnvelopes instead."""
    import functools

    @functools.wraps(fn)
    def wrapped(payload: dict) -> list[OpTuple]:
        ops = fn(payload)
        for op, rec, _aux in ops:
            if op in (OP_UPSERT, OP_DELETE) and not rec:
                raise MessageFormatError("empty record in data op")
        return ops

    return wrapped


DECODERS = {
    name: _guard_nonempty(fn)
    for name, fn in {
        "debezium": decode_debezium,
        "dbz_mongo": decode_dbz_mongo,
        "binlog": decode_binlog,
        "ddbstream": decode_ddbstream,
        "maxwell": decode_maxwell,
        "canal": decode_canal,
        "connect": decode_connect,
        "mongo": decode_mongo,
    }.items()
}


# --- columnar builders --------------------------------------------------------
# The three dialects EventsToEnvelopes emits also have a columnar builder.
# The decode stage parses a dialect group with one ``pyarrow.json.read_json``
# call under the builder's ``schema``; rows that break the schema go to
# the row loop (``stages/decode_stage.py::_parse_group``). The builder then
# takes only the rows it can prove its row decoder above decodes cleanly,
# and emits for them the op columns the row loop would emit. Every other
# row (controls, poison, both-null keys, unexpected shapes) stays with the
# row loop, so the two paths agree by construction.
#
# Arrow reads a JSON null and a missing field alike, while the row
# decoders mostly read both through ``dict.get``. Where a row decoder does
# tell them apart (a DynamoDB attribute ``null`` is an error), the builder
# requires the field to be present.

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

RECORD_FIELDS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")
_RECORD = pa.struct(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int64()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.string()),
    ]
)


class Columns(NamedTuple):
    """What a builder took from a parsed group of n rows: ``ok`` (n
    bools) marks the rows it decoded, ``parent`` gives each output row's
    group row (ascending; a binlog row may give several or none), and
    ``cols`` holds the output columns ``op``, ``table_name`` and
    :data:`RECORD_FIELDS` (``turn_idx`` as int32)."""

    ok: np.ndarray
    parent: np.ndarray
    cols: dict[str, pa.Array]


class ColumnarDialect(NamedTuple):
    schema: pa.Schema
    build: Callable[[pa.RecordBatch, str], Columns]


def np_mask(mask) -> np.ndarray:
    """Boolean Arrow array → numpy, null → False."""
    return pc.fill_null(mask, False).to_numpy(zero_copy_only=False)


def _nonempty(s):
    """Not null and not "" (never null itself)."""
    return pc.and_kleene(pc.is_valid(s), pc.not_equal(s, ""))


def _key_ok(cid, ti) -> np.ndarray:
    """A record the row loop emits as is: not both keys null (that also
    covers ``{}``), and ``turn_idx`` null or within int32."""
    in_range = pc.and_(pc.greater_equal(ti, INT32_MIN), pc.less_equal(ti, INT32_MAX))
    return np_mask(pc.or_(pc.is_valid(cid), pc.is_valid(ti))) & np_mask(
        pc.or_(pc.is_null(ti), in_range)
    )


def _columns(ok: np.ndarray, parent: np.ndarray, emit: np.ndarray, **cols) -> Columns:
    """Columns of the output rows ``emit`` selects."""
    sel = pa.array(emit)
    out = {k: pc.filter(v, sel) for k, v in cols.items()}
    out["turn_idx"] = out["turn_idx"].cast(pa.int32())
    return Columns(ok, parent[emit], out)


def _op_codes(delete: np.ndarray) -> pa.Array:
    return pa.array(np.where(delete, OP_DELETE, OP_UPSERT).astype(np.int8))


def extract_table(payload: dict, default: str) -> str:
    """Table address from the envelope — the reference's ``TableAddress``
    derivation (model.py:20-29): Debezium-style ``metadata.schema-name``/
    ``table-name`` (with the awsdms_* control tables diverted to the
    ``dms`` schema, transform/aws_dms.py:47-55), binlog-style
    ``table.{schema,name}``; the ``public`` schema is elided.
    :func:`_qualified` is its columnar mirror."""
    m = payload.get("metadata")
    if isinstance(m, dict):
        t = m.get("table-name")
        if t:
            s = m.get("schema-name") or "public"
            if t.startswith("awsdms_"):
                s = "dms"
            return t if s == "public" else f"{s}.{t}"
    t = payload.get("table")
    if isinstance(t, dict):
        name = t.get("name")
        if name:
            s = t.get("schema") or "public"
            return name if s == "public" else f"{s}.{name}"
    ns = payload.get("ns")
    if isinstance(ns, dict):  # MongoDB change-stream namespace {db, coll}
        coll = ns.get("coll")
        if coll:
            db = ns.get("db") or "public"
            return coll if db == "public" else f"{db}.{coll}"
    return default


def _qualified(schema, name, awsdms: bool = False):
    """``name`` when its schema (null or "" → ``public``) is ``public``,
    else ``schema.name``: :func:`extract_table`'s address rule, with the
    ``awsdms_*`` control tables in ``dms`` for Debezium/DMS. A builder
    takes a row only when its ``table-name``/``table.name`` is non-empty,
    so the ``table``/``ns`` fallbacks never apply to the rows it takes."""
    s = pc.if_else(_nonempty(schema), schema, "public")
    if awsdms:
        s = pc.if_else(pc.starts_with(name, "awsdms_"), "dms", s)
    return pc.if_else(pc.equal(s, "public"), name, pc.binary_join_element_wise(s, name, "."))


def _record(rec) -> dict:
    return {k: pc.struct_field(rec, k) for k in RECORD_FIELDS}


DEBEZIUM_SCHEMA = pa.schema(
    [
        ("data", _RECORD),
        ("before-image", pa.struct([])),
        (
            "metadata",
            pa.struct(
                [
                    ("operation", pa.string()),
                    ("schema-name", pa.string()),
                    ("table-name", pa.string()),
                    ("commit-timestamp", pa.string()),
                    ("stream-position", pa.string()),
                    ("transaction-id", pa.int64()),
                    ("record-type", pa.string()),
                ]
            ),
        ),
    ]
)


def build_debezium(p: pa.RecordBatch, default_table: str) -> Columns:
    """Data records of load/insert/update/delete envelopes."""
    meta, data = p["metadata"], p["data"]
    operation = pc.struct_field(meta, "operation")
    tname = pc.struct_field(meta, "table-name")
    rec = _record(data)
    ok = (
        np_mask(pc.is_valid(data))
        & np_mask(pc.is_in(operation, value_set=pa.array(["load", "insert", "update", "delete"])))
        & ~np_mask(pc.equal(pc.struct_field(meta, "record-type"), "control"))
        & np_mask(_nonempty(tname))  # else extract_table reads past metadata
        & _key_ok(rec["conv_id"], rec["turn_idx"])
    )
    return _columns(
        ok,
        np.arange(len(ok)),
        ok,
        op=_op_codes(np_mask(pc.equal(operation, "delete"))),
        table_name=_qualified(pc.struct_field(meta, "schema-name"), tname, awsdms=True),
        **rec,
    )


BINLOG_SCHEMA = pa.schema(
    [
        ("op", pa.string()),
        ("rows", pa.list_(pa.struct([("before", _RECORD), ("after", _RECORD)]))),
        ("table", pa.struct([("schema", pa.string()), ("name", pa.string())])),
        ("log_pos", pa.int64()),
        ("server_id", pa.int64()),
    ]
)


def build_binlog(p: pa.RecordBatch, default_table: str) -> Columns:
    """One output row per element of ``rows``; rotate/heartbeat envelopes
    are taken and emit nothing."""
    op, rows, table = p["op"], p["rows"], p["table"]
    name = pc.struct_field(table, "name")
    skip = np_mask(pc.is_in(op, value_set=pa.array(["rotate", "heartbeat"])))
    delete = np_mask(pc.equal(op, "delete_rows"))
    data_op = (
        np_mask(pc.is_in(op, value_set=pa.array(["write_rows", "update_rows", "delete_rows"])))
        & np_mask(pc.is_valid(rows))
        & np_mask(_nonempty(name))  # else extract_table reads past table
    )
    flat = pc.list_flatten(rows)
    parent = pc.list_parent_indices(rows).to_numpy()
    el_delete = delete[parent]
    image = pc.if_else(
        pa.array(el_delete), pc.struct_field(flat, "before"), pc.struct_field(flat, "after")
    )
    rec = _record(image)
    el_ok = np_mask(pc.is_valid(image)) & _key_ok(rec["conv_id"], rec["turn_idx"])
    ok = data_op.copy()
    ok[parent[~el_ok]] = False  # one bad row fails its whole envelope
    emit = ok[parent]
    ok |= skip
    return _columns(
        ok,
        parent,
        emit,
        op=_op_codes(el_delete),
        table_name=_qualified(pc.struct_field(table, "schema"), name).take(pa.array(parent)),
        **rec,
    )


_S = pa.struct([("S", pa.string())])
_N = pa.struct([("N", pa.string())])
_S_OR_NULL = pa.struct([("S", pa.string()), ("NULL", pa.bool_())])
DDBSTREAM_SCHEMA = pa.schema(
    [
        ("eventSource", pa.string()),
        ("eventName", pa.string()),
        (
            "dynamodb",
            pa.struct(
                [
                    ("Keys", pa.struct([("conv_id", _S), ("turn_idx", _N)])),
                    ("ApproximateCreationDateTime", pa.int64()),
                    (
                        "NewImage",
                        pa.struct(
                            [("conv_id", _S), ("turn_idx", _N)]
                            + [(f, _S_OR_NULL) for f in RECORD_FIELDS[2:]]
                        ),
                    ),
                ]
            ),
        ),
    ]
)


def build_ddbstream(p: pa.RecordBatch, default_table: str) -> Columns:
    """INSERT/MODIFY read ``NewImage``, REMOVE reads ``Keys``; every
    descriptor must carry exactly one of the markers its column takes."""
    name, ddb = p["eventName"], p["dynamodb"]
    remove = pc.equal(name, "REMOVE")
    image = pc.struct_field(ddb, "NewImage")

    def key(path):  # REMOVE reads Keys, INSERT/MODIFY read NewImage
        return pc.if_else(
            remove, pc.struct_field(ddb, ["Keys", *path]), pc.struct_field(image, path)
        )

    cid = key(["conv_id", "S"])
    n = key(["turn_idx", "N"])
    # ``N`` becomes float(N) and then int(...): exact for a plain int32
    # literal, so only those are taken
    plain = np_mask(pc.match_substring_regex(n, r"^-?[0-9]{1,10}$"))
    ti = pc.if_else(pa.array(plain), n, None).cast(pa.int64())
    ok = (
        np_mask(pc.equal(p["eventSource"], "aws:dynamodb"))
        & np_mask(pc.is_in(name, value_set=pa.array(["INSERT", "MODIFY", "REMOVE"])))
        & np_mask(pc.is_valid(cid))
        & plain
        & _key_ok(cid, ti)
    )
    rec = {"conv_id": cid, "turn_idx": ti}
    upsert = ~np_mask(remove)
    for f in RECORD_FIELDS[2:]:
        s = pc.struct_field(image, [f, "S"])
        # exactly one marker; a JSON ``null`` attribute is an error there
        one = np_mask(pc.xor(pc.is_valid(s), pc.is_valid(pc.struct_field(image, [f, "NULL"]))))
        ok &= ~upsert | one
        rec[f] = pc.if_else(remove, pa.scalar(None, pa.string()), s)
    return _columns(
        ok,
        np.arange(len(ok)),
        ok,
        op=_op_codes(~upsert),
        table_name=pa.repeat(pa.scalar(default_table), len(ok)),
        **rec,
    )


COLUMNAR = {
    "debezium": ColumnarDialect(DEBEZIUM_SCHEMA, build_debezium),
    "binlog": ColumnarDialect(BINLOG_SCHEMA, build_binlog),
    "ddbstream": ColumnarDialect(DDBSTREAM_SCHEMA, build_ddbstream),
}
