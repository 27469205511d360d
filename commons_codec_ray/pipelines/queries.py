"""Driver-facing query catalog: Ray pipelines + matching DuckDB oracle SQL.

Each ``q_*`` function takes ``sf_dir`` and returns a Dataset / Table.
``ORACLE_SQL`` holds the ANSI-SQL equivalent for DuckDB over the same
parquet tables (views pre-registered by the evaluation driver). Column
names are kept identical on both sides — the driver's compare hashes
values after sorting columns by name.

The CDC queries rely on the deterministic events→envelope mapping in
:mod:`commons_codec_ray.envelopes`: the Ray side round-trips through real
envelope encode + decode + LWW apply, while the SQL oracle computes the
same result directly with window functions — a lossless round trip makes
them comparable.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.aggregate import Max, Sum

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.schemas import OP_NAMES, OP_SCHEMA_CHANGE
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes
from commons_codec_ray.stages import dedup as dedup_stage
from commons_codec_ray.stages import text as text_stage
from commons_codec_ray.stages import similarity as sim_stage
from commons_codec_ray.util import adaptive_buckets, duck_rint, duckdb_round, hash_bucket, pool_size

_EVENT_COLUMNS = ["event_id", "ts", "user_id", "event_type", "value", "props"]


def _stage_dir(prefix: str, sf_dir: str, table: str = "events"):
    """Content-fingerprinted /tmp staging dir for cached query prep.

    The fingerprint (source parquet size + mtime_ns) is folded into the
    path so regenerated input data under the SAME sf_dir name never
    serves stale shards — a bare ``Path(sf_dir).name`` key plus a
    ``_DONE`` marker would.
    """
    import os
    from pathlib import Path

    st = os.stat(f"{sf_dir}/{table}.parquet")
    fp = f"{st.st_size:x}-{st.st_mtime_ns:x}"
    return Path(f"/tmp/{prefix}") / f"{Path(sf_dir).name}-{fp}"


def _events(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=_EVENT_COLUMNS)


def _documents(sf_dir: str):
    return rd.read_parquet(f"{sf_dir}/documents.parquet")


# ---------------------------------------------------------------------------
# CDC: flagship replay + per-dialect decode + dead letters
# ---------------------------------------------------------------------------


def _via_temp_lake(cfg: PipelineConfig, apply):
    """Run ``apply(pipe, work_dir)`` on a CDCPipeline over a fresh temp
    lake and return the lake's final state, read back materialized; the
    temp dir is removed when the call returns or raises."""
    import shutil
    import tempfile

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    work = tempfile.mkdtemp(prefix="ccr_lake_")
    try:
        pipe = CDCPipeline(f"{work}/lake", cfg)
        apply(pipe, work)
        return pipe.read_lake().materialize()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _apply_via_pipeline(ds, cfg: PipelineConfig | None = None, decode: bool = True):
    """The catalog's CDC replays: apply a Dataset of envelopes (or, with
    ``decode=False``, of op records) as one epoch through CDCPipeline's
    applier pool — decode tasks, hash split, LWW apply — and return the
    final lake state."""

    def apply(pipe, _work):
        if decode:
            pipe.run_epoch(ds, 0, (0, 0))
        else:
            pipe._apply_dataset(ds, 0, (0, 0), decode=False)

    return _via_temp_lake(cfg or PipelineConfig(), apply)


def q_cdc_replay(sf_dir: str):
    """Full mixed-dialect CDC replay (with duplicate deliveries) → final
    lake state. The headline pipeline: encode → decode → hash split into
    the applier pool → LWW apply, through CDCPipeline like every lake
    write."""
    ds = _events(sf_dir)
    return _apply_via_pipeline(
        ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    )


def q_cdc_replay_shuffled(sf_dir: str):
    """Ordering-robustness evidence: the SAME replay with the envelope
    stream deliberately SCRAMBLED first (sorted by a splitmix hash of
    the lsn — adversarial arrival order, duplicates included). Because
    the applier resolves each key by max lsn, whatever order its ops
    arrive in, the final lake must be byte-identical to the in-order
    oracle — per-key ordering survives the hash split + arbitrary
    arrival order, the §2.8 guarantee the reference gets for free by
    being single-threaded."""
    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")

    def scramble_key(t: pa.Table) -> pa.Table:
        lsn = t["lsn"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (lsn + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(31)
        return t.append_column("_scr", pa.array(h.astype(np.int64), pa.int64()))

    ds = ds.map_batches(scramble_key, batch_format="pyarrow").sort("_scr")
    return _apply_via_pipeline(
        ds.map_batches(lambda t: t.drop_columns(["_scr"]), batch_format="pyarrow")
    )


_CDC_REPLAY_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ops)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op = 1
"""


def q_cdc_merge_sources(sf_dir: str):
    """Multi-SOURCE CDC merge with source priority — the failover /
    correction-feed topology: a primary feed (priority 1, every event)
    and a corrections feed (priority 2, every 7th lsn, amended text)
    stream the SAME table, and conflict resolution is lexicographic
    (lsn, priority) — encoded as one int64 ``eff = 4·lsn + priority``
    in the ops' ``lsn`` so the applier's LWW needs no second sort key
    and the ordering survives any cluster layout. Both feeds run the
    REAL mixed-dialect envelope encode → decode path with duplicate
    deliveries; the union of their ops is applied as one epoch through
    CDCPipeline's applier pool (the same hash split as cdc_replay —
    merging sources adds decode width, not exchanges). Corrections at a
    key's final lsn win; corrections that are deletes (lsn ≡ 7 mod 70 —
    the 7th-lsn feed deliberately intersects the %10==7 delete lane)
    tombstone it."""
    cfg = PipelineConfig()

    def decoded(events_ds):
        ds = events_ds.map_batches(
            EventsToEnvelopes(duplicates=True), batch_format="pyarrow"
        )
        ds = ds.map_batches(
            DecodeEnvelopes(cfg, combine=True),
            batch_format="pyarrow",
            batch_size=cfg.decode_batch_size,
        )
        return ds.map_batches(
            lambda t: t.filter(pc.less(t["op"], OP_SCHEMA_CHANGE)),
            batch_format="pyarrow",
        )

    def corrections(t: pa.Table) -> pa.Table:
        f = t.filter(
            pc.equal(pc.subtract(t["event_id"], pc.multiply(pc.divide(t["event_id"], 7), 7)), 0)
        )
        fixed = pc.binary_join_element_wise("corrected-", f["props"], "")
        return f.set_column(f.schema.get_field_index("props"), "props", fixed)

    def prio(p: int):
        def tagged(t: pa.Table) -> pa.Table:
            eff = pc.add(pc.multiply(t["lsn"], 4), p)
            return t.set_column(t.schema.get_field_index("lsn"), "lsn", eff)

        return tagged

    primary = decoded(_events(sf_dir)).map_batches(prio(1), batch_format="pyarrow")
    corr = decoded(
        _events(sf_dir).map_batches(corrections, batch_format="pyarrow")
    ).map_batches(prio(2), batch_format="pyarrow")
    return _apply_via_pipeline(primary.union(corr), cfg, decode=False)


_CDC_MERGE_SOURCES_SQL = """
WITH base AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, 4 * event_id + 1 AS eff
  FROM events),
corr AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR),
         CAST(event_id % 40 AS INTEGER),
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END,
         event_type, 'corrected-' || props,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END,
         ts, 4 * event_id + 2
  FROM events WHERE event_id % 7 = 0),
ops AS (SELECT * FROM base UNION ALL SELECT * FROM corr),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY eff DESC) AS rn
  FROM ops)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op = 1
"""


def q_cdc_log_compaction(sf_dir: str):
    """Kafka-style changelog compaction: the LAST operation per key
    (by LSN) with delete TOMBSTONES RETAINED — the compacted-topic
    materialization a new consumer bootstraps from (state + deletions),
    vs `cdc_replay` which resolves LWW and DROPS tombstones. Engine
    shape: identical to the replay lane (decode → ONE shuffle_key-
    keyed exchange), per-group vectorized last-by-lsn keeping the
    whole row; duplicate deliveries collapse because they are
    byte-identical rows at the same lsn."""
    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=True),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )
    ds = ds.map_batches(
        lambda t: t.filter(pc.less(t["op"], OP_SCHEMA_CHANGE)), batch_format="pyarrow"
    )

    def compact(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx", "lsn"], kind="mergesort")
        out = df.drop_duplicates(["conv_id", "turn_idx"], keep="last")
        out = out[["conv_id", "turn_idx", "op", "role", "text", "tool", "ts", "lsn"]]
        return out.assign(op=out["op"].astype(np.int64))

    # not the Applier: the lake drops tombstones, this output keeps them
    return ds.groupby("shuffle_key").map_groups(compact, batch_format="pandas")


_CDC_LOG_COMPACTION_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         CASE WHEN event_id % 10 = 7 THEN NULL ELSE event_type END AS role,
         CASE WHEN event_id % 10 = 7 THEN NULL ELSE props END AS text,
         CASE WHEN event_id % 10 = 7 OR value < 50 THEN NULL ELSE 'search' END AS tool,
         CASE WHEN event_id % 10 = 7 THEN NULL ELSE ts END AS ts,
         event_id AS lsn
  FROM events),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ops)
SELECT conv_id, turn_idx, CAST(op AS BIGINT) AS op, role, text, tool, ts, lsn
FROM ranked WHERE rn = 1
"""


def q_cdc_replay_universal(sf_dir: str):
    """Same replay through the UNIVERSAL (pk/data/aux) layout end-to-end
    (reference transform/aws_dms.py:249-347): decode to 3-bucket records,
    full-doc LWW apply (apply_ops_universal), then re-materialize typed
    columns from the ``data`` JSON — must equal the DIRECT-layout oracle
    byte-exact."""
    import json as _json

    from commons_codec_ray.stages.applier import apply_ops_universal
    from commons_codec_ray.stages.decode_stage import _cast_timestamps

    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=True, layout="universal"),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )
    ds = ds.map_batches(
        lambda t: t.filter(pc.less(t["op"], OP_SCHEMA_CHANGE)), batch_format="pyarrow"
    )

    def apply_univ(group: pa.Table) -> pa.Table:
        return apply_ops_universal(None, group).drop_columns(["_lsn"])

    # not the Applier: its state is the typed-column layout, this is pk/data/aux
    final = ds.groupby("partition_id").map_groups(apply_univ, batch_format="pyarrow")

    def materialize(t: pa.Table) -> pa.Table:
        docs = [(_json.loads(d) if d else {}) for d in t["data"].to_pylist()]
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "role": pa.array([d.get("role") for d in docs], pa.string()),
                "text": pa.array([d.get("text") for d in docs], pa.string()),
                "tool": pa.array([d.get("tool") for d in docs], pa.string()),
                "ts": _cast_timestamps([d.get("ts") for d in docs]),
            }
        )

    return final.map_batches(materialize, batch_format="pyarrow")


def _q_decode(sf_dir: str, dialect: str):
    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(
        EventsToEnvelopes(dialect=dialect, duplicates=False), batch_format="pyarrow"
    )
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=False),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )

    def project(t: pa.Table) -> pa.Table:
        names = pa.array([OP_NAMES[o] for o in t["op"].to_pylist()], type=pa.string())
        return pa.table(
            {
                "op": names,
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "role": t["role"],
                "text": t["text"],
                "tool": t["tool"],
                "ts": t["ts"],
                "lsn": t["lsn"],
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def q_decode_debezium(sf_dir: str):
    """Debezium-style envelope decode only (no apply): op taxonomy,
    null-padded delete images, ISO timestamp parse."""
    return _q_decode(sf_dir, "debezium")


def q_decode_binlog(sf_dir: str):
    """MySQL-binlog-style envelope decode only."""
    return _q_decode(sf_dir, "binlog")


def q_decode_ddbstream(sf_dir: str):
    """DynamoDB-Streams-style envelope decode only (descriptor type system)."""
    return _q_decode(sf_dir, "ddbstream")


def q_decode_maxwell(sf_dir: str):
    """Maxwell's-daemon-style envelope decode only (flat JSON,
    insert/update/delete with full image in ``data``)."""
    return _q_decode(sf_dir, "maxwell")


def q_decode_connect(sf_dir: str):
    """Kafka Connect JsonConverter (schemas.enable=true) wrapping a
    native Debezium before/after/op record — decode only: schema header
    validated+discarded, c/r/u take ``after``, d takes ``before``."""
    return _q_decode(sf_dir, "connect")


def q_decode_canal(sf_dir: str):
    """Alibaba-Canal-style envelope decode only: every cell arrives
    stringified and native types are recovered from the envelope's
    JDBC ``sqlType`` map — the decode round-trip proves the typed
    coercion path, since the oracle compares against natively-typed
    rows."""
    return _q_decode(sf_dir, "canal")


def q_decode_mongo(sf_dir: str):
    """MongoDB change-stream envelope decode only (reference
    transform/mongodb.py:304-357): operationType dispatch over
    insert/update/replace (fullDocument image, updateLookup form) and
    delete (documentKey), values decoded from canonical Extended JSON
    ($oid/$numberInt/$date) via the M6/M7 kernels."""
    return _q_decode(sf_dir, "mongo")


def q_decode_dbz_mongo(sf_dir: str):
    """Debezium MongoDB CONNECTOR envelope decode only (public Kafka
    wire format, distinct from the native change stream): row images
    arrive as Extended-JSON STRINGS (after / filter) — orjson re-parse
    then M6/M7 typed decode, the T11 JSON-in-string pattern at image
    level."""
    return _q_decode(sf_dir, "dbz_mongo")


def q_cdc_replay_all_dialects(sf_dir: str):
    """The mixed-bus replay: ONE envelope stream round-robining over
    ALL EIGHT dialects (debezium, binlog, ddbstream, maxwell, canal,
    connect, mongo, dbz_mongo — ``lsn % 8``), duplicates included, through the
    same decode → hash split → LWW apply path (CDCPipeline's applier
    pool) as cdc_replay. The final lake state is dialect-invariant, so
    the oracle is the shared envelope-free replay SQL."""
    ds = _events(sf_dir)
    return _apply_via_pipeline(
        ds.map_batches(EventsToEnvelopes(dialect="all", duplicates=True), batch_format="pyarrow")
    )


def q_mongo_full_load(sf_dir: str):
    """MongoDB full-load skin (reference transform/mongodb.py:239-269,
    T4): a Cursor-shaped batch of Extended-JSON documents is
    bulk-decoded (decode_documents) and keyed by the document OID
    (get_document_key, reference transform/mongodb.py:244-251) — the
    engine analog of the reference's executemany
    ``INSERT INTO (oid, data)``. Documents are synthesized
    deterministically from events (each event = one document with a
    hex-of-event_id ObjectId), so the oracle reconstructs the same rows
    envelope-free."""
    from commons_codec_ray.decode.extended_json import decode_documents

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "props"],
    )

    def bulk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        user = t["user_id"].to_numpy(zero_copy_only=False)
        etype = t["event_type"].to_numpy(zero_copy_only=False)
        props = t["props"].to_numpy(zero_copy_only=False)
        ts_iso = np.datetime_as_string(
            t["ts"].cast(pa.int64()).to_numpy().astype("datetime64[us]"), unit="us"
        )
        # the "Cursor" batch of wire-form documents
        docs = [
            {
                "_id": {"$oid": f"{int(eid[i]):024x}"},
                "conv_id": f"c-{user[i]}",
                "turn_idx": {"$numberInt": str(int(eid[i]) % 40)},
                "role": etype[i],
                "text": props[i],
                "ts": {"$date": ts_iso[i]},
            }
            for i in range(t.num_rows)
        ]
        records = decode_documents(docs)
        oids = [r.pop("_id") for r in records]  # get_document_key
        return pa.table(
            {
                "oid": pa.array(oids, pa.string()),
                "conv_id": pa.array([r["conv_id"] for r in records], pa.string()),
                "turn_idx": pa.array(
                    [r["turn_idx"] for r in records], pa.int32()
                ),
                "role": pa.array([r["role"] for r in records], pa.string()),
                "text": pa.array([r["text"] for r in records], pa.string()),
                "ts": pa.array([r["ts"] for r in records], pa.timestamp("us")),
            }
        )

    return events.map_batches(bulk, batch_format="pyarrow")


_MONGO_FULL_LOAD_SQL = """
SELECT printf('%024x', event_id)          AS oid,
       'c-' || CAST(user_id AS VARCHAR)   AS conv_id,
       CAST(event_id % 40 AS INTEGER)     AS turn_idx,
       event_type                         AS role,
       props                              AS text,
       ts
FROM events
"""


def q_ddb_full_load(sf_dir: str):
    """DynamoDB full-load skin (reference transform/dynamodb.py:141-159,
    T2): a bulk batch of TYPED DynamoDB items (S/N/BOOL/M/L descriptors)
    is attribute-deserialized (decode/dynamodb_types.py:deserialize_image
    — CrateDB flavor, N→float) and split into the universal
    (pk, typed, untyped) layout by the record bucketizer
    (decode/bucketizer.py, ref model.py:161-175): primary-key fields out
    front, scalar attributes typed, nested maps and VARIED lists routed
    to the untyped bucket — the engine analog of the reference's
    executemany ``INSERT INTO (pk, typed, untyped)``. Items are
    synthesized deterministically from events so the oracle rebuilds
    the same rows envelope-free (N→float shows up as DOUBLE pk/typed
    columns; the untyped bucket serializes to canonical sorted-key
    JSON)."""
    import json as _json

    from commons_codec_ray.decode.bucketizer import bucketize
    from commons_codec_ray.decode.dynamodb_types import deserialize_image

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value"],
    )

    def bulk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        user = t["user_id"].to_numpy(zero_copy_only=False)
        etype = t["event_type"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        out = {"conv_id": [], "turn_idx": [], "role": [], "value": [], "untyped": []}
        for i in range(t.num_rows):
            item = {
                "conv_id": {"S": f"c-{int(user[i])}"},
                "turn_idx": {"N": str(int(eid[i]) % 40)},
                "role": {"S": str(etype[i])},
                "value": {"N": repr(float(val[i]))},
                "attrs": {"M": {"src": {"S": "app"}, "n": {"N": str(int(eid[i]) % 5)}}},
                "tags": {"L": [{"S": str(etype[i])}, {"N": str(int(eid[i]) % 3)}]},
            }
            typed, varied = deserialize_image(item)
            rec = bucketize(typed, ("conv_id", "turn_idx"), varied_fields=varied)
            out["conv_id"].append(rec["pk"]["conv_id"])
            out["turn_idx"].append(rec["pk"]["turn_idx"])
            out["role"].append(rec["typed"]["role"])
            out["value"].append(rec["typed"]["value"])
            out["untyped"].append(
                _json.dumps(rec["untyped"], sort_keys=True, separators=(",", ":"))
            )
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "turn_idx": pa.array(out["turn_idx"], pa.float64()),
                "role": pa.array(out["role"], pa.string()),
                "value": pa.array(out["value"], pa.float64()),
                "untyped": pa.array(out["untyped"], pa.string()),
            }
        )

    return events.map_batches(bulk, batch_format="pyarrow", concurrency=pool_size(2))


_DDB_FULL_LOAD_SQL = """
SELECT 'c-' || CAST(user_id AS VARCHAR)       AS conv_id,
       CAST(event_id % 40 AS DOUBLE)          AS turn_idx,
       event_type                             AS role,
       value,
       '{"attrs":{"n":' || CAST(event_id % 5 AS VARCHAR)
           || '.0,"src":"app"},"tags":["' || event_type || '",'
           || CAST(event_id % 3 AS VARCHAR) || '.0]}' AS untyped
FROM events
"""


def q_ddb_decimal_sum(sf_dir: str):
    """Lossless-Decimal DynamoDB numerics (``numeric_mode="decimal"``,
    the vanilla-boto3 38-digit path the CrateDB flavor's N→float
    override replaces — reference vendor/boto3/dynamodb/types.py:36-41):
    N descriptors carrying 8-dp decimal strings whose sums float64
    cannot represent are decoded to ``decimal.Decimal`` under the
    DynamoDB context and summed EXACTLY per event_type. Partials travel
    as Arrow decimal128(38,8); the final reduce runs on kilobyte
    partials only."""
    import decimal as _dec

    from commons_codec_ray.decode.dynamodb_types import DYNAMODB_CONTEXT, deserialize

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        etype = t["event_type"].to_numpy(zero_copy_only=False)
        sums: dict[str, _dec.Decimal] = {}
        with _dec.localcontext(DYNAMODB_CONTEXT):
            for i in range(t.num_rows):
                e = int(eid[i])
                v, _ = deserialize(
                    {"N": f"{e * 10007}.{e % 10**8:08d}"}, numeric_mode="decimal"
                )
                k = etype[i]
                sums[k] = sums[k] + v if k in sums else v
        keys = sorted(sums)
        return pa.table(
            {
                "event_type": pa.array(keys, pa.string()),
                "part": pa.array([sums[k] for k in keys], pa.decimal128(38, 8)),
            }
        )

    parts = events.map_batches(partial, batch_format="pyarrow").to_pandas()
    with _dec.localcontext(DYNAMODB_CONTEXT):
        g = parts.groupby("event_type")["part"].apply(
            lambda s: sum(s, _dec.Decimal(0)).quantize(_dec.Decimal("1E-8"))
        )
    keys = sorted(g.index)
    return pa.table(
        {
            "event_type": pa.array(keys, pa.string()),
            "total": pa.array([str(g[k]) for k in keys], pa.string()),
        }
    )


_DDB_DECIMAL_SUM_SQL = """
SELECT event_type,
       CAST(sum(CAST(printf('%d.%08d', event_id * 10007, event_id % 100000000)
                     AS DECIMAL(38,8))) AS VARCHAR) AS total
FROM events GROUP BY event_type
"""


def q_cdc_replay_mongo(sf_dir: str):
    """End-to-end replay driven ENTIRELY by MongoDB change-stream
    envelopes (the reference's flagship dialect): encode → decode_mongo
    → hash split → LWW apply, duplicates included — proves the
    mongo grammar carries inserts/updates/replaces/deletes through the
    full lake path alone, not just the decode stage. Oracle: the shared
    envelope-free replay SQL (final state is dialect-invariant)."""
    ds = _events(sf_dir)
    return _apply_via_pipeline(
        ds.map_batches(EventsToEnvelopes(dialect="mongo", duplicates=True), batch_format="pyarrow")
    )


def q_lake_audit(sf_dir: str):
    """Post-ingest data-quality audit of the replayed lake — the
    invariant check a production ingest runs after every backfill:
    total rows, DISTINCT (conv_id, turn_idx) key count (uniqueness is
    the lake's primary invariant; a dup means an apply bug), null-text
    rows and null-role rows. The distinct count is exact and
    distributed: packed (hash(conv), turn) int keys → batch-distinct →
    ONE bucketed exchange of key partials → per-bucket distinct counts
    summed. Oracle recomputes the same audit from the replay CTE."""
    nb = adaptive_buckets()
    lake = q_cdc_replay(sf_dir)

    def key_rows(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "conv_id": t["conv_id"].to_numpy(zero_copy_only=False),
                "turn_idx": t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        ).drop_duplicates()  # batch-distinct; cross-batch dups meet in the bucket
        h = pd.util.hash_array(df["conv_id"].to_numpy(object)).astype(np.int64)
        text_null = int(pc.sum(pc.is_null(t["text"])).as_py() or 0)
        role_null = int(pc.sum(pc.is_null(t["role"])).as_py() or 0)
        n = len(df)
        pad = lambda x: [x] + [0] * (n - 1) if n else []  # noqa: E731
        return pa.table(
            {
                "_b": hash_bucket(h, nb),
                "conv_id": pa.array(df["conv_id"], pa.string()),
                "turn_idx": pa.array(df["turn_idx"].to_numpy(np.int64), pa.int64()),
                "rows": pa.array(pad(t.num_rows), pa.int64()),
                "null_text": pa.array(pad(text_null), pa.int64()),
                "null_role": pa.array(pad(role_null), pa.int64()),
            }
        )

    def bucket_stats(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "keys": [len(df.drop_duplicates(["conv_id", "turn_idx"]))],
                "rows": [df["rows"].sum()],
                "null_text": [df["null_text"].sum()],
                "null_role": [df["null_role"].sum()],
            }
        )

    parts = (
        lake.map_batches(key_rows, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(bucket_stats, batch_format="pandas")
        .to_pandas()
    )
    n_rows = int(parts["rows"].sum())
    n_keys = int(parts["keys"].sum())
    return pa.table(
        {
            "n_rows": pa.array([n_rows], pa.int64()),
            "n_keys": pa.array([n_keys], pa.int64()),
            "n_dup_keys": pa.array([n_rows - n_keys], pa.int64()),
            "n_null_text": pa.array([int(parts["null_text"].sum())], pa.int64()),
            "n_null_role": pa.array([int(parts["null_role"].sum())], pa.int64()),
        }
    )


_LAKE_AUDIT_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         props AS text, event_type AS role, event_id AS lsn
  FROM events),
final AS (
  SELECT conv_id, turn_idx, text, role FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1)
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT (conv_id, turn_idx)) AS BIGINT) AS n_keys,
       CAST(count(*) - count(DISTINCT (conv_id, turn_idx)) AS BIGINT) AS n_dup_keys,
       CAST(sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null_text,
       CAST(sum(CASE WHEN role IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null_role
FROM final
"""


_DECODE_SQL = """
SELECT CASE WHEN event_id % 10 = 7 THEN 'DELETE' ELSE 'UPSERT' END AS op,
       'c-' || CAST(user_id AS VARCHAR) AS conv_id,
       CAST(event_id % 40 AS INTEGER)   AS turn_idx,
       CASE WHEN event_id % 10 = 7 THEN NULL ELSE event_type END AS role,
       CASE WHEN event_id % 10 = 7 THEN NULL ELSE props END      AS text,
       CASE WHEN event_id % 10 = 7 THEN NULL
            WHEN value >= 50 THEN 'search' ELSE NULL END         AS tool,
       CASE WHEN event_id % 10 = 7 THEN NULL ELSE ts END         AS ts,
       event_id AS lsn
FROM events
"""


def q_dead_letter(sf_dir: str):
    """Corrupted envelopes (event_id % 97 == 13) must be dead-lettered,
    not crash the job; returns the dead-letter count."""
    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(
        EventsToEnvelopes(duplicates=False, corrupt=True), batch_format="pyarrow"
    )
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=False), batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )
    n = ds.map_batches(
        lambda t: t.filter(pc.equal(t["op"], pa.scalar(3, pa.int8()))), batch_format="pyarrow"
    ).count()
    return pa.table({"n_dead": pa.array([n], pa.int64())})


_DEAD_LETTER_SQL = (
    "SELECT CAST(count(*) AS BIGINT) AS n_dead FROM events WHERE event_id % 97 = 13"
)


# ---------------------------------------------------------------------------
# Streaming-shaped: tumbling-window aggregate over the event stream
# ---------------------------------------------------------------------------


def q_cdc_multi_table(sf_dir: str):
    """Multi-table CDC routing end-to-end: one stream carries envelopes
    for TWO tables (odd lsns readdressed to ``archive`` via the
    Debezium table metadata), one replay routes each table into its own
    partition space and files, and the result is the union of both
    lakes tagged by table — verifying the reference's TableAddress
    semantics (model.py:20-29) through the full distributed path."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    env = EventsToEnvelopes(duplicates=False, dialect="debezium")(events)
    odd = pc.equal(pc.bit_wise_and(env["lsn"], 1), 1)
    redirected = pc.replace_substring(
        env["payload"], '"table-name":"transcripts"', '"table-name":"archive"'
    )
    payload = pc.if_else(odd, redirected, env["payload"])
    env = env.set_column(env.schema.get_field_index("payload"), "payload", payload)

    lake = _tempfile.mkdtemp(prefix="ccr_multitable_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16))
        offs = env["source_offset"]
        pipe.run_epoch(
            rd.from_arrow(env),
            epoch=0,
            offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
        )
        parts = []
        for table in ("transcripts", "archive"):
            t = pa.Table.from_pandas(
                pipe.read_lake(table=table).to_pandas(), preserve_index=False
            )
            parts.append(
                t.add_column(0, "table_name", pa.array([table] * t.num_rows, pa.string()))
            )
        out = pa.concat_tables(parts, promote_options="permissive")
        return out.select(
            ["table_name", "conv_id", "turn_idx", "role", "text", "tool", "ts"]
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_MULTI_TABLE_SQL = """
WITH ops AS (
  SELECT CASE WHEN event_id % 2 = 1 THEN 'archive' ELSE 'transcripts' END AS table_name,
         'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY table_name, conv_id, turn_idx
                               ORDER BY lsn DESC) AS rn
  FROM ops)
SELECT table_name, conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op = 1
"""


def q_unnest_tokens(sf_dir: str):
    """Explode / flat_map with ordinality: one output row per token with
    its 1-based position — pure Arrow ListArray arithmetic (flatten +
    offset-repeat + arange-minus-start), zero Python per-row work. Kept
    to every-50th doc so the result stays compare-sized at any sf."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        sel = t.filter(
            pc.equal(
                pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 50), 50)), 0
            )
        )
        la = pc.split_pattern(sel["text"].combine_chunks(), pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        n_tok = np.diff(offsets)
        doc_of = np.repeat(sel["doc_id"].to_numpy(zero_copy_only=False), n_tok)
        pos = np.arange(offsets[-1] - offsets[0], dtype=np.int64) - np.repeat(
            offsets[:-1] - offsets[0], n_tok
        ) + 1
        out = pa.table(
            {
                "doc_id": pa.array(doc_of),
                "pos": pa.array(pos),
                "token": la.flatten(),
            }
        )
        return out.filter(pc.not_equal(out["token"], ""))

    return docs.map_batches(explode, batch_format="pyarrow")


_UNNEST_SQL = """
SELECT doc_id, CAST(pos AS BIGINT) AS pos, toks[pos] AS token
FROM (
  SELECT doc_id, string_split(text, ' ') AS toks,
         unnest(range(1, len(string_split(text, ' ')) + 1)) AS pos
  FROM documents WHERE doc_id % 50 = 0
)
WHERE toks[pos] <> ''
"""


def q_string_agg(sf_dir: str):
    """Ordered per-group string aggregation (string_agg / listagg): the
    event types of each user in (ts, event_id) order, comma-joined. One
    coarse-bucket shuffle; inside a bucket the concatenation is a single
    pandas groupby-apply over pre-sorted rows — deterministic because
    the order key is total."""
    from commons_codec_ray.util import adaptive_buckets, hash_bucket

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        keys = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_wb", hash_bucket(keys, num_buckets))

    def agg_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        joined = g["event_type"].agg(",".join)
        n = g.size()
        return pa.table(
            {
                "user_id": pa.array(joined.index.to_numpy(dtype="int64")),
                "n_events": pa.array(n.to_numpy(dtype="int64")),
                "type_seq": pa.array(joined.to_numpy(), pa.string()),
            }
        )

    return (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(agg_bucket, batch_format="pandas")
    )


_STRING_AGG_SQL = """
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS type_seq
FROM events GROUP BY user_id
"""


def q_set_ops(sf_dir: str):
    """Distributed set operations (INTERSECT / EXCEPT) without a
    row-level shuffle of either input: each batch collapses to distinct
    (user_id, in_left, in_right) presence partials (the combiner), one
    small groupby ORs the flags per key, and both set results fall out
    of one pass — users with a purchase ∩ users with an error, and the
    purchase-only EXCEPT, tagged in one output."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        mask = pc.or_(pc.equal(et, "purchase"), pc.equal(et, "error"))
        sub = t.filter(mask)
        df = pd.DataFrame(
            {
                "user_id": sub["user_id"].to_numpy(zero_copy_only=False),
                "in_l": pc.equal(sub["event_type"], "purchase")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby("user_id", sort=False)["in_l"].agg(["max", "min"])
        return pa.table(
            {
                "user_id": pa.array(g.index.to_numpy(dtype="int64")),
                "in_l": pa.array(g["max"].to_numpy(dtype="int64")),
                # in_r: had at least one error row → min over in_l flags is 0
                "in_r": pa.array((1 - g["min"]).to_numpy(dtype="int64")),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("in_l", alias_name="in_l"), Max("in_r", alias_name="in_r"))
    )

    def finish(t: pa.Table) -> pa.Table:
        l = t["in_l"].to_numpy(zero_copy_only=False).astype(bool)
        r = t["in_r"].to_numpy(zero_copy_only=False).astype(bool)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        both = uid[l & r]
        only_l = uid[l & ~r]
        return pa.table(
            {
                "set_op": pa.array(
                    ["intersect"] * len(both) + ["except_l"] * len(only_l), pa.string()
                ),
                "user_id": pa.array(np.concatenate([both, only_l])),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_SET_OPS_SQL = """
WITH l AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'),
     r AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'error')
SELECT 'intersect' AS set_op, user_id FROM (SELECT user_id FROM l INTERSECT SELECT user_id FROM r)
UNION ALL
SELECT 'except_l', user_id FROM (SELECT user_id FROM l EXCEPT SELECT user_id FROM r)
"""


def q_cdc_time_travel(sf_dir: str):
    """Snapshot isolation / time travel over the committed lake: replay
    in two epochs, then read BOTH the epoch-0 snapshot (via the
    per-epoch manifest fold, ``read_lake(epoch=0)``) and the current
    checkpoint state from the SAME lake — each a consistent LWW state,
    returned tagged by snapshot. Vacuum bounds how far back this reaches
    (``CDCPipeline.vacuum``); un-vacuumed history is exactly
    reconstructible, which the SQL oracle re-derives from the lsn
    split."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))

    lake = _tempfile.mkdtemp(prefix="ccr_timetravel_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16))
        for epoch, part in enumerate((e1, e2)):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        parts = []
        for label, epoch in (("epoch0", 0), ("current", None)):
            t = pa.Table.from_pandas(
                pipe.read_lake(epoch=epoch).to_pandas(), preserve_index=False
            )
            parts.append(
                t.add_column(0, "snapshot", pa.array([label] * t.num_rows, pa.string()))
            )
        out = pa.concat_tables(parts, promote_options="permissive")
        return out.select(
            ["snapshot", "conv_id", "turn_idx", "role", "text", "tool", "ts"]
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_TIME_TRAVEL_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
boundary AS (SELECT CAST(count(*) // 2 AS BIGINT) AS b FROM events),
snap0 AS (
  SELECT 'epoch0' AS snapshot, conv_id, turn_idx, role, text, tool, ts FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops WHERE lsn < (SELECT b FROM boundary)) WHERE rn = 1 AND op = 1),
cur AS (
  SELECT 'current' AS snapshot, conv_id, turn_idx, role, text, tool, ts FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1)
SELECT * FROM snap0 UNION ALL SELECT * FROM cur
"""


def q_cdc_idempotent_replay(sf_dir: str):
    """Exactly-once evidence as a DRIVER-GATED row: epoch 0 is committed,
    then the SAME epoch is delivered again (a whole-epoch retry — the
    Lambda-storm failure mode the reference answers with ON CONFLICT DO
    NOTHING, transform/dynamodb.py:186-195), then epoch 1 lands. The
    duplicate is a checkpoint-detected no-op (pipelines/cdc.py
    ``run_epoch``: epoch ≤ last_epoch), so the final lake must equal the
    plain replay oracle byte-for-byte."""
    import pyarrow.parquet as _pq

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))

    def rng(part):
        offs = part["source_offset"]
        return (pc.min(offs).as_py(), pc.max(offs).as_py())

    def apply(pipe, _work):
        pipe.run_epoch(rd.from_arrow(e1), epoch=0, offset_range=rng(e1))
        # whole-epoch duplicate delivery → must be a committed-epoch no-op
        pipe.run_epoch(rd.from_arrow(e1), epoch=0, offset_range=rng(e1))
        pipe.run_epoch(rd.from_arrow(e2), epoch=1, offset_range=rng(e2))

    return _via_temp_lake(PipelineConfig(num_partitions=16), apply)


def q_cdc_replay_partial(sf_dir: str):
    """CDC replay with PARTIAL (column-subset) update images
    (stages/applier.py ``apply_ops_partial``): upserts carry only the
    columns their deterministic ``has_<col>`` flags mark present, so
    the final state is a per-key per-COLUMN merge in lsn order with
    delete tombstones resetting everything — the patch-image semantics
    of real Debezium/DMS feeds (reference transform/aws_dms.py:308-327
    set-clause). One conv-bucketed exchange, pandas-vectorized merge per
    bucket. The oracle re-derives each column from the latest surviving
    op that carried it (row_number per column — NOT max_by, which
    ignores legitimately-NULL present values)."""
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props", "ts"],
    )
    nb = adaptive_buckets()

    def ops(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        conv = np.char.add("c-", uid.astype(str)).astype(object)
        h = pd.util.hash_array(conv)
        return pa.table(
            {
                "_b": pa.array((h & np.uint64(nb - 1)).astype(np.int64)),
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": pa.array((eid % 40).astype(np.int32)),
                "op": pa.array(np.where(eid % 10 == 7, 0, 1).astype(np.int8)),
                "lsn": pa.array(eid, pa.int64()),
                "role": t["event_type"],
                "text": t["props"],
                "tool": pa.array(
                    np.where(val >= 50, "search", None).astype(object), pa.string()
                ),
                "ts": t["ts"],
                "has_role": pa.array(eid % 3 != 1),
                "has_text": pa.array(np.ones(len(eid), bool)),
                "has_tool": pa.array(eid % 4 != 2),
                "has_ts": pa.array(eid % 5 != 3),
            }
        )

    from commons_codec_ray.stages.applier import apply_ops_partial

    # not the Applier: it replaces whole rows, a partial image merges per column
    return (
        ev.map_batches(ops, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(apply_ops_partial, batch_format="pandas")
    )


_CDC_REPLAY_PARTIAL_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn,
         event_id % 3 != 1 AS has_role,
         TRUE AS has_text,
         event_id % 4 != 2 AS has_tool,
         event_id % 5 != 3 AS has_ts
  FROM events),
dels AS (SELECT conv_id, turn_idx, max(lsn) AS dl FROM ops WHERE op = 0 GROUP BY 1, 2),
live AS (
  SELECT o.* FROM ops o LEFT JOIN dels d USING (conv_id, turn_idx)
  WHERE o.op = 1 AND (d.dl IS NULL OR o.lsn > d.dl)),
role_p AS (SELECT conv_id, turn_idx, role FROM (
  SELECT conv_id, turn_idx, role,
         row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM live WHERE has_role) WHERE rn = 1),
text_p AS (SELECT conv_id, turn_idx, text FROM (
  SELECT conv_id, turn_idx, text,
         row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM live WHERE has_text) WHERE rn = 1),
tool_p AS (SELECT conv_id, turn_idx, tool FROM (
  SELECT conv_id, turn_idx, tool,
         row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM live WHERE has_tool) WHERE rn = 1),
ts_p AS (SELECT conv_id, turn_idx, ts FROM (
  SELECT conv_id, turn_idx, ts,
         row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM live WHERE has_ts) WHERE rn = 1)
SELECT k.conv_id, k.turn_idx, r.role, t.text, tl.tool, s.ts
FROM (SELECT DISTINCT conv_id, turn_idx FROM live) k
LEFT JOIN role_p r USING (conv_id, turn_idx)
LEFT JOIN text_p t USING (conv_id, turn_idx)
LEFT JOIN tool_p tl USING (conv_id, turn_idx)
LEFT JOIN ts_p s USING (conv_id, turn_idx)
"""


def q_cdc_snapshot_diff(sf_dir: str):
    """Reverse CDC: derive the change set between the epoch-0 snapshot
    and the current lake state by DIFFING the two snapshots
    (stages/joins.py ``snapshot_diff``) — the backfill operator for when
    no event log exists between two lake versions. One shuffle: both
    snapshots tagged with the key bucket and unioned, one vectorized
    outer-merge + null-safe column compare per bucket. insert = key new,
    delete = key gone (before image), update = any column changed (new
    image); untouched rows drop out. The SQL oracle re-derives both
    snapshots from the lsn split and takes the same FULL OUTER JOIN
    classification."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline
    from commons_codec_ray.stages.joins import snapshot_diff

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))

    lake = _tempfile.mkdtemp(prefix="ccr_snapdiff_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16))
        for epoch, part in enumerate((e1, e2)):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        feed = snapshot_diff(
            pipe.read_lake(epoch=0),
            pipe.read_lake(),
            keys=["conv_id", "turn_idx"],
            compare=["role", "text", "tool", "ts"],
        )
        return pa.Table.from_pandas(feed.to_pandas(), preserve_index=False).select(
            ["change", "conv_id", "turn_idx", "role", "text", "tool", "ts"]
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_SNAPSHOT_DIFF_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
boundary AS (SELECT CAST(count(*) // 2 AS BIGINT) AS b FROM events),
snap0 AS (
  SELECT conv_id, turn_idx, role, text, tool, ts FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops WHERE lsn < (SELECT b FROM boundary)) WHERE rn = 1 AND op = 1),
cur AS (
  SELECT conv_id, turn_idx, role, text, tool, ts FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1),
j AS (
  SELECT coalesce(o.conv_id, n.conv_id) AS conv_id,
         coalesce(o.turn_idx, n.turn_idx) AS turn_idx,
         o.conv_id IS NOT NULL AS has_o, n.conv_id IS NOT NULL AS has_n,
         o.role AS role_o, o.text AS text_o, o.tool AS tool_o, o.ts AS ts_o,
         n.role AS role_n, n.text AS text_n, n.tool AS tool_n, n.ts AS ts_n
  FROM snap0 o FULL OUTER JOIN cur n
    ON o.conv_id = n.conv_id AND o.turn_idx = n.turn_idx)
SELECT CASE WHEN NOT has_o THEN 'insert'
            WHEN NOT has_n THEN 'delete' ELSE 'update' END AS change,
       conv_id, turn_idx,
       CASE WHEN has_n THEN role_n ELSE role_o END AS role,
       CASE WHEN has_n THEN text_n ELSE text_o END AS text,
       CASE WHEN has_n THEN tool_n ELSE tool_o END AS tool,
       CASE WHEN has_n THEN ts_n ELSE ts_o END AS ts
FROM j
WHERE NOT has_o OR NOT has_n
   OR role_o IS DISTINCT FROM role_n OR text_o IS DISTINCT FROM text_n
   OR tool_o IS DISTINCT FROM tool_n OR ts_o IS DISTINCT FROM ts_n
"""


def q_windowed_agg(sf_dir: str):
    """Tumbling 1-day window per user: pre-aggregated inside map_batches
    (combiner), then a small groupby over partials — the scalable
    aggregate pattern. (user_id, day) packs into ONE int64 group key:
    Arrow's multi-column group_by with a timestamp key measured ~4×
    slower than a single-int key at both the partial and exchange stages
    (same integer-exchange rule as the CDC shuffle_key)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"])
    DAY_US = 86_400_000_000

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day").cast(pa.int64())
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        days = day.to_numpy(zero_copy_only=False) // DAY_US
        # packing bounds: loud failure beats rows aggregated under a
        # corrupted (user, window) pair
        assert days.min() >= 0 and days.max() < (1 << 21) and uid.max() < (1 << 42), (
            "windowed_agg key packing out of range (pre-1970 ts or huge user_id)"
        )
        key = uid * (1 << 21) + days
        tt = pa.table({"k": pa.array(key), "value": t["value"]})
        return tt.group_by(["k"]).aggregate([("value", "sum"), ("value", "count")])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby("k").aggregate(
        Sum("value_sum", alias_name="sum_value"),
        Sum("value_count", alias_name="n_events"),
    )

    def finish(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(k >> 21, pa.int64()),
                "window_start": pa.array((k & ((1 << 21) - 1)) * DAY_US).cast(
                    pa.timestamp("us")
                ),
                "n_events": t["n_events"].cast(pa.int64()),
                "sum_value": duckdb_round(t["sum_value"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_WINDOWED_AGG_SQL = """
SELECT user_id,
       time_bucket(INTERVAL '1 day', ts) AS window_start,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def q_session_windows(sf_dir: str, num_buckets: int | None = None):
    """Session windows (30-min inactivity gap) per user — the
    streaming-shaped pattern Ray Data lacks natively: hash-bucket by key,
    ONE sort per bucket, then gaps-and-islands fully vectorized across
    the bucket (session break = user change | gap > 30 min — no per-user
    inner loop; SURVEY.md §2.8)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"])

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "session_start": pd.Series([], dtype="datetime64[us]"),
                 "session_end": pd.Series([], dtype="datetime64[us]"),
                 "n_events": pd.Series([], dtype="int64")}
            )
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > np.timedelta64(30, "m"))
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n) - 1
        # sorted by ts within a session ⇒ min = first row, max = last row
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "session_start": ts[starts],
                "session_end": ts[ends],
                "n_events": (np.append(starts[1:], n) - starts).astype("int64"),
            }
        )

    # bucket count grows with input (count() is parquet-metadata-cheap
    # here); bucketing on a MIXED hash, not raw low bits — see hash_bucket
    B = num_buckets or adaptive_buckets(ds.count(), rows_per_bucket=20_000)
    bucketed = ds.map_batches(
        lambda t: t.append_column(
            "_b", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), B)
        ),
        batch_format="pyarrow",
    )
    return bucketed.groupby("_b").map_groups(
        sessions, batch_format="pandas"
    ).select_columns(["user_id", "session_start", "session_end", "n_events"])


_SESSION_WINDOWS_SQL = """
WITH marked AS (
  SELECT user_id, ts, event_id,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL '30 minutes' THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
numbered AS (
  SELECT *, SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       CAST(count(*) AS BIGINT) AS n_events
FROM numbered GROUP BY user_id, session_id
"""


def q_sliding_window(sf_dir: str, num_buckets: int | None = None):
    """Per-event sliding 1-hour aggregate (count + sum over the trailing
    hour, RANGE-frame semantics): partition by user, sort by ts within
    the group, two-pointer + prefix sums — O(n) per key, vectorized."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def sliding(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"], kind="mergesort")
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "n_1h": pd.Series([], dtype="int64"),
                 "sum_1h": pd.Series([], dtype="float64")}
            )
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        vals = g["value"].to_numpy()
        # ONE searchsorted across the whole bucket (no per-user loop): map
        # each row to a composite key uidx*span + (ts - user's first ts).
        # span exceeds any user's time extent + 1h, so keys of different
        # users are separated by > 1h and a [key-1h, key] window can never
        # cross a user boundary. int64-safe while users_per_bucket * span
        # < 2^63 (≈ 3.5e6 users/bucket at a 30-day horizon).
        hour = np.int64(3_600_000_000)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        uidx = np.cumsum(new_user) - 1
        seg_first_ts = ts[np.flatnonzero(new_user)][uidx]
        off = ts - seg_first_ts
        span = np.int64(off.max()) + hour + np.int64(2)
        key = uidx * span + off
        # RANGE BETWEEN 1h PRECEDING AND CURRENT ROW: rows with
        # ts in [ts_i - 1h, ts_i], ties included on both ends
        left = np.searchsorted(key, key - hour, side="left")
        right = np.searchsorted(key, key, side="right")
        csum = np.concatenate([[0.0], np.cumsum(vals)])
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "n_1h": (right - left).astype("int64"),
                "sum_1h": duckdb_round(csum[right] - csum[left], 2),
            }
        )

    B = num_buckets or adaptive_buckets(ds.count(), rows_per_bucket=20_000)
    bucketed = ds.map_batches(
        lambda t: t.append_column(
            "_b", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), B)
        ),
        batch_format="pyarrow",
    )
    return bucketed.groupby("_b").map_groups(
        sliding, batch_format="pandas"
    ).select_columns(["event_id", "n_1h", "sum_1h"])


_SLIDING_WINDOW_SQL = """
SELECT event_id,
       CAST(count(*) OVER w AS BIGINT) AS n_1h,
       round(sum(value) OVER w, 2) AS sum_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL '1 hour' PRECEDING AND CURRENT ROW)
"""


def q_embed_pairs(sf_dir: str, num_buckets: int = 8):
    """Exact embedding near-duplicate pairs (cosine ≥ 0.35, id_a < id_b)
    as a bucket-pair replication join: rows are hash-bucketed by vec_id,
    each row is replicated once per bucket-pair it participates in, and
    each of the B(B+1)/2 bucket-pair groups runs one cross matmul — no
    driver materialization, no full-corpus broadcast.

    Scale shape: shuffled bytes = B × corpus (replication), per-group
    memory = 2 × corpus/B; grow B with the corpus so a group fits a
    worker. All-pairs compute is inherently O(n²) — at real scale the
    subquadratic paths are the LSH/IVF candidate generators
    (stages/similarity) with this as the exact verifier on candidates.
    """
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    B = num_buckets

    def replicate(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy(zero_copy_only=False)
        b = vid % B
        parts = []
        for j in range(B):
            lo = np.minimum(b, j)
            hi = np.maximum(b, j)
            parts.append(
                pa.table(
                    {
                        "pair_key": pa.array(lo * B + hi),
                        "vec_id": t["vec_id"],
                        "bucket": pa.array(b),
                        "embedding": t["embedding"],
                    }
                )
            )
        return pa.concat_tables(parts)

    def score_pair(group: pa.Table) -> pa.Table:
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        buckets = group["bucket"].to_numpy(zero_copy_only=False)
        # the DIAGONAL decision must come from the pair_key, not from the
        # observed bucket values: an off-diagonal group whose other bucket
        # is EMPTY contains one distinct bucket and would otherwise re-emit
        # that bucket's intra pairs as duplicates
        pk = int(group["pair_key"][0].as_py())
        lo, hi = pk // B, pk % B
        m = np.stack(group["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        if lo == hi:
            # diagonal group (i, i): upper triangle within the bucket
            scores = m @ m.T
            ii, jj = np.nonzero(scores >= 0.35)
            keep = ids[ii] < ids[jj]
            a, b2, s = ids[ii][keep], ids[jj][keep], scores[ii[keep], jj[keep]]
        else:
            left = buckets == lo
            if not left.any() or left.all():  # one side empty → no cross pairs
                a = np.empty(0, dtype=np.int64)
                b2 = np.empty(0, dtype=np.int64)
                s = np.empty(0, dtype=np.float64)
            else:
                scores = m[left] @ m[~left].T
                ii, jj = np.nonzero(scores >= 0.35)
                la, ra = ids[left][ii], ids[~left][jj]
                a, b2 = np.minimum(la, ra), np.maximum(la, ra)
                s = scores[ii, jj]
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b2, pa.int64()),
                "cos": pa.array(duckdb_round(s, 4), pa.float64()),
            }
        )

    return (
        ds.map_batches(replicate, batch_format="pyarrow")
        .groupby("pair_key")
        .map_groups(score_pair, batch_format="pyarrow")
    )


_EMBED_PAIRS_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 4) AS cos
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.35
"""


def q_embed_dedup(sf_dir: str):
    """Embedding-cosine near-dup REMOVAL (the fifth dedup family next to
    exact / MinHash / SimHash / n-gram Jaccard): greedy
    keep-smallest-id policy — a vector is dropped iff some smaller-id
    vector sits within cosine ≥ 0.35. Pairs come from the exact
    bucket-pair replication join (q_embed_pairs, id_a < id_b always),
    so the removal set is exactly the distinct id_b side; ONE
    vec_id-bucketed exchange anti-joins it against the corpus — no
    broadcast, no driver-side set. At real scale swap the exact pair
    stage for the LSH/IVF candidate generators (stages/similarity) and
    keep this verify+remove shape."""
    nb = adaptive_buckets()
    pairs = q_embed_pairs(sf_dir)

    def removal_rows(t: pa.Table) -> pa.Table:
        b = t["id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": hash_bucket(b, nb),
                "vec_id": pa.array(b, pa.int64()),
                "is_rm": pa.array(np.ones(len(b), bool)),
            }
        )

    def corpus_rows(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": hash_bucket(v, nb),
                "vec_id": pa.array(v, pa.int64()),
                "is_rm": pa.array(np.zeros(len(v), bool)),
            }
        )

    corpus = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        rm = df.loc[df["is_rm"], "vec_id"].unique()
        keep = df.loc[~df["is_rm"], "vec_id"]
        return pd.DataFrame({"vec_id": keep[~keep.isin(rm)].to_numpy(np.int64)})

    return (
        corpus.map_batches(corpus_rows, batch_format="pyarrow")
        .union(pairs.map_batches(removal_rows, batch_format="pyarrow"))
        .groupby("_b")
        .map_groups(survivors, batch_format="pandas")
    )


_EMBED_DEDUP_SQL = """
SELECT v.vec_id FROM embeddings v
WHERE NOT EXISTS (
  SELECT 1 FROM embeddings u
  WHERE u.vec_id < v.vec_id
    AND list_cosine_similarity(CAST(u.embedding AS DOUBLE[]),
                               CAST(v.embedding AS DOUBLE[])) >= 0.35)
"""


def q_promo_revenue(sf_dir: str):
    """TPC-H-Q14-style promo revenue share on exact integer cents: the
    part→is-promo side collapses to a DENSE BITMAP broadcast (p_partkey
    is a dense integer key, so the whole dimension becomes ONE byte per
    part — ~20 MB at 20M parts — `ray.put` once, indexed per batch; the
    classic broadcast-join special case for dense surrogate keys).
    Lineitem is filtered to a one-year shipdate window at the read and
    never shuffled: per-batch partials reduce to two int64 counters."""
    import pyarrow.parquet as _pq

    import ray

    part = _pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy(zero_copy_only=False)
    promo = np.zeros(int(pk.max()) + 1, dtype=bool)
    promo[pk] = np.asarray(part["p_type"].to_pylist()) == "PROMO"
    bref = ray.put(promo)

    LO = np.datetime64("1996-01-01T00:00:00", "us")
    HI = np.datetime64("1997-01-01T00:00:00", "us")

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        sel = (ship >= LO) & (ship < HI)
        p100 = duck_rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel] * 100
        ).astype(np.int64)
        d100 = duck_rint(
            t["l_discount"].to_numpy(zero_copy_only=False)[sel] * 100
        ).astype(np.int64)
        rev = p100 * (100 - d100)
        is_promo = ray.get(bref)[t["l_partkey"].to_numpy(zero_copy_only=False)[sel]]
        return pa.table(
            {
                "promo": pa.array([int(rev[is_promo].sum())], pa.int64()),
                "total": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    promo_rev = int(parts["promo"].sum())
    total_rev = int(parts["total"].sum())
    return pa.table(
        {
            "promo_ppm": pa.array([promo_rev * 1_000_000 // total_rev], pa.int64()),
            "promo_rev": pa.array([promo_rev], pa.int64()),
            "total_rev": pa.array([total_rev], pa.int64()),
        }
    )


_PROMO_REVENUE_SQL = """
WITH l AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
         * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev,
         l_partkey
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1997-01-01')
SELECT CAST(sum(CASE WHEN p.p_type = 'PROMO' THEN l.rev ELSE 0 END)
            * 1000000 // sum(l.rev) AS BIGINT) AS promo_ppm,
       CAST(sum(CASE WHEN p.p_type = 'PROMO' THEN l.rev ELSE 0 END) AS BIGINT)
         AS promo_rev,
       CAST(sum(l.rev) AS BIGINT) AS total_rev
FROM l JOIN part p ON l.l_partkey = p.p_partkey
"""


def q_priority_orders(sf_dir: str):
    """TPC-H-Q4-style EXISTS semi-join: count orders per priority class
    having at least one RETURNED line item. Shape: lineitem is filtered
    and reduced to batch-distinct orderkeys (16 B rows), then ONE
    okey-bucketed exchange co-locates them with the orders side; per
    bucket a vectorized isin marks matches and emits per-priority count
    partials — the final groupby runs on 5-row partials."""
    nb = adaptive_buckets()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    )

    def returned_keys(t: pa.Table) -> pa.Table:
        sel = pc.equal(t["l_returnflag"], "R")
        k = np.unique(t.filter(sel)["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "_b": hash_bucket(k, nb),
                "okey": pa.array(k, pa.int64()),
                "prio": pa.array([""] * len(k), pa.string()),
                "is_order": pa.array(np.zeros(len(k), bool)),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": hash_bucket(k, nb),
                "okey": pa.array(k, pa.int64()),
                "prio": t["o_orderpriority"],
                "is_order": pa.array(np.ones(len(k), bool)),
            }
        )

    def semi_count(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[~df["is_order"], "okey"].unique()
        o = df.loc[df["is_order"]]
        hit = o.loc[o["okey"].isin(keys)]
        g = hit.groupby("prio", as_index=False).size()
        return pd.DataFrame({"o_orderpriority": g["prio"], "n_part": g["size"].astype("int64")})

    parts = (
        orders.map_batches(order_rows, batch_format="pyarrow")
        .union(li.map_batches(returned_keys, batch_format="pyarrow"))
        .groupby("_b")
        .map_groups(semi_count, batch_format="pandas")
        .to_pandas()
    )
    g = parts.groupby("o_orderpriority", as_index=False)["n_part"].sum()
    return pa.table(
        {
            "o_orderpriority": pa.array(g["o_orderpriority"], pa.string()),
            "n": pa.array(g["n_part"].to_numpy(np.int64), pa.int64()),
        }
    )


_PRIORITY_ORDERS_SQL = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Training-data operators over documents / embeddings
# ---------------------------------------------------------------------------


def q_exact_dedup(sf_dir: str):
    """Exact dedup of a doubled corpus (simulated re-crawl): content-hash
    partition + per-group keep-first ⇒ exactly the original rows."""
    docs = _documents(sf_dir)
    doubled = docs.union(_documents(sf_dir))
    return dedup_stage.exact_dedup(doubled, column="text", order_by="doc_id")


# keep-first semantics: the min-doc_id row per distinct text (larger SFs
# contain genuine duplicate texts, so a bare SELECT * is not equivalent)
_EXACT_DEDUP_SQL = """
SELECT doc_id, text, lang, source, n_chars FROM documents
QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
"""


def q_token_count(sf_dir: str):
    """Whitespace token counting, vectorized with an Arrow regex kernel."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(text_stage.token_count, batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_tokens"])


_TOKEN_COUNT_SQL = """
SELECT doc_id,
       CAST(len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS BIGINT) AS n_tokens
FROM documents
"""


def q_bpe_token_count(sf_dir: str):
    """BPE-ish token counting: GPT-2-style pre-tokenizer restricted to
    RE2 syntax, counted with Arrow's regex kernel; DuckDB (also RE2)
    counts the identical pattern — byte-identical by construction."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(text_stage.bpe_token_count, batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_bpe_tokens"])


_BPE_TOKEN_SQL = (
    "SELECT doc_id, CAST(len(regexp_extract_all(text, "
    "'''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+|\\s+'"
    ")) AS BIGINT) AS n_bpe_tokens FROM documents"
)


def _disjoint_vocab(t: pa.Table) -> pa.Table:
    """Suffix every token with its doc_id, giving each document a PRIVATE
    vocabulary: cross-document shingle Jaccard is exactly 0, so the only
    near-duplicates in the planted corpus are the planted ones — which
    makes the survivor/pair set SQL-expressible (the sf corpus's shared
    tiny vocabulary otherwise creates genuine clustering-dependent
    near-dups; that case stays covered in tests/test_near_dedup.py).

    Token-empty texts get a per-doc sentinel token — otherwise every
    empty doc would share the identical empty-shingle signature and
    cross-pair, breaking the oracle's planted-pairs-only invariant."""
    ids = t["doc_id"].to_pylist()
    texts = [
        " ".join(f"{tok}_{i}" for tok in (x or "").split()) or f"__empty_{i}"
        for i, x in zip(ids, t["text"].to_pylist())
    ]
    return pa.table({"doc_id": t["doc_id"], "text": pa.array(texts, pa.string())})


def _case_perturbed(t: pa.Table) -> pa.Table:
    """Planted near-dup copy: UPPERCASED text under doc_id+1e6. Shingling
    lowercases, so each copy's signature is IDENTICAL to its source's
    (estimated Jaccard exactly 1.0, caught by every LSH band) while the
    text itself differs — deterministic at every scale, no banding-miss
    tail risk. Texts where upper() does not round-trip through lower()
    (e.g. 'ß' → 'SS' → 'ss') fall back to an exact copy so the
    signature-identity guarantee holds for any input."""
    ids = pc.add(t["doc_id"], 1_000_000)
    texts = [
        u if u.lower() == x.lower() else x
        for x in t["text"].to_pylist()
        for u in ((x or "").upper(),)
    ]
    return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})


def _planted_corpus(t: pa.Table) -> pa.Table:
    """One pass: disjoint-vocab originals + their case-perturbed copies
    (a union of two lazy branches would re-run the disjointify per side)."""
    d = _disjoint_vocab(t)
    return pa.concat_tables([d, _case_perturbed(d)])


def q_near_dedup(sf_dir: str):
    """End-to-end near-duplicate removal: corpus + case-perturbed re-crawl
    → MinHash+LSH pairs → connected components → keep min-id per cluster.
    Disjoint per-doc vocabulary ⇒ survivors are EXACTLY the originals,
    verified hash-exact by the SQL oracle."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    survivors = dedup_stage.near_dedup(corpus, threshold=0.7)
    return survivors.select_columns(["doc_id"])


_NEAR_DEDUP_SQL = "SELECT doc_id FROM documents"


def q_near_dedup_incremental(sf_dir: str):
    """Streaming near-dedup (stages/dedup.py:near_dedup_incremental):
    the planted corpus arrives in 4 deterministic waves (epoch =
    splitmix(doc_id) mod 4, so originals and their re-crawl copies land
    in arbitrary different waves) and each wave is deduped against a
    PERSISTENT actor-sharded LSH index of everything seen so far — a
    pair is discovered exactly once, when its later member arrives, so
    wave N costs only wave N (never old-vs-old re-pairing). Final
    survivors are observationally identical to batch near_dedup, hence
    the same closed-form oracle."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    survivors = dedup_stage.near_dedup_incremental(corpus, threshold=0.7, epochs=4)
    return survivors.select_columns(["doc_id"])


def q_near_dedup_best(sf_dir: str):
    """Near-dedup with the keep-BEST survivor policy (keep_by): same
    planted clusters as q_near_dedup, but the survivor is the max-doc_id
    member — i.e. the re-crawl copy, not the original. Survivors ≡
    {doc_id + 1e6} proves the policy (not tie-order luck) picked the
    winner."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow").map_batches(
        lambda t: t.append_column("crawl_score", pc.cast(t["doc_id"], pa.float64())),
        batch_format="pyarrow",
    )
    survivors = dedup_stage.near_dedup(
        corpus, threshold=0.7, keep_by=("crawl_score", "max")
    )
    return survivors.select_columns(["doc_id"])


_NEAR_DEDUP_BEST_SQL = "SELECT doc_id + 1000000 AS doc_id FROM documents"


def q_text_stats(sf_dir: str):
    """Per-language corpus stats via partial-aggregate + small groupby."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(["lang"]).aggregate([("n_chars", "sum"), ("n_chars", "count")])

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_chars_sum", alias_name="sum_chars"),
            Sum("n_chars_count", alias_name="n_docs"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(t["sum_chars"].cast(pa.float64()), t["n_docs"].cast(pa.float64()))
        return pa.table(
            {
                "lang": t["lang"],
                "n_docs": t["n_docs"].cast(pa.int64()),
                "avg_chars": duckdb_round(avg, 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_TEXT_STATS_SQL = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs, round(avg(n_chars), 2) AS avg_chars
FROM documents GROUP BY lang
"""


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for three query vectors; broadcast query
    matrix, per-batch float64 matmul, partial top-k reduce."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = sim_stage.ann_topk(ds, query_ids=[0, 1, 2], k=10, round_to=4)
    return out.select_columns(["query_id", "vec_id", "score"])


_ANN_TOPK_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id IN (0, 1, 2)),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) AS s
  FROM embeddings e CROSS JOIN q),
ranked AS (
  SELECT query_id, vec_id, s,
         row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id) AS rn
  FROM scored)
SELECT query_id, vec_id, round(s, 4) AS score FROM ranked WHERE rn <= 10
"""


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining for 8 query vectors: top-5 most-similar
    vectors with a DIFFERENT label (contrastive-training near-misses).
    Same broadcast/stream/partial-top-k shape as ann_topk; the label
    constraint is a vectorized mask inside the scorer — the corpus
    still streams once, no shuffle."""
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    out = sim_stage.hard_negatives(
        ds, query_ids=list(range(8)), k=5, round_to=4
    )
    return out.select_columns(["query_id", "vec_id", "score"])


_HARD_NEGATIVES_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, label AS qlabel,
         CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < 8),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) AS s
  FROM embeddings e JOIN q ON e.label <> q.qlabel),
ranked AS (
  SELECT query_id, vec_id, s,
         row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id) AS rn
  FROM scored)
SELECT query_id, vec_id, round(s, 4) AS score FROM ranked WHERE rn <= 5
"""


def q_mmr_rerank(sf_dir: str):
    """Maximal-Marginal-Relevance diverse top-5 for query vector 0
    (Carbonell & Goldstein 1998), λ=0.5: greedy argmax of
    ``rel − max-sim-to-selected`` (the λ=0.5 objective ×2) over a
    top-20 relevance pool. The distributed stage is the streaming
    brute-force pool (ann_topk shape); the greedy loop runs on the
    driver over the BOUNDED pool only (20×20 sims). All similarities
    quantize to integer ppm before ANY comparison (raw-float argmax is
    not replayable across engines on corpora with duplicate vectors —
    see stages/similarity.py mmr_select). Oracle: the five selection
    steps unrolled as chained materialized CTEs."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = sim_stage.mmr_select(ds, query_id=0, pool_k=20, k=5)
    return pa.table(
        {
            "sel_rank": pa.array(df["rank"].to_numpy(np.int64), pa.int64()),
            "vec_id": pa.array(df["vec_id"].to_numpy(np.int64), pa.int64()),
            "m2_ppm": pa.array(df["m2_ppm"].to_numpy(np.int64), pa.int64()),
        }
    )


_MMR_RERANK_SQL = """
WITH q AS (
  SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings WHERE vec_id = 0),
rel AS (
  SELECT e.vec_id, CAST(e.embedding AS DOUBLE[]) AS v,
         CAST(round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv)
                    * 1000000) AS BIGINT) AS rp
  FROM embeddings e, q WHERE e.vec_id <> 0),
pool AS MATERIALIZED (SELECT * FROM rel ORDER BY rp DESC, vec_id LIMIT 20),
s1 AS MATERIALIZED (
  SELECT vec_id, v, rp AS m FROM pool ORDER BY rp DESC, vec_id LIMIT 1),
c2 AS (
  SELECT p.vec_id, p.v, p.rp,
         p.rp - CAST(round(list_cosine_similarity(p.v, s1.v) * 1000000) AS BIGINT) AS m
  FROM pool p, s1 WHERE p.vec_id <> s1.vec_id),
s2 AS MATERIALIZED (SELECT vec_id, v, m FROM c2 ORDER BY m DESC, vec_id LIMIT 1),
c3 AS (
  SELECT p.vec_id, p.v, p.rp,
         p.rp - greatest(
           CAST(round(list_cosine_similarity(p.v, s1.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s2.v) * 1000000) AS BIGINT)) AS m
  FROM pool p, s1, s2 WHERE p.vec_id NOT IN (s1.vec_id, s2.vec_id)),
s3 AS MATERIALIZED (SELECT vec_id, v, m FROM c3 ORDER BY m DESC, vec_id LIMIT 1),
c4 AS (
  SELECT p.vec_id, p.v, p.rp,
         p.rp - greatest(
           CAST(round(list_cosine_similarity(p.v, s1.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s2.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s3.v) * 1000000) AS BIGINT)) AS m
  FROM pool p, s1, s2, s3
  WHERE p.vec_id NOT IN (s1.vec_id, s2.vec_id, s3.vec_id)),
s4 AS MATERIALIZED (SELECT vec_id, v, m FROM c4 ORDER BY m DESC, vec_id LIMIT 1),
c5 AS (
  SELECT p.vec_id, p.v, p.rp,
         p.rp - greatest(
           CAST(round(list_cosine_similarity(p.v, s1.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s2.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s3.v) * 1000000) AS BIGINT),
           CAST(round(list_cosine_similarity(p.v, s4.v) * 1000000) AS BIGINT)) AS m
  FROM pool p, s1, s2, s3, s4
  WHERE p.vec_id NOT IN (s1.vec_id, s2.vec_id, s3.vec_id, s4.vec_id)),
s5 AS MATERIALIZED (SELECT vec_id, v, m FROM c5 ORDER BY m DESC, vec_id LIMIT 1)
SELECT CAST(1 AS BIGINT) AS sel_rank, vec_id, m AS m2_ppm FROM s1
UNION ALL SELECT 2, vec_id, m FROM s2
UNION ALL SELECT 3, vec_id, m FROM s3
UNION ALL SELECT 4, vec_id, m FROM s4
UNION ALL SELECT 5, vec_id, m FROM s5
"""


# ---------------------------------------------------------------------------
# Payload decoding: JSON flatten + Extended JSON round trip
# ---------------------------------------------------------------------------


def q_json_flatten(sf_dir: str):
    """Generic JSON payload flatten (the reference's decoder-family
    pattern: payload column → wide columns) over events.props."""
    from commons_codec_ray.decode.iot import FlattenStage

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    out = ds.map_batches(
        FlattenStage, fn_constructor_kwargs={"decoder": "json", "payload_column": "props", "keep": ("event_id",)},
        batch_format="pyarrow", concurrency=pool_size(2),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"], "k": t["k"].cast(pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow")


_JSON_FLATTEN_SQL = """
SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events
"""


def q_iot_tasmota(sf_dir: str):
    """Tasmota SENSOR decode (reference decode/tasmota.py:22-112) as a
    driver query: deterministic tasmota-shaped payloads are synthesized
    from events rows, decoded by the actor-pool FlattenStage, and the
    oracle recomputes every flattened reading from the raw columns —
    including that the ``Type``/``Address`` identification fields are
    DROPPED (``dropped_ok``)."""
    import json as _json

    from commons_codec_ray.decode.iot import FlattenStage

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value", "ts"]
    )

    def to_payload(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_pylist()
        uid = t["user_id"].to_pylist()
        val = t["value"].to_pylist()
        ts_us = t["ts"].cast(pa.int64()).to_pylist()
        payloads = [
            _json.dumps(
                {
                    "Time": ts_us[i],
                    "ENERGY": {
                        "Power": val[i],
                        "Voltage": 230 + uid[i] % 10,
                        "Type": "meter",  # must be dropped by the decoder
                    },
                    "DS18B20": {"Temperature": val[i] * 0.5, "Address": "0x28"},
                    "TempUnit": "C",
                }
            )
            for i in range(len(eid))
        ]
        return pa.table({"event_id": t["event_id"], "payload": pa.array(payloads)})

    flat = ds.map_batches(to_payload, batch_format="pyarrow").map_batches(
        FlattenStage,
        fn_constructor_kwargs={
            "decoder": "tasmota_sensor",
            "payload_column": "payload",
            "keep": ("event_id",),
        },
        batch_format="pyarrow",
        concurrency=pool_size(2),
    )

    def finish(t: pa.Table) -> pa.Table:
        leaked = "ENERGY.Type" in t.column_names or "DS18B20.Address" in t.column_names
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "time_us": t["Time"].cast(pa.int64()),
                "energy_power": t["ENERGY.Power"].cast(pa.float64()),
                "energy_voltage": t["ENERGY.Voltage"].cast(pa.int64()),
                "temperature": t["DS18B20.Temperature"].cast(pa.float64()),
                "temp_unit": t["TempUnit"].cast(pa.string()),
                "dropped_ok": pa.array(np.full(t.num_rows, not leaked, dtype=bool)),
            }
        )

    return flat.map_batches(finish, batch_format="pyarrow")


_IOT_TASMOTA_SQL = """
SELECT event_id,
       CAST(epoch_us(ts) AS BIGINT) AS time_us,
       value AS energy_power,
       CAST(230 + user_id % 10 AS BIGINT) AS energy_voltage,
       value * 0.5 AS temperature,
       'C' AS temp_unit,
       true AS dropped_ok
FROM events
"""


def _iot_query(sf_dir: str, decoder: str, build_payload, finish):
    """Shared harness for the IoT-decoder driver queries: synthesize
    decoder-shaped payloads from events rows, decode via the actor-pool
    FlattenStage, project/cast to oracle-comparable columns."""
    import json as _json

    from commons_codec_ray.decode.iot import FlattenStage

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value", "ts"]
    )

    def to_payload(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_pylist()
        uid = t["user_id"].to_pylist()
        val = t["value"].to_pylist()
        ts_us = t["ts"].cast(pa.int64()).to_pylist()
        payloads = [
            _json.dumps(build_payload(eid[i], uid[i], val[i], ts_us[i]))
            for i in range(len(eid))
        ]
        return pa.table({"event_id": t["event_id"], "payload": pa.array(payloads)})

    flat = ds.map_batches(to_payload, batch_format="pyarrow").map_batches(
        FlattenStage,
        fn_constructor_kwargs={
            "decoder": decoder,
            "payload_column": "payload",
            "keep": ("event_id",),
        },
        batch_format="pyarrow",
        concurrency=pool_size(2),
    )
    return flat.map_batches(finish, batch_format="pyarrow")


def q_iot_tasmota_state(sf_dir: str):
    """Tasmota STATE decode (reference decode/tasmota.py:115-150): fixed
    field projection incl. the Wifi sub-object; fields outside the
    projection must NOT leak (``proj_ok``)."""

    def build(eid, uid, val, ts_us):
        return {
            "Time": ts_us,
            "Uptime": uid,
            "POWER": "ON" if eid % 2 == 0 else "OFF",
            "Wifi": {"SSId": f"net-{uid % 4}", "RSSI": 100 - uid % 50, "AP": 1},
            "Vcc": 3.3,  # not in the STATE projection → must be dropped
        }

    def finish(t: pa.Table) -> pa.Table:
        leaked = "Vcc" in t.column_names
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "time_us": t["Time"].cast(pa.int64()),
                "uptime": t["Uptime"].cast(pa.int64()),
                "power": t["POWER"].cast(pa.string()),
                "wifi_ssid": t["Wifi.SSId"].cast(pa.string()),
                "wifi_rssi": t["Wifi.RSSI"].cast(pa.int64()),
                "proj_ok": pa.array(np.full(t.num_rows, not leaked, dtype=bool)),
            }
        )

    return _iot_query(sf_dir, "tasmota_state", build, finish)


_IOT_TASMOTA_STATE_SQL = """
SELECT event_id,
       CAST(epoch_us(ts) AS BIGINT) AS time_us,
       CAST(user_id AS BIGINT) AS uptime,
       CASE WHEN event_id % 2 = 0 THEN 'ON' ELSE 'OFF' END AS power,
       'net-' || CAST(user_id % 4 AS VARCHAR) AS wifi_ssid,
       CAST(100 - user_id % 50 AS BIGINT) AS wifi_rssi,
       true AS proj_ok
FROM events
"""


def q_iot_sensor_community(sf_dir: str):
    """Sensor.Community decode (reference decode/sensor_community.py:77-94):
    {value_type, value} list → flat dict; numeric strings coerce to float,
    whitelist types (samples, …) to int, non-numeric strings pass through."""

    def build(eid, uid, val, ts_us):
        return {
            "timestamp": str(ts_us),
            "sensordatavalues": [
                {"value_type": "P1", "value": repr(val)},  # numeric string → float
                {"value_type": "samples", "value": str(uid)},  # whitelist → int
                {"value_type": "note", "value": "n/a"},  # non-numeric → stays string
            ],
        }

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "timestamp": t["timestamp"].cast(pa.string()),
                "p1": t["P1"].cast(pa.float64()),
                "samples": t["samples"].cast(pa.int64()),
                "note": t["note"].cast(pa.string()),
            }
        )

    return _iot_query(sf_dir, "sensor_community", build, finish)


_IOT_SENSOR_COMMUNITY_SQL = """
SELECT event_id,
       CAST(epoch_us(ts) AS VARCHAR) AS timestamp,
       value AS p1,
       CAST(user_id AS BIGINT) AS samples,
       'n/a' AS note
FROM events
"""


def q_iot_tts_uplink(sf_dir: str):
    """TTS/TTN uplink decode (reference decode/tts_ttn.py:29-73): device
    id + decoded payload + per-gateway dynamic RSSI/SNR keys."""

    def build(eid, uid, val, ts_us):
        return {
            "end_device_ids": {"device_id": f"dev-{uid}"},
            "received_at": str(ts_us),
            "uplink_message": {
                "decoded_payload": {"temp": val, "hum": uid % 100},
                "rx_metadata": [
                    {
                        "gateway_ids": {"gateway_id": "gw0"},
                        "rssi": -(uid % 60),
                        "snr": val * 0.25,
                    },
                    {"gateway_ids": {"gateway_id": "gw1"}, "rssi": -40},
                ],
            },
        }

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "device_id": t["device_id"].cast(pa.string()),
                "received_at": t["received_at"].cast(pa.string()),
                "temp": t["temp"].cast(pa.float64()),
                "hum": t["hum"].cast(pa.int64()),
                "gw0_rssi": t["gw_gw0_rssi"].cast(pa.int64()),
                "gw0_snr": t["gw_gw0_snr"].cast(pa.float64()),
                "gw1_rssi": t["gw_gw1_rssi"].cast(pa.int64()),
            }
        )

    return _iot_query(sf_dir, "tts_uplink", build, finish)


_IOT_TTS_SQL = """
SELECT event_id,
       'dev-' || CAST(user_id AS VARCHAR) AS device_id,
       CAST(epoch_us(ts) AS VARCHAR) AS received_at,
       value AS temp,
       CAST(user_id % 100 AS BIGINT) AS hum,
       CAST(-(user_id % 60) AS BIGINT) AS gw0_rssi,
       value * 0.25 AS gw0_snr,
       CAST(-40 AS BIGINT) AS gw1_rssi
FROM events
"""


class _ExtJsonRoundTrip:
    """Encode events rows into Extended JSON (mixed canonical/legacy
    shapes), then decode with the engine's Extended JSON decoder —
    a lossless loop the SQL oracle can check with a plain projection."""

    def __init__(self):
        from commons_codec_ray.decode.extended_json import decode_document

        self.decode_document = decode_document

    def __call__(self, batch: pa.Table) -> pa.Table:
        import datetime as dt

        eid = batch["event_id"].to_pylist()
        uid = batch["user_id"].to_pylist()
        etype = batch["event_type"].to_pylist()
        value = batch["value"].to_pylist()
        ts = batch["ts"].to_pylist()
        out_rows = []
        for i in range(len(eid)):
            t: dt.datetime = ts[i]
            if eid[i] % 2 == 0:  # legacy ISO-string $date (keeps µs)
                date_desc = {"$date": t.isoformat()}
            else:  # canonical epoch-millis $date (truncates to ms)
                ms = int(t.replace(tzinfo=dt.timezone.utc).timestamp() * 1000)
                date_desc = {"$date": {"$numberLong": str(ms)}}
            doc = {
                "event_id": {"$numberLong": str(eid[i])},
                "user_id": {"$numberInt": str(uid[i])},
                "event_type": {"$symbol": etype[i]},
                "value": {"$numberDouble": repr(value[i])},
                "ts": date_desc,
            }
            out_rows.append(self.decode_document(doc))
        tbl = pa.Table.from_pylist(out_rows)
        return pa.table(
            {
                "event_id": tbl["event_id"].cast(pa.int64()),
                "user_id": tbl["user_id"].cast(pa.int64()),
                "event_type": tbl["event_type"].cast(pa.string()),
                "value": tbl["value"].cast(pa.float64()),
                "ts": tbl["ts"].cast(pa.timestamp("us")),
            }
        )


def q_ext_json_roundtrip(sf_dir: str):
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "ts"],
    )
    return ds.map_batches(_ExtJsonRoundTrip, batch_format="pyarrow", concurrency=pool_size(2))


_EXT_JSON_SQL = """
SELECT event_id, user_id, event_type, value,
       CASE WHEN event_id % 2 = 0 THEN ts
            ELSE date_trunc('millisecond', ts) END AS ts
FROM events
"""


class _BsonRoundTrip:
    """Encode each event row to native BSON bytes and decode it back
    through the pure-Python wire reader (decode/bson_wire.py — the M5
    path; ref transform/mongodb.py:89-113 does this via pymongo).
    Exercises nested documents, arrays, int width selection and the
    ms-precision BSON datetime on real data. Actor-pool stage: the
    codec is import-bound once per worker."""

    def __init__(self):
        from commons_codec_ray.decode import bson_wire
        from commons_codec_ray.decode.extended_json import decode_bson

        self.dumps = bson_wire.dumps
        self.loads = decode_bson

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        out = {
            "event_id": [],
            "user_id": [],
            "event_type": [],
            "value": [],
            "ts_ms": [],
            "half": [],
        }
        for r in rows:
            raw = self.dumps(
                {
                    "i": r["event_id"],
                    "u": r["user_id"],
                    "t": r["event_type"],
                    "v": r["value"],
                    "ts": r["ts"],
                    "meta": {"half": r["value"] / 2, "tags": [r["event_type"]]},
                }
            )
            d = self.loads(raw)
            out["event_id"].append(d["i"])
            out["user_id"].append(d["u"])
            out["event_type"].append(d["t"])
            out["value"].append(d["v"])
            out["ts_ms"].append(d["ts"])
            out["half"].append(d["meta"]["half"])
        return pa.table(
            {
                "event_id": pa.array(out["event_id"], pa.int64()),
                "user_id": pa.array(out["user_id"], pa.int64()),
                "event_type": pa.array(out["event_type"], pa.string()),
                "value": pa.array(out["value"], pa.float64()),
                "ts_ms": pa.array(out["ts_ms"], pa.timestamp("us")),
                "half": pa.array(out["half"], pa.float64()),
            }
        )


def q_bson_roundtrip(sf_dir: str):
    """events → per-row BSON bytes → pure-Python wire decode → columns.
    The oracle is the identity projection (BSON datetimes truncate to
    milliseconds; halving a float64 is exact in binary)."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "ts"],
    )
    return ds.map_batches(
        _BsonRoundTrip, batch_format="pyarrow", concurrency=pool_size(2)
    )


_BSON_ROUNDTRIP_SQL = """
SELECT event_id, user_id, event_type, value,
       date_trunc('millisecond', ts) AS ts_ms,
       value / 2 AS half
FROM events
"""


def q_treatment_rules(sf_dir: str):
    """Path-targeted treatment rules (decode/treatments.py:PathRule —
    the declarative analog of the reference's Tikray/Moksha jq
    expressions, ref tests/transform/mongodb/test_mongodb_full.py:40-47)
    applied in the decode path: per-event wire documents run through a
    rule set (flatten a nested list, rename a field, stringify the turn
    index, default a missing language) inside decode_document's
    transformation slot, exactly the reference's ``pre=`` composition.
    Rules are built ONCE per actor (load-once-per-worker)."""
    import json as _json

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type"]
    )

    class RuleStage:
        def __init__(self):
            from commons_codec_ray.decode.treatments import Treatment

            self.treatment = Treatment(
                rules=[
                    {"path": "vals", "op": "flatten"},
                    {"path": "role", "op": "rename", "to": "speaker"},
                    {"path": "turn_idx", "op": "tostring"},
                    {"path": "lang", "op": "default", "value": "en"},
                ]
            )

        def __call__(self, t: pa.Table) -> pa.Table:
            from commons_codec_ray.decode.extended_json import decode_document

            eid = t["event_id"].to_numpy(zero_copy_only=False)
            user = t["user_id"].to_numpy(zero_copy_only=False)
            etype = t["event_type"].to_numpy(zero_copy_only=False)
            out = {"event_id": [], "conv_id": [], "turn_idx": [], "speaker": [],
                   "lang": [], "vals": []}
            for i in range(t.num_rows):
                e = int(eid[i])
                doc = {
                    "event_id": {"$numberLong": str(e)},
                    "conv_id": f"c-{int(user[i])}",
                    "turn_idx": {"$numberInt": str(e % 40)},
                    "role": str(etype[i]),
                    "vals": [[e % 3], [e % 5, e % 7]],
                }
                rec = decode_document(doc, treatment=self.treatment)
                out["event_id"].append(rec["event_id"])
                out["conv_id"].append(rec["conv_id"])
                out["turn_idx"].append(rec["turn_idx"])
                out["speaker"].append(rec["speaker"])
                out["lang"].append(rec["lang"])
                out["vals"].append(_json.dumps(rec["vals"], separators=(",", ":")))
            return pa.table(
                {
                    "event_id": pa.array(out["event_id"], pa.int64()),
                    "conv_id": pa.array(out["conv_id"], pa.string()),
                    "turn_idx": pa.array(out["turn_idx"], pa.string()),
                    "speaker": pa.array(out["speaker"], pa.string()),
                    "lang": pa.array(out["lang"], pa.string()),
                    "vals": pa.array(out["vals"], pa.string()),
                }
            )

    return events.map_batches(RuleStage, batch_format="pyarrow", concurrency=pool_size(2))


_TREATMENT_RULES_SQL = """
SELECT event_id,
       'c-' || CAST(user_id AS VARCHAR)        AS conv_id,
       CAST(event_id % 40 AS VARCHAR)          AS turn_idx,
       event_type                              AS speaker,
       'en'                                    AS lang,
       '[' || CAST(event_id % 3 AS VARCHAR) || ',' || CAST(event_id % 5 AS VARCHAR)
           || ',' || CAST(event_id % 7 AS VARCHAR) || ']' AS vals
FROM events
"""


_IMG_W, _IMG_H = 8, 6  # 144 RGB bytes per synthetic image


def q_image_features(sf_dir: str):
    """Image-modality pipeline with REAL decode: synthesize a
    deterministic PPM per document (pixel j = (doc_id·7 + j) mod 256 —
    re-derivable in SQL), run it through ImageDecodeStage's default
    pure-Python codec (decode/image_codec.py) as an actor-pool stage,
    then reduce decoded pixels to per-channel integer sums. Width and
    height come off the DECODED shape column, so the oracle match
    proves the bytes→pixels path, not just the arithmetic. Blob-stage
    hygiene: small batch_size, payload pruned by the decode stage."""
    from commons_codec_ray.stages.multimodal import ImageDecodeStage

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    npx = _IMG_W * _IMG_H * 3

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        px = (ids[:, None] * 7 + np.arange(npx)[None, :]) % 256
        header = f"P6\n{_IMG_W} {_IMG_H}\n255\n".encode()
        payloads = [header + row.tobytes() for row in px.astype(np.uint8)]
        return pa.table(
            {"item_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    decoded = docs.map_batches(synth, batch_format="pyarrow").map_batches(
        ImageDecodeStage,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=pool_size(4),
    )

    def features(t: pa.Table) -> pa.Table:
        n = t.num_rows
        shapes = np.asarray(t["shape"].to_pylist(), np.int64).reshape(n, 3)
        flat = np.frombuffer(
            b"".join(p.as_py() for p in t["pixels"]), np.uint8
        ).reshape(n, npx).astype(np.int64)
        by_c = flat.reshape(n, _IMG_W * _IMG_H, 3).sum(axis=1)
        return pa.table(
            {
                "doc_id": t["item_id"],
                "width": pa.array(shapes[:, 1], pa.int64()),
                "height": pa.array(shapes[:, 0], pa.int64()),
                "r_sum": pa.array(by_c[:, 0], pa.int64()),
                "g_sum": pa.array(by_c[:, 1], pa.int64()),
                "b_sum": pa.array(by_c[:, 2], pa.int64()),
            }
        )

    return decoded.map_batches(features, batch_format="pyarrow")


_IMAGE_FEATURES_SQL = f"""
SELECT d.doc_id,
       CAST({_IMG_W} AS BIGINT) AS width,
       CAST({_IMG_H} AS BIGINT) AS height,
       CAST(sum(CASE WHEN j % 3 = 0 THEN (d.doc_id * 7 + j) % 256 END) AS BIGINT) AS r_sum,
       CAST(sum(CASE WHEN j % 3 = 1 THEN (d.doc_id * 7 + j) % 256 END) AS BIGINT) AS g_sum,
       CAST(sum(CASE WHEN j % 3 = 2 THEN (d.doc_id * 7 + j) % 256 END) AS BIGINT) AS b_sum
FROM documents d, generate_series(0, {_IMG_W * _IMG_H * 3 - 1}) AS t(j)
GROUP BY d.doc_id
"""


# ---------------------------------------------------------------------------
# Broadcast join + pre-aggregated rollup (orders ⋈ customer ⋈ nation)
# ---------------------------------------------------------------------------


def q_bcast_join_agg(sf_dir: str):
    """Revenue per nation: the small side (customer⋈nation lookup) is
    broadcast via ray.put once and read in each actor's __init__; the big
    side streams through a per-batch partial aggregate; the final groupby
    runs over tiny partials. No shuffle of the fact table."""
    import ray as _ray

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = rd.read_parquet(f"{sf_dir}/nation.parquet").to_pandas()
    lookup = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    ).set_index("c_custkey")["n_name"]
    lookup_ref = _ray.put(lookup)

    class JoinAgg:
        def __init__(self):
            self.lookup = _ray.get(lookup_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["nation"] = batch["o_custkey"].map(self.lookup)
            g = batch.groupby("nation", sort=False).agg(
                n_orders=("o_orderkey", "size"), total=("o_totalprice", "sum")
            )
            return g.reset_index()

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    partials = orders.map_batches(JoinAgg, batch_format="pandas", concurrency=pool_size(4))
    agg = partials.groupby("nation").aggregate(
        Sum("n_orders", alias_name="n_orders"), Sum("total", alias_name="total")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nation": t["nation"],
                "n_orders": t["n_orders"].cast(pa.int64()),
                "total_price": duckdb_round(t["total"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_BCAST_JOIN_SQL = """
SELECT n.n_name AS nation,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


def q_top_orders(sf_dir: str):
    """Top-20 orders by total price: per-batch partial top-20 (the
    associative-reduce pattern, no all-to-all sort) → tiny driver-side
    final reduce over ≤ 20×num_batches rows → customer-name join done
    LAST, on 20 rows only (pruned read, no broadcast of the full
    customer table)."""
    K = 20
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows <= K:
            return t
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((okey, -price))[:K]
        return t.take(pa.array(idx))

    top = orders.map_batches(partial, batch_format="pyarrow").to_pandas()
    top = (
        top.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort")
        .head(K)
    )
    keys = pa.array(top["o_custkey"].to_numpy())
    names = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t["c_custkey"], value_set=keys)), batch_format="pyarrow"
    ).to_pandas()
    out = top.merge(names, left_on="o_custkey", right_on="c_custkey", how="left")
    return out[["o_orderkey", "c_name", "o_totalprice"]]


_TOP_ORDERS_SQL = """
SELECT o.o_orderkey, c.c_name, o.o_totalprice
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
ORDER BY o.o_totalprice DESC, o.o_orderkey LIMIT 20
"""


def q_asof_join(sf_dir: str):
    """Distributed backward as-of join (stages/joins.py): even events
    look up the latest odd event of the same user with ts ≤ theirs —
    one shuffle, per-bucket vectorized merge_asof, oracled by DuckDB's
    native ASOF LEFT JOIN."""
    from commons_codec_ray.stages.joins import asof_join

    left = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    ).map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)),
        batch_format="pyarrow",
    )
    def odd_renamed(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 1))
        return pa.table(
            {
                "user_id": f["user_id"],
                "ts": f["ts"],
                "r_event_id": f["event_id"],
                "r_value": f["value"],
            }
        )

    right = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    ).map_batches(odd_renamed, batch_format="pyarrow")
    joined = asof_join(
        left, right, on="ts", by="user_id", right_columns=["r_event_id", "r_value"]
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(dtype="int64")),
                "matched_event_id": pa.array(
                    pd.array(df["r_event_id"], dtype="Int64"), type=pa.int64()
                ),
                "matched_value": pa.array(df["r_value"].to_numpy(dtype="float64")),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1 pricing summary — the canonical wide-aggregate scan:
    sums/averages of qty, base price, discounted price and charge per
    (returnflag, linestatus) over shipped lineitems. All money columns
    are cents-exact in the data, so every accumulation is INTEGER:
    q100/p100/d100/t100 = round(value·100), disc_price = p100·(100−d100)
    (10⁻⁴ units), charge = p100·(100−d100)·(100+t100) (10⁻⁶ units) —
    order-independent int64 partial sums per batch (kilobytes: 6 groups),
    driver-reduced; the only floats are the FINAL divisions, which are
    single correctly-rounded IEEE ops identical in DuckDB. Scale note:
    charge partials reach ~1e11/row — int64 holds to ~10⁸ rows/batch;
    at larger block sizes widen to object/128-bit in the reduce."""
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
        ],
    )

    CUTOFF = np.datetime64("2000-01-01T00:00:00", "us")

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = ship <= CUTOFF
        q100 = duck_rint(t["l_quantity"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)[keep]
        p100 = duck_rint(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)[keep]
        d100 = duck_rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)[keep]
        t100 = duck_rint(t["l_tax"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)[keep]
        df = pd.DataFrame(
            {
                "l_returnflag": t["l_returnflag"].to_numpy(zero_copy_only=False)[keep],
                "l_linestatus": t["l_linestatus"].to_numpy(zero_copy_only=False)[keep],
                "sq": q100,
                "sp": p100,
                "sd": d100,
                "sdp": p100 * (100 - d100),
                "sch": p100 * (100 - d100) * (100 + t100),
                "n": np.ones(int(keep.sum()), np.int64),
            }
        )
        out = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
    g = g.sort_values(["l_returnflag", "l_linestatus"], kind="mergesort")
    n = g["n"].to_numpy(np.int64)
    return pa.table(
        {
            "l_returnflag": pa.array(g["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(g["l_linestatus"], pa.string()),
            "sum_qty": pa.array(g["sq"].to_numpy(np.float64) / 100.0, pa.float64()),
            "sum_base_price": pa.array(g["sp"].to_numpy(np.float64) / 100.0, pa.float64()),
            "sum_disc_price": pa.array(g["sdp"].to_numpy(np.float64) / 10000.0, pa.float64()),
            "sum_charge": pa.array(g["sch"].to_numpy(np.float64) / 1000000.0, pa.float64()),
            "avg_qty": pa.array(g["sq"].to_numpy(np.float64) / (100.0 * n), pa.float64()),
            "avg_price": pa.array(g["sp"].to_numpy(np.float64) / (100.0 * n), pa.float64()),
            "avg_disc": pa.array(g["sd"].to_numpy(np.float64) / (100.0 * n), pa.float64()),
            "count_order": pa.array(n, pa.int64()),
        }
    )


_PRICING_SUMMARY_SQL = """
WITH q AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity * 100) AS BIGINT) AS q100,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS p100,
         CAST(round(l_discount * 100) AS BIGINT) AS d100,
         CAST(round(l_tax * 100) AS BIGINT) AS t100
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '2000-01-01')
SELECT l_returnflag, l_linestatus,
       CAST(sum(q100) AS DOUBLE) / 100.0 AS sum_qty,
       CAST(sum(p100) AS DOUBLE) / 100.0 AS sum_base_price,
       CAST(sum(p100 * (100 - d100)) AS DOUBLE) / 10000.0 AS sum_disc_price,
       CAST(sum(p100 * (100 - d100) * (100 + t100)) AS DOUBLE) / 1000000.0 AS sum_charge,
       CAST(sum(q100) AS DOUBLE) / (100.0 * count(*)) AS avg_qty,
       CAST(sum(p100) AS DOUBLE) / (100.0 * count(*)) AS avg_price,
       CAST(sum(d100) AS DOUBLE) / (100.0 * count(*)) AS avg_disc,
       CAST(count(*) AS BIGINT) AS count_order
FROM q GROUP BY l_returnflag, l_linestatus
"""


def q_mixture_sample(sf_dir: str):
    """Data-mixture sampling — the pretraining mix primitive: each
    source gets a target KEEP RATE (here (srcnum+1)/20, so src0 keeps
    5% and src19 keeps 100%) and membership is a pure function of the
    row (md5(doc_id) bucket < rate), so the mix is reproducible across
    runs, cluster sizes and re-crawls with no coordination — the same
    contract as hash_sample, per-source. One linear pass, no shuffle."""
    import hashlib as _hashlib

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        src = t["source"].to_numpy(zero_copy_only=False)
        srcnum = np.fromiter((int(s[3:]) for s in src), np.int64, len(src))
        h = np.fromiter(
            (
                int(_hashlib.md5(str(int(i)).encode()).hexdigest()[:8], 16) % 10000
                for i in ids
            ),
            np.int64,
            len(ids),
        )
        return t.filter(pa.array(h < (srcnum + 1) * 500))

    return docs.map_batches(pick, batch_format="pyarrow")


_MIXTURE_SAMPLE_SQL = """
SELECT doc_id, source FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 10000
      < (CAST(substr(source, 4) AS BIGINT) + 1) * 500
"""


def q_percent_rank(sf_dir: str):
    """Exact distributed percent_rank / cume_dist per partition as
    INTEGER rationals (parts-per-million via floor division — no float
    drift by construction): pr_ppm = (rank−1)·10⁶ // (n−1) with RANK
    tie semantics, cd_ppm = |{value ≤ v}|·10⁶ // n. One exchange: rows
    bucket by the partition key (event_type), each partition ranked
    vectorized (sort + searchsorted — ranks are order statistics, so
    no per-row loop and no global sort).

    Partition-fits-bucket guard: the fast path lands one event_type's
    rows in one pandas group, which caps per-key cardinality at worker
    memory. A cheap per-key count partial (map-only, kilobytes on the
    driver) checks that bound first; any key above
    ``GRAFT_PERCENT_RANK_GUARD`` rows (default 4M) switches the whole
    query to stages/ranking.py:keyed_percent_rank — the sampled
    composite-range machinery that spreads ONE hot key across many
    value-range partitions (bit-identical integer outputs either way;
    tests/test_skew.py pins the equivalence on a one-key-owns-all
    corpus)."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    guard = int(os.environ.get("GRAFT_PERCENT_RANK_GUARD", "4000000"))
    per_key = (
        events.map_batches(
            lambda t: t.select(["event_type"])
            .group_by("event_type")
            .aggregate([("event_type", "count")])
            .rename_columns(["event_type", "n"]),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("event_type")["n"]
        .sum()
    )
    if len(per_key) and int(per_key.max()) > guard:
        from commons_codec_ray.stages.ranking import keyed_percent_rank

        return keyed_percent_rank(
            events, key="event_type", value="value", tiebreak="event_id"
        ).select_columns(["event_id", "event_type", "pr_ppm", "cd_ppm"])

    def bucketed(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        # stable content hash of the partition key (never Python hash():
        # per-process salting would split partitions across buckets)
        codes = np.fromiter(
            (int.from_bytes(s.encode()[:7].ljust(7, b"\0"), "little") for s in et),
            np.int64,
            len(et),
        )
        return t.append_column("_pb", hash_bucket(codes, nb))

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in df.groupby("event_type"):
            v = g["value"].to_numpy(np.float64)
            eid = g["event_id"].to_numpy(np.int64)
            sv = np.sort(v)
            n = len(v)
            rank = np.searchsorted(sv, v, side="left") + 1  # RANK() ties
            cle = np.searchsorted(sv, v, side="right")  # |{<= v}|
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": eid,
                        "event_type": et,
                        "pr_ppm": (rank - 1) * 1_000_000 // max(n - 1, 1),
                        "cd_ppm": cle * 1_000_000 // n,
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(per_partition, batch_format="pandas")
    )


_PERCENT_RANK_SQL = """
SELECT event_id, event_type,
       CAST((rank() OVER (PARTITION BY event_type ORDER BY value) - 1) * 1000000
            // greatest(count(*) OVER (PARTITION BY event_type) - 1, 1) AS BIGINT) AS pr_ppm,
       CAST(count(*) OVER (PARTITION BY event_type ORDER BY value) * 1000000
            // count(*) OVER (PARTITION BY event_type) AS BIGINT) AS cd_ppm
FROM events
"""


def q_basket_pairs(sf_dir: str):
    """Market-basket co-occurrence: for every unordered event-type pair
    (a < b), how many users did both. Scale shape: per-batch (user,
    type) dedup partials → ONE user-bucketed exchange → per-user sorted
    type sets expand to pairs vectorized (the triangle-wedge
    repeat/cumsum trick) → pair counts are |types|² kilobyte partials,
    driver-reduced. Never materializes the user set anywhere."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def distinct_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column(
            "_ub", hash_bucket(df["user_id"].to_numpy(np.int64), nb)
        )

    def pairs_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "event_type"]).sort_values(
            ["user_id", "event_type"], kind="mergesort"
        )
        u = d["user_id"].to_numpy(np.int64)
        et = d["event_type"].to_numpy()
        m = len(d)
        if m == 0:
            return pd.DataFrame({"type_a": [], "type_b": [], "c": []})
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, m))
        run_end = np.repeat(starts + counts, counts)
        reps = run_end - np.arange(m) - 1
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame({"type_a": [], "type_b": [], "c": []})
        lefts = np.repeat(np.arange(m), reps)
        block_base = np.repeat(np.cumsum(reps) - reps, reps)
        rights = lefts + 1 + (np.arange(total) - block_base)
        out = pd.DataFrame({"type_a": et[lefts], "type_b": et[rights]})
        out = out.groupby(["type_a", "type_b"], as_index=False).size()
        return out.rename(columns={"size": "c"})

    parts = (
        events.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(pairs_per_bucket, batch_format="pandas")
        .to_pandas()
    )
    g = parts.groupby(["type_a", "type_b"], as_index=False)["c"].sum()
    g = g.sort_values(["type_a", "type_b"], kind="mergesort")
    return pa.table(
        {
            "type_a": pa.array(g["type_a"], pa.string()),
            "type_b": pa.array(g["type_b"], pa.string()),
            "n_users": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
        }
    )


_BASKET_PAIRS_SQL = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM d a JOIN d b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY a.event_type, b.event_type
"""


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 (shipping priority): top-10 unshipped BUILDING-segment
    orders by revenue. Plan: the customer dimension filters driver-side
    into a broadcast custkey set (semi-join, no exchange); lineitem
    revenue is pre-combined per orderkey INSIDE each read batch as
    exact integer 10⁻⁴ units (p100·(100−d100)); both sides then meet in
    ONE hash(okey)-bucketed exchange where each bucket joins, finishes
    the per-order sum, and emits only its LOCAL top-10 — the driver
    merges nb·10 candidate rows, never the join result."""
    import pyarrow.parquet as _pq

    import ray as _ray

    nb = adaptive_buckets()
    CUTOFF = np.datetime64("1998-01-01T00:00:00", "us")

    cust = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"]
    kref = _ray.put(np.sort(keys.to_numpy(zero_copy_only=False).astype(np.int64)))

    def orders_side(t: pa.Table) -> pa.Table:
        ks = _ray.get(kref)
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        sel = (od < CUTOFF) & np.isin(ck, ks)
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)[sel]
        return pa.table(
            {
                "_b": hash_bucket(okey, nb),
                "okey": pa.array(okey, pa.int64()),
                "rev_c4": pa.array(np.zeros(sel.sum(), np.int64), pa.int64()),
                "odate": pa.array(od[sel]),
                "is_order": pa.array(np.ones(int(sel.sum()), bool)),
            }
        )

    def line_side(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        sel = ship > CUTOFF
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)[sel]
        p100 = duck_rint(t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        d100 = duck_rint(t["l_discount"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        df = pd.DataFrame({"okey": okey, "rev_c4": p100 * (100 - d100)})
        g = df.groupby("okey", as_index=False)["rev_c4"].sum()  # combiner
        ok = g["okey"].to_numpy(np.int64)
        return pa.table(
            {
                "_b": hash_bucket(ok, nb),
                "okey": pa.array(ok, pa.int64()),
                "rev_c4": pa.array(g["rev_c4"].to_numpy(np.int64), pa.int64()),
                "odate": pa.array(
                    np.zeros(len(g), "datetime64[us]"), pa.timestamp("us")
                ),
                "is_order": pa.array(np.zeros(len(g), bool)),
            }
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(orders_side, batch_format="pyarrow")
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_side, batch_format="pyarrow")

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["is_order"]]
        l = df[~df["is_order"]]
        rev = l.groupby("okey", as_index=False)["rev_c4"].sum()
        j = rev.merge(o[["okey", "odate"]], on="okey")
        j = j.sort_values(["rev_c4", "okey"], ascending=[False, True], kind="mergesort")
        return j.head(10)

    cand = orders.union(line).groupby("_b").map_groups(
        bucket_topk, batch_format="pandas"
    ).to_pandas()
    top = cand.sort_values(
        ["rev_c4", "okey"], ascending=[False, True], kind="mergesort"
    ).head(10)
    return pa.table(
        {
            "l_orderkey": pa.array(top["okey"].to_numpy(np.int64), pa.int64()),
            "revenue_c4": pa.array(top["rev_c4"].to_numpy(np.int64), pa.int64()),
            "o_orderdate": pa.array(top["odate"].to_numpy(), pa.timestamp("us")),
        }
    )


_SHIPPING_PRIORITY_SQL = """
WITH c AS (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'),
o AS (SELECT o_orderkey, o_orderdate FROM orders JOIN c ON o_custkey = c_custkey
      WHERE o_orderdate < TIMESTAMP '1998-01-01'),
l AS (SELECT l_orderkey,
             sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS revenue_c4
      FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-01-01' GROUP BY l_orderkey)
SELECT l.l_orderkey, l.revenue_c4, o.o_orderdate
FROM l JOIN o ON l.l_orderkey = o.o_orderkey
ORDER BY revenue_c4 DESC, l_orderkey LIMIT 10
"""


def q_revenue_forecast(sf_dir: str):
    """TPC-H Q6 (forecasting revenue change): one pruned-column scan,
    vectorized predicate (ship year 1998, discount in [0.05, 0.07],
    qty < 24), exact integer 10⁻⁴-unit revenue = Σ p100·d100 — per-batch
    two-int partials, driver-reduced. The canonical filter-scan-agg:
    no shuffle, no pandas, nothing non-integer until the output."""
    LO = np.datetime64("1998-01-01T00:00:00", "us")
    HI = np.datetime64("1999-01-01T00:00:00", "us")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        d100 = duck_rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        sel = (ship >= LO) & (ship < HI) & (d100 >= 5) & (d100 <= 7) & (qty < 24)
        p100 = duck_rint(t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        return pa.table(
            {
                "rev": pa.array([int((p100 * d100[sel]).sum())], pa.int64()),
                "n": pa.array([int(sel.sum())], pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pa.table(
        {
            "revenue_c4": pa.array([int(parts["rev"].sum())], pa.int64()),
            "n_items": pa.array([int(parts["n"].sum())], pa.int64()),
        }
    )


_REVENUE_FORECAST_SQL = """
SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
               * CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT) AS revenue_c4,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1998-01-01' AND l_shipdate < TIMESTAMP '1999-01-01'
  AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def q_brand_nation_revenue(sf_dir: str):
    """Star-join aggregate (TPC-H Q14 flavor, wider): lineitem revenue
    by (part brand × supplier nation) — exercises the part and supplier
    dimensions. The canonical star shape: ALL dimension tables are
    kilobytes, read driver-local, composed into two sorted key→code
    lookups and broadcast ONCE via ray.put; every lineitem batch maps
    fact keys through searchsorted (works for sparse keys too) and
    emits exact-integer (brand, nation) revenue partials — |brands|·
    |nations| rows, driver-reduced. One pass over the fact table, no
    shuffle anywhere."""
    import pyarrow.parquet as _pq

    import ray as _ray

    part = _pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    supp = _pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    nation = _pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    pk = part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_p = np.argsort(pk, kind="stable")
    brands = part["p_brand"].to_numpy(zero_copy_only=False)[order_p]
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_s = np.argsort(sk, kind="stable")
    nk = supp["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)[order_s]
    nmap = dict(
        zip(
            nation["n_nationkey"].to_numpy(zero_copy_only=False).tolist(),
            nation["n_name"].to_numpy(zero_copy_only=False).tolist(),
        )
    )
    nnames = np.array([nmap[int(k)] for k in nk])
    lref = _ray.put((pk[order_p], brands, sk[order_s], nnames))

    def partial(t: pa.Table) -> pa.Table:
        pks, br, sks, nn = _ray.get(lref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        p100 = duck_rint(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        d100 = duck_rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        df = pd.DataFrame(
            {
                "p_brand": br[np.searchsorted(pks, lp)],
                "nation": nn[np.searchsorted(sks, ls)],
                "revenue_c4": p100 * (100 - d100),
                "n": np.ones(len(lp), np.int64),
            }
        )
        g = df.groupby(["p_brand", "nation"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby(["p_brand", "nation"], as_index=False).sum()
    g = g.sort_values(["p_brand", "nation"], kind="mergesort")
    return pa.table(
        {
            "p_brand": pa.array(g["p_brand"], pa.string()),
            "nation": pa.array(g["nation"], pa.string()),
            "revenue_c4": pa.array(g["revenue_c4"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_BRAND_NATION_REVENUE_SQL = """
SELECT p.p_brand, n.n_name AS nation,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_c4,
       CAST(count(*) AS BIGINT) AS n
FROM lineitem l
JOIN part p ON l.l_partkey = p.p_partkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY p.p_brand, n.n_name
"""


def q_big_orders(sf_dir: str):
    """TPC-H Q18-style (large-volume orders): orders whose TOTAL
    lineitem quantity exceeds 250 — the HAVING-on-joined-aggregate
    shape. Quantities pre-combine per orderkey inside each read batch
    (exact integer q100); the okey-bucketed exchange finishes the sum,
    applies the HAVING threshold (survivors are rare — ~1% of orders),
    and joins the order row in the same bucket pass. Top-20 by
    (o_totalprice desc, okey) via per-bucket local top-k."""
    nb = adaptive_buckets()
    THRESH100 = 250 * 100

    def line_side(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        q100 = duck_rint(t["l_quantity"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        g = pd.DataFrame({"okey": okey, "q100": q100}).groupby("okey", as_index=False).sum()
        ok = g["okey"].to_numpy(np.int64)
        return pa.table(
            {
                "_b": hash_bucket(ok, nb),
                "okey": pa.array(ok, pa.int64()),
                "q100": pa.array(g["q100"].to_numpy(np.int64), pa.int64()),
                "ckey": pa.array(np.zeros(len(g), np.int64), pa.int64()),
                "p100": pa.array(np.zeros(len(g), np.int64), pa.int64()),
                "is_order": pa.array(np.zeros(len(g), bool)),
            }
        )

    def orders_side(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        p100 = duck_rint(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table(
            {
                "_b": hash_bucket(okey, nb),
                "okey": pa.array(okey, pa.int64()),
                "q100": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
                "ckey": t["o_custkey"].cast(pa.int64()),
                "p100": pa.array(p100, pa.int64()),
                "is_order": pa.array(np.ones(len(okey), bool)),
            }
        )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(line_side, batch_format="pyarrow")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(orders_side, batch_format="pyarrow")

    def bucket_having(df: pd.DataFrame) -> pd.DataFrame:
        l = df[~df["is_order"]]
        o = df[df["is_order"]]
        tq = l.groupby("okey", as_index=False)["q100"].sum()
        tq = tq[tq["q100"] > THRESH100]
        j = tq.merge(o[["okey", "ckey", "p100"]], on="okey")
        return j.sort_values(
            ["p100", "okey"], ascending=[False, True], kind="mergesort"
        ).head(20)

    cand = (
        orders.union(line).groupby("_b").map_groups(bucket_having, batch_format="pandas")
        .to_pandas()
    )
    top = cand.sort_values(
        ["p100", "okey"], ascending=[False, True], kind="mergesort"
    ).head(20)
    return pa.table(
        {
            "o_orderkey": pa.array(top["okey"].to_numpy(np.int64), pa.int64()),
            "o_custkey": pa.array(top["ckey"].to_numpy(np.int64), pa.int64()),
            "total_q100": pa.array(top["q100"].to_numpy(np.int64), pa.int64()),
            "totalprice_c": pa.array(top["p100"].to_numpy(np.int64), pa.int64()),
        }
    )


_BIG_ORDERS_SQL = """
WITH tq AS (
  SELECT l_orderkey,
         sum(CAST(round(l_quantity * 100) AS BIGINT)) AS total_q100
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 25000)
SELECT o.o_orderkey, o.o_custkey, tq.total_q100,
       CAST(round(o.o_totalprice * 100) AS BIGINT) AS totalprice_c
FROM tq JOIN orders o ON o.o_orderkey = tq.l_orderkey
ORDER BY totalprice_c DESC, o.o_orderkey LIMIT 20
"""


def q_top_customers(sf_dir: str):
    """TPC-H Q10-style: top-20 customers by returned-item revenue —
    the join-then-REAGGREGATE shape (Q3 aggregates by the join key
    itself; here revenue re-keys from orderkey to custkey after the
    join). Two exchanges: (1) lineitem R-flag revenue pre-combined per
    orderkey in-batch meets orders in an okey-bucketed exchange that
    immediately re-emits (custkey, rev) partials, (2) a custkey-
    bucketed exchange finishes per-customer sums with per-bucket local
    top-20; the driver merges nb·20 candidates and decorates the 20
    winners with the driver-local customer dimension (kilobytes)."""
    import pyarrow.parquet as _pq

    nb = adaptive_buckets()

    def line_side(t: pa.Table) -> pa.Table:
        sel = pc.equal(t["l_returnflag"], "R").to_numpy(zero_copy_only=False)
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)[sel]
        p100 = duck_rint(t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        d100 = duck_rint(t["l_discount"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        df = pd.DataFrame({"okey": okey, "rev_c4": p100 * (100 - d100)})
        g = df.groupby("okey", as_index=False)["rev_c4"].sum()
        ok = g["okey"].to_numpy(np.int64)
        return pa.table(
            {
                "_b": hash_bucket(ok, nb),
                "okey": pa.array(ok, pa.int64()),
                "ckey": pa.array(np.zeros(len(g), np.int64), pa.int64()),
                "rev_c4": pa.array(g["rev_c4"].to_numpy(np.int64), pa.int64()),
                "is_order": pa.array(np.zeros(len(g), bool)),
            }
        )

    def orders_side(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": hash_bucket(okey, nb),
                "okey": pa.array(okey, pa.int64()),
                "ckey": t["o_custkey"].cast(pa.int64()),
                "rev_c4": pa.array(np.zeros(len(okey), np.int64), pa.int64()),
                "is_order": pa.array(np.ones(len(okey), bool)),
            }
        )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).map_batches(line_side, batch_format="pyarrow")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(orders_side, batch_format="pyarrow")

    def join_rekey(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["is_order"]]
        l = df[~df["is_order"]]
        rev = l.groupby("okey", as_index=False)["rev_c4"].sum()
        j = rev.merge(o[["okey", "ckey"]], on="okey")
        g = j.groupby("ckey", as_index=False)["rev_c4"].sum()
        g["_cb"] = hash_bucket(g["ckey"].to_numpy(np.int64), nb)
        return g

    def cust_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ckey", as_index=False)["rev_c4"].sum()
        return g.sort_values(
            ["rev_c4", "ckey"], ascending=[False, True], kind="mergesort"
        ).head(20)

    cand = (
        orders.union(line)
        .groupby("_b")
        .map_groups(join_rekey, batch_format="pandas")
        .groupby("_cb")
        .map_groups(cust_topk, batch_format="pandas")
        .to_pandas()
    )
    top = cand.sort_values(
        ["rev_c4", "ckey"], ascending=[False, True], kind="mergesort"
    ).head(20)
    cust = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).to_pandas().set_index("c_custkey")["c_name"]
    return pa.table(
        {
            "c_custkey": pa.array(top["ckey"].to_numpy(np.int64), pa.int64()),
            "c_name": pa.array(top["ckey"].map(cust), pa.string()),
            "revenue_c4": pa.array(top["rev_c4"].to_numpy(np.int64), pa.int64()),
        }
    )


_TOP_CUSTOMERS_SQL = """
WITH l AS (SELECT l_orderkey,
                  sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_c4
           FROM lineitem WHERE l_returnflag = 'R' GROUP BY l_orderkey),
c AS (SELECT o.o_custkey, sum(l.rev_c4) AS rev_c4
      FROM l JOIN orders o ON l.l_orderkey = o.o_orderkey
      GROUP BY o.o_custkey)
SELECT c.o_custkey AS c_custkey, cu.c_name, CAST(c.rev_c4 AS BIGINT) AS revenue_c4
FROM c JOIN customer cu ON cu.c_custkey = c.o_custkey
ORDER BY c.rev_c4 DESC, c.o_custkey LIMIT 20
"""


def q_csv_ingest(sf_dir: str):
    """CSV source path: events staged once as CSV shards (untimed,
    cached prep), ingested with ray.data.read_csv (Arrow CSV block
    parser), aggregated per type on exact integer cents. Closes the
    delimited-text-source box the way jsonl_ingest closes NDJSON."""
    stage = _stage_dir("ccr_csv", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import csv as _csv

        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
        n_shards = 8
        per = (t.num_rows + n_shards - 1) // n_shards
        for s in range(n_shards):
            sl = t.slice(s * per, per)
            # csv.writer handles quoting/escaping — a comma, quote, or
            # newline inside event_type must not corrupt the shard
            with open(stage / f"part-{s:02d}.csv", "w", newline="") as f:
                w = _csv.writer(f)
                w.writerow(["event_type", "value"])
                w.writerows(
                    (et, repr(v))
                    for et, v in zip(
                        sl["event_type"].to_pylist(), sl["value"].to_pylist()
                    )
                )
        done.touch()

    ds = rd.read_csv([str(p) for p in sorted(stage.glob("*.csv"))])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby("event_type", as_index=False).agg(
            sv100=("v100", "sum"), n=("v100", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_CSV_INGEST_SQL = """
SELECT event_type,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY event_type
"""


def q_partition_prune(sf_dir: str):
    """Hive-partitioned lake layout + pruned read: the events table is
    written ONCE as parquet partitioned by event_type
    (ray.data write path, cached prep), then the query reads ONLY the
    event_type=click partition directory — zero bytes of the other
    partitions leave storage (the partition-pruning contract of
    resumable partitioned output). Aggregates per user on exact cents."""
    from pathlib import Path

    stage = _stage_dir("ccr_lake", sf_dir) / "events_by_type"
    done = stage / "_DONE"
    if not done.exists():
        stage.mkdir(parents=True, exist_ok=True)
        rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_type", "user_id", "value"],
        ).write_parquet(str(stage), partition_cols=["event_type"])
        done.touch()

    part = rd.read_parquet(str(stage / "event_type=click"))

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby("user_id", as_index=False).agg(
            sv100=("v100", "sum"), n=("v100", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = part.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("user_id", as_index=False).sum().sort_values("user_id")
    return pa.table(
        {
            "user_id": pa.array(g["user_id"].to_numpy(np.int64), pa.int64()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_PARTITION_PRUNE_SQL = """
SELECT user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events WHERE event_type = 'click' GROUP BY user_id
"""


def q_rolling_distinct(sf_dir: str):
    """EXACT 7-day rolling distinct users per day — the classic
    "windowed COUNT DISTINCT" that naive engines recount per window.
    Identity: user u counts in window-day w iff u has an event in
    [w−6, w], i.e. u's event days d cover w through intervals [d, d+6].
    So: ONE user-bucketed exchange of distinct (user, day) pairs; per
    user, merge overlapping coverage intervals (vectorized over the
    whole bucket — searchsorted run math, no per-user loop) and emit
    ±1 boundary diffs; the driver reduces kilobyte (day, Δ) partials
    and prefix-sums — each user contributes O(intervals), never
    O(windows), and nothing is recounted."""
    nb = adaptive_buckets()
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        day = (ts.astype("datetime64[D]").astype(np.int64)).astype(np.int64)
        df = pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False), "day": day}
        ).drop_duplicates()
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column(
            "_ub", hash_bucket(df["user_id"].to_numpy(np.int64), nb)
        )

    W = 7

    def diffs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        u = d["user_id"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        m = len(d)
        if m == 0:
            return pd.DataFrame({"day": [], "delta": [], "observed": []}).astype(
                {"day": "int64", "delta": "int64", "observed": "int64"}
            )
        # interval [day, day+W-1] per pair; merge within user: a pair
        # STARTS a merged interval iff it's the user's first day or the
        # gap to the previous day exceeds W-1; it ENDS one iff it's the
        # user's last day or the gap to the next day exceeds W-1
        first = np.empty(m, bool)
        first[0] = True
        first[1:] = (u[1:] != u[:-1]) | (day[1:] - day[:-1] > W - 1)
        last = np.empty(m, bool)
        last[-1] = True
        last[:-1] = (u[1:] != u[:-1]) | (day[1:] - day[:-1] > W - 1)
        starts = day[first]
        ends = day[last] + W  # exclusive
        out = pd.DataFrame(
            {
                "day": np.concatenate([starts, ends]),
                "delta": np.concatenate(
                    [np.ones(len(starts), np.int64), -np.ones(len(ends), np.int64)]
                ),
            }
        ).groupby("day", as_index=False)["delta"].sum()
        out["observed"] = 0
        obs = pd.DataFrame(
            {"day": np.unique(day), "delta": 0, "observed": 1}
        )
        return pd.concat([out, obs[out.columns]], ignore_index=True)

    parts = (
        events.map_batches(pairs, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(diffs, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby("day", as_index=False).agg(
        delta=("delta", "sum"), observed=("observed", "max")
    ).sort_values("day", kind="mergesort")
    n7 = agg["delta"].cumsum().to_numpy(np.int64)
    keep = agg["observed"].to_numpy(np.int64) > 0
    days = agg["day"].to_numpy(np.int64)[keep]
    return pa.table(
        {
            "day": pa.array(days.astype("datetime64[D]").astype("datetime64[us]")),
            "n7": pa.array(n7[keep], pa.int64()),
        }
    )


_ROLLING_DISTINCT_SQL = """
WITH d AS (SELECT DISTINCT CAST(date_trunc('day', ts) AS DATE) AS day, user_id
           FROM events),
days AS (SELECT DISTINCT day FROM d)
SELECT CAST(w.day AS TIMESTAMP) AS day,
       CAST(count(DISTINCT d.user_id) AS BIGINT) AS n7
FROM days w JOIN d ON d.day BETWEEN w.day - 6 AND w.day
GROUP BY w.day
"""


def q_lm_score(sf_dir: str):
    """Bigram language-model fluency scoring — the statistical
    quality-filter primitive (CCNet-style LM scoring, here an in-corpus
    bigram model instead of a shipped KenLM): doc score = Σ over
    adjacent token pairs of P(w₂|w₁) in INTEGER ppm
    (count(w₁w₂)·10⁶ // count(w₁·)) — all-integer so the oracle replays
    bit-exactly. Two passes: (1) corpus bigram/prefix counts reduce
    from per-batch partials (vocabulary-bounded kilobytes, broadcast);
    (2) per-doc scoring against the broadcast model with per-batch
    local top-k (the split itself is irreducibly per-doc, like langid).
    Top-20 lowest-scoring docs (ties → doc_id) = disfluency candidates.

    The broadcast model grows with the corpus's distinct-bigram count.
    No sharded twin (three keyed exchanges, nothing broadcast) is kept:
    it took 4.9-6.5 s at sf0.01 and 5.8-6.2 s at sf0.1 against 0.6-1.0
    s and 0.8-0.9 s for this broadcast (PERF.md "Retired twin
    engines"), and the ``lm_score_sharded`` entry runs this function."""
    import ray as _ray

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bigram_partial(t: pa.Table) -> pa.Table:
        toks_all = [(x or "").split(" ") for x in t["text"].to_pylist()]
        df = pd.DataFrame(
            {
                "w1": [w for toks in toks_all for w in toks[:-1]],
                "w2": [w for toks in toks_all for w in toks[1:]],
            }
        )
        g = df.groupby(["w1", "w2"], as_index=False).size().rename(columns={"size": "c"})
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = docs.map_batches(bigram_partial, batch_format="pyarrow").to_pandas()
    bg = parts.groupby(["w1", "w2"], as_index=False)["c"].sum()
    pf = bg.groupby("w1", as_index=False)["c"].sum().rename(columns={"c": "n1"})
    model = bg.merge(pf, on="w1")
    model["ppm"] = model["c"].to_numpy(np.int64) * 1_000_000 // model["n1"].to_numpy(np.int64)
    mref = _ray.put(
        {(a, b): int(p) for a, b, p in zip(model["w1"], model["w2"], model["ppm"])}
    )

    def score(t: pa.Table) -> pa.Table:
        m = _ray.get(mref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        scores = np.empty(len(ids), np.int64)
        for i, text in enumerate(t["text"].to_pylist()):
            toks = (text or "").split(" ")
            scores[i] = sum(m.get((a, b), 0) for a, b in zip(toks[:-1], toks[1:]))
        out = pd.DataFrame({"doc_id": ids, "lm_ppm": scores})
        return pa.Table.from_pandas(
            out.sort_values(["lm_ppm", "doc_id"], kind="mergesort").head(20),
            preserve_index=False,
        )

    cand = docs.map_batches(score, batch_format="pyarrow").to_pandas()
    top = cand.sort_values(["lm_ppm", "doc_id"], kind="mergesort").head(20)
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64), pa.int64()),
            "lm_ppm": pa.array(top["lm_ppm"].to_numpy(np.int64), pa.int64()),
        }
    )


_LM_SCORE_SQL = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
bg AS (
  SELECT doc_id, l[i.x] AS w1, l[i.x + 1] AS w2
  FROM t, unnest(range(1, len(l))) AS i(x)),
counts AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c FROM bg GROUP BY w1, w2),
pf AS (SELECT w1, CAST(sum(c) AS BIGINT) AS n1 FROM counts GROUP BY w1),
model AS (SELECT counts.w1, counts.w2, c * 1000000 // n1 AS ppm
          FROM counts JOIN pf USING (w1)),
scores AS (
  SELECT bg.doc_id, CAST(coalesce(sum(m.ppm), 0) AS BIGINT) AS lm_ppm
  FROM bg LEFT JOIN model m ON bg.w1 = m.w1 AND bg.w2 = m.w2
  GROUP BY bg.doc_id)
SELECT doc_id, lm_ppm FROM scores ORDER BY lm_ppm, doc_id LIMIT 20
"""


def q_cross_source_dups(sf_dir: str):
    """Cross-source duplicate provenance: content (md5 of text) that
    appears in MORE THAN ONE source — the contamination/propagation
    signal layered on exact dedup (same text crawled from two domains).
    Per-batch (hash, source) dedup partials → ONE hash-bucketed
    exchange → per-hash distinct-source and doc counts; only multi-
    source hashes survive."""
    import hashlib as _hashlib

    nb = adaptive_buckets()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        hx = [_hashlib.md5((x or "").encode("utf-8")).hexdigest() for x in texts]
        df = pd.DataFrame(
            {
                "h": hx,
                "source": t["source"].to_numpy(zero_copy_only=False),
                "c": np.ones(len(hx), np.int64),
            }
        )
        g = df.groupby(["h", "source"], as_index=False)["c"].sum()
        hb = np.fromiter(
            (int(x[:8], 16) for x in g["h"]), np.int64, len(g)
        )
        out = pa.Table.from_pandas(g, preserve_index=False)
        return out.append_column("_hb", hash_bucket(hb, nb))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["h", "source"], as_index=False)["c"].sum()
        agg = g.groupby("h").agg(n_sources=("source", "nunique"), n_docs=("c", "sum"))
        agg = agg[agg["n_sources"] > 1].reset_index()
        return agg[["h", "n_sources", "n_docs"]]

    groups = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("_hb")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    # one summary row (never empty, robust at every scale): how many
    # content groups span >1 source and how many docs they cover
    return pa.table(
        {
            "n_groups": pa.array([len(groups)], pa.int64()),
            "n_docs": pa.array([int(groups["n_docs"].sum()) if len(groups) else 0], pa.int64()),
        }
    )


_CROSS_SOURCE_DUPS_SQL = """
WITH g AS (
  SELECT md5(coalesce(text, '')) AS h,
         count(DISTINCT source) AS n_sources,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM documents
  GROUP BY md5(coalesce(text, ''))
  HAVING count(DISTINCT source) > 1)
SELECT CAST(count(*) AS BIGINT) AS n_groups,
       CAST(coalesce(sum(n_docs), 0) AS BIGINT) AS n_docs
FROM g
"""


def q_weekday_profile(sf_dir: str):
    """Weekday seasonality profile: event counts and exact integer
    cents sums per (event_type, weekday) — the time-dimension rollup.
    Weekday from pure epoch-day arithmetic ((days+4) mod 7, DuckDB's
    Sunday=0 convention) — no calendar library in the hot path; tiny
    per-batch partials, driver-reduced."""
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        days = ts.astype("datetime64[D]").astype(np.int64)
        dow = (days + 4) % 7
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "dow": dow,
                "v100": duck_rint(t["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "dow"], as_index=False).agg(
            n=("v100", "size"), sv100=("v100", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = events.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["event_type", "dow"], as_index=False).sum()
    g = g.sort_values(["event_type", "dow"], kind="mergesort")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "dow": pa.array(g["dow"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
        }
    )


_WEEKDAY_PROFILE_SQL = """
SELECT event_type, CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100
FROM events GROUP BY event_type, dayofweek(ts)
"""


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP (event_type, weekday) in ONE pass: sums and
    counts are distributive, so only the FINEST level is ever
    aggregated over the data (per-batch partials, ≤ 5·7 rows each,
    driver-reduced) and the coarser levels — per-type subtotal and
    grand total — are derived from the finest aggregate, never from a
    second scan. NULL group markers match DuckDB's ROLLUP output;
    the -1 weekday / '' event_type sentinels are avoided by letting the
    harness compare real NULLs."""
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        days = ts.astype("datetime64[D]").astype(np.int64)
        dow = (days + 4) % 7
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "dow": dow,
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "dow"], as_index=False).agg(
            n=("v100", "size"), sv100=("v100", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        events.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["event_type", "dow"], as_index=False)
        .sum()
    )
    by_type = fine.groupby("event_type", as_index=False)[["n", "sv100"]].sum()
    by_type["dow"] = pd.NA
    total = pd.DataFrame(
        {"event_type": [None], "dow": [pd.NA],
         "n": [fine["n"].sum()], "sv100": [fine["sv100"].sum()]}
    )
    out = pd.concat([fine, by_type, total], ignore_index=True)
    return pa.table(
        {
            "event_type": pa.array(
                [None if v is None else str(v) for v in out["event_type"]],
                pa.string(),
            ),
            "dow": pa.array(
                [None if pd.isna(v) else int(v) for v in out["dow"]], pa.int64()
            ),
            "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            "sv100": pa.array(out["sv100"].to_numpy(np.int64), pa.int64()),
        }
    )


_ROLLUP_SQL = """
SELECT event_type,
       CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100
FROM events GROUP BY ROLLUP (event_type, dayofweek(ts))
"""


def q_cube(sf_dir: str):
    """GROUP BY CUBE (event_type, weekday), same single-pass shape as
    q_rollup: sums/counts are distributive, so the per-weekday level
    (the one CUBE adds over ROLLUP) is also derived from the finest
    aggregate — four grouping sets, one scan."""
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        days = ts.astype("datetime64[D]").astype(np.int64)
        dow = (days + 4) % 7
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "dow": dow,
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "dow"], as_index=False).agg(
            n=("v100", "size"), sv100=("v100", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        events.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["event_type", "dow"], as_index=False)
        .sum()
    )
    by_type = fine.groupby("event_type", as_index=False)[["n", "sv100"]].sum()
    by_type["dow"] = pd.NA
    by_dow = fine.groupby("dow", as_index=False)[["n", "sv100"]].sum()
    by_dow["event_type"] = None
    total = pd.DataFrame(
        {"event_type": [None], "dow": [pd.NA],
         "n": [fine["n"].sum()], "sv100": [fine["sv100"].sum()]}
    )
    out = pd.concat([fine, by_type, by_dow, total], ignore_index=True)
    return pa.table(
        {
            "event_type": pa.array(
                [None if v is None else str(v) for v in out["event_type"]],
                pa.string(),
            ),
            "dow": pa.array(
                [None if pd.isna(v) else int(v) for v in out["dow"]], pa.int64()
            ),
            "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            "sv100": pa.array(out["sv100"].to_numpy(np.int64), pa.int64()),
        }
    )


_CUBE_SQL = """
SELECT event_type,
       CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100
FROM events GROUP BY CUBE (event_type, dayofweek(ts))
"""


def q_unpivot(sf_dir: str):
    """UNPIVOT (wide → long, the reshape inverse of pivot_event_types):
    the four lineitem measure columns explode into (measure, v100) rows
    on exact integer cents — a pure map (4× tile + interleave per
    batch), no exchange, predicate pushed into the parquet read."""
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
        filter=pc.field("l_orderkey") < 1000,
    )
    MEASURES = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")

    def explode(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False)
        n = len(ok)
        names = np.concatenate([np.full(n, m, dtype=object) for m in MEASURES])
        vals = np.concatenate(
            [
                duck_rint(t[m].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
                for m in MEASURES
            ]
        )
        return pa.table(
            {
                "l_orderkey": pa.array(np.tile(ok, len(MEASURES)), pa.int64()),
                "l_linenumber": pa.array(np.tile(ln, len(MEASURES)), pa.int64()),
                "measure": pa.array(names, pa.string()),
                "v100": pa.array(vals, pa.int64()),
            }
        )

    return li.map_batches(explode, batch_format="pyarrow")


_UNPIVOT_SQL = """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       measure, CAST(round(value * 100) AS BIGINT) AS v100
FROM (
  UNPIVOT (SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice,
                  l_discount, l_tax
           FROM lineitem WHERE l_orderkey < 1000)
  ON l_quantity, l_extendedprice, l_discount, l_tax
  INTO NAME measure VALUE value)
"""


def q_zonemap_prune(sf_dir: str):
    """Zone-map (min/max stats) file pruning — the second lake-pruning
    primitive next to hive partitioning (partition_prune): events are
    written ONCE as ts-sorted files with per-file min/max recorded in a
    sidecar manifest (cached prep; what zorder's bounding boxes do for
    2-D, this does for the sort key). The query consults ONLY the
    manifest to select files overlapping its ts range — here 2 of 16
    files — applies the residual filter, and aggregates on exact cents.
    At 100 TB this is the difference between scanning a day and
    scanning a decade."""
    import json as _json
    from pathlib import Path

    import pyarrow.parquet as _pq

    stage = _stage_dir("ccr_zonemap", sf_dir)
    manifest = stage / "manifest.json"
    N_FILES = 16
    if not manifest.exists():
        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])
        t = t.sort_by("ts")
        per = (t.num_rows + N_FILES - 1) // N_FILES
        entries = []
        for i in range(N_FILES):
            sl = t.slice(i * per, per)
            if sl.num_rows == 0:
                continue
            path = stage / f"part-{i:02d}.parquet"
            _pq.write_table(sl, path)
            ts = sl["ts"].to_numpy(zero_copy_only=False)
            entries.append(
                {
                    "file": str(path),
                    "min_ts": str(ts.min().astype("datetime64[us]")),
                    "max_ts": str(ts.max().astype("datetime64[us]")),
                }
            )
        manifest.write_text(_json.dumps(entries))

    LO = np.datetime64("2024-01-10T00:00:00", "us")
    HI = np.datetime64("2024-01-13T00:00:00", "us")
    entries = _json.loads(manifest.read_text())
    files = [
        e["file"]
        for e in entries
        if np.datetime64(e["min_ts"]) < HI and np.datetime64(e["max_ts"]) >= LO
    ]
    assert len(files) < len(entries), "zone map pruned nothing — layout broken"

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        sel = (ts >= LO) & (ts < HI)
        v100 = duck_rint(t["value"].to_numpy(zero_copy_only=False)[sel] * 100).astype(np.int64)
        return pa.table(
            {
                "sv100": pa.array([int(v100.sum())], pa.int64()),
                "n": pa.array([int(sel.sum())], pa.int64()),
            }
        )

    parts = rd.read_parquet(files).map_batches(partial, batch_format="pyarrow").to_pandas()
    return pa.table(
        {
            "sv100": pa.array([int(parts["sv100"].sum())], pa.int64()),
            "n": pa.array([int(parts["n"].sum())], pa.int64()),
        }
    )


_ZONEMAP_PRUNE_SQL = """
SELECT CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events
WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-01-13'
"""


def q_minmax_scale(sf_dir: str):
    """Per-group min-max feature scaling to exact integer ppm —
    the ML-preprocessing normalization primitive:
    scaled = (v − min)·10⁶ // (max − min) per event_type, on integer
    cents, so there is no float anywhere. ONE type-bucketed exchange;
    the group pass computes min/max and scales every row vectorized."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        codes = np.fromiter(
            (int.from_bytes(s.encode()[:7].ljust(7, b"\0"), "little") for s in et),
            np.int64,
            len(et),
        )
        return t.append_column("_tb", hash_bucket(codes, nb))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in df.groupby("event_type"):
            v100 = duck_rint(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
            lo, hi = v100.min(), v100.max()
            span = max(hi - lo, 1)
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(np.int64),
                        "event_type": et,
                        "scaled_ppm": (v100 - lo) * 1_000_000 // span,
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_tb")
        .map_groups(per_bucket, batch_format="pandas")
    )


_MINMAX_SCALE_SQL = """
WITH v AS (SELECT event_id, event_type,
                  CAST(round(value * 100) AS BIGINT) AS v100 FROM events),
s AS (SELECT event_type, min(v100) AS lo,
             greatest(max(v100) - min(v100), 1) AS span
      FROM v GROUP BY event_type)
SELECT v.event_id, v.event_type,
       CAST((v.v100 - s.lo) * 1000000 // s.span AS BIGINT) AS scaled_ppm
FROM v JOIN s USING (event_type)
"""


def q_first_last(sf_dir: str):
    """first_value / last_value per partition (the remaining window-
    navigation pair next to lag/rank/ntile): each user's earliest and
    latest event value by (ts, event_id) on exact integer cents.
    Mergeable argmin/argmax partials: each batch emits at most two
    candidate rows per user it saw, ONE user-bucketed exchange of
    those candidates finishes the order statistics — the exchange
    moves O(users·batches) candidate rows, never the event stream."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def candidates(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "ts": t["ts"].to_numpy(zero_copy_only=False),
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = df.groupby("user_id", as_index=False).head(1)
        last = df.groupby("user_id", as_index=False).tail(1)
        out = pd.concat([first, last], ignore_index=True).drop_duplicates()
        out["_ub"] = hash_bucket(out["user_id"].to_numpy(np.int64), nb)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = df.groupby("user_id", as_index=False).head(1)
        last = df.groupby("user_id", as_index=False).tail(1)
        return pd.DataFrame(
            {
                "user_id": first["user_id"].to_numpy(np.int64),
                "first_v100": first["v100"].to_numpy(np.int64),
                "last_v100": last["v100"].to_numpy(np.int64),
            }
        )

    return (
        events.map_batches(candidates, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(finish, batch_format="pandas")
    )


_FIRST_LAST_SQL = """
WITH v AS (SELECT user_id, ts, event_id,
                  CAST(round(value * 100) AS BIGINT) AS v100 FROM events)
SELECT DISTINCT user_id,
       first_value(v100) OVER w AS first_v100,
       last_value(v100) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND UNBOUNDED FOLLOWING) AS last_v100
FROM v WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_debounce(sf_dir: str):
    """Event-stream debounce: drop an event if the same (user, type)
    fired within the previous 5 minutes — the at-source throttling /
    near-duplicate-event hygiene operator. One user-bucketed exchange;
    inside the bucket ONE vectorized lag over the (user, type, ts,
    event_id)-sorted frame decides every row (ties on identical ts keep
    the lowest event_id only)."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    FIVE_MIN = 300_000_000  # µs

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        keep = np.empty(len(df), bool)
        keep[0:1] = True
        same = (u[1:] == u[:-1]) & (et[1:] == et[:-1])
        keep[1:] = ~(same & (ts[1:] - ts[:-1] <= FIVE_MIN))
        out = df.loc[keep, ["event_id", "user_id", "event_type", "ts"]]
        return out

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_DEBOUNCE_SQL = """
SELECT event_id, user_id, event_type, ts FROM (
  SELECT event_id, user_id, event_type, ts,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
           (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap_us
  FROM events)
WHERE gap_us IS NULL OR gap_us > 300000000
"""


def q_outliers(sf_dir: str):
    """Per-user 2σ outlier flags with EXACT integer arithmetic — no
    float mean/std anywhere: event i is an outlier iff
    (n−1)·(v·n−s)² > 4·n·(ss·n−s²) on integer cents (algebraically
    |v−mean| > 2·σ_sample). The products exceed int64 at large per-user
    n, so the compare runs in arbitrary-precision Python ints
    (object-dtype lane, exact at ANY scale) while the oracle replays it
    in DuckDB HUGEINT (int128). ONE user-bucketed exchange; stats and
    flags are two vectorized passes over the bucket. Groups with n < 2
    or zero variance flag nothing."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        v = duck_rint(df["value"].to_numpy(np.float64) * 100).astype(np.int64)
        # exact int64 per-user stats (v² ≤ ~3e9 · rows/user: int64-safe
        # far beyond any realistic per-user event count)
        stats = pd.DataFrame(
            {"user_id": df["user_id"], "v": v, "vv": v * v}
        ).groupby("user_id", sort=False).agg(
            n=("v", "size"), s=("v", "sum"), ss=("vv", "sum")
        )
        n = stats.loc[df["user_id"], "n"].to_numpy(np.int64)
        s = stats.loc[df["user_id"], "s"].to_numpy(np.int64)
        ss = stats.loc[df["user_id"], "ss"].to_numpy(np.int64)
        # overflow-safe exact compare: object-dtype Python ints
        X = (v.astype(object) * n.astype(object)) - s.astype(object)
        lhs = (n.astype(object) - 1) * X * X
        rhs = 4 * n.astype(object) * (ss.astype(object) * n.astype(object) - s.astype(object) * s.astype(object))
        flag = np.array([a > b for a, b in zip(lhs, rhs)], dtype=bool)
        flag &= n >= 2
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.int64),
                "user_id": df["user_id"].to_numpy(np.int64),
                "is_outlier": flag,
            }
        )

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_OUTLIERS_SQL = """
WITH v AS (SELECT event_id, user_id,
                  CAST(round(value * 100) AS HUGEINT) AS v100 FROM events),
st AS (SELECT user_id, CAST(count(*) AS HUGEINT) AS n,
              sum(v100) AS s, sum(v100 * v100) AS ss
       FROM v GROUP BY user_id)
SELECT v.event_id, CAST(v.user_id AS BIGINT) AS user_id,
       (st.n >= 2 AND
        (st.n - 1) * (v.v100 * st.n - st.s) * (v.v100 * st.n - st.s)
        > 4 * st.n * (st.ss * st.n - st.s * st.s)) AS is_outlier
FROM v JOIN st USING (user_id)
"""


def q_throttle(sf_dir: str):
    """Rate-limit against the last KEPT event (true throttle semantics,
    vs debounce's raw-gap lag): per (user, type), keep an event only if
    it is > 3 days after the previously KEPT one — a greedy chain with
    a sequential dependence no single window function expresses (the
    oracle needs a recursive CTE). One user-bucketed exchange; per
    group the chain advances by searchsorted jumps, so work is
    O(kept · log n) — the kept set, not the raw stream, bounds the
    scalar loop. Chosen 3-day window measurably diverges from debounce
    on this data (4423 vs 2940 kept at sf0.01)."""
    nb = adaptive_buckets()
    G = 3 * 86400 * 1_000_000  # µs
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        m = len(df)
        new = np.empty(m, bool)
        new[0:1] = True
        new[1:] = (u[1:] != u[:-1]) | (et[1:] != et[:-1])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], m)
        keep = np.zeros(m, bool)
        for s, e in zip(starts, ends):
            i = s
            while i < e:
                keep[i] = True
                i = s + int(np.searchsorted(ts[s:e], ts[i] + G, side="right"))
        out = df.loc[keep, ["event_id", "user_id", "event_type", "ts"]]
        return out

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_THROTTLE_SQL = """
WITH RECURSIVE base AS (
  SELECT user_id, event_type, ts, event_id,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM events),
chain AS (
  SELECT user_id, event_type, ts, event_id, rn FROM base WHERE rn = 1
  UNION ALL
  SELECT b.user_id, b.event_type, b.ts, b.event_id, b.rn
  FROM chain c JOIN base b
    ON b.user_id = c.user_id AND b.event_type = c.event_type
   AND b.rn = (SELECT min(b2.rn) FROM base b2
               WHERE b2.user_id = c.user_id AND b2.event_type = c.event_type
                 AND b2.rn > c.rn
                 AND epoch_us(b2.ts) > epoch_us(c.ts) + 259200000000))
SELECT event_id, user_id, event_type, ts FROM chain
"""


def q_bt_strength(sf_dir: str):
    """Bradley–Terry preference strength (Bradley & Terry 1952; the
    RLHF reward-aggregation primitive: turn pairwise win/loss
    comparisons into per-item strengths). Comparisons are derived
    deterministically: per user, each consecutive event pair (by
    event_id) is a duel the higher-value event's type WINS (ties and
    NULL values skipped — mirroring SQL's NULL-dropping comparison).
    Distributed part: per-user bucketed exchange + vectorized shift
    pass emitting per-bucket (winner, loser, n) partial counts — the
    win matrix is |types|² cells (kilobytes), driver-reduced like
    chi2/kmeans. Two MM fixed-point iterations run driver-side in
    EXACT integers (ppm strengths; each term ``g·10^12 //
    max(s_i+s_j, 1)`` is an exact floor op), so the oracle unrolls
    the same two rounds over its own win-matrix CTE bit-for-bit.
    Output: (role, wins, losses, strength)."""
    nb = adaptive_buckets()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value"],
    )

    def bucket(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_b", hash_bucket(u, nb))

    def pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        v = df["value"].to_numpy(np.float64)
        if len(df) < 2:
            return pd.DataFrame({"w": [], "l": [], "n": []})
        same = u[1:] == u[:-1]
        cur_t, prev_t = et[1:], et[:-1]
        cur_v, prev_v = v[1:], v[:-1]
        sel = (
            same
            & (cur_t != prev_t)
            & ~np.isnan(cur_v)
            & ~np.isnan(prev_v)
            & (cur_v != prev_v)
        )
        up = cur_v[sel] > prev_v[sel]
        w = np.where(up, cur_t[sel], prev_t[sel])
        l = np.where(up, prev_t[sel], cur_t[sel])
        out = (
            pd.DataFrame({"w": w, "l": l})
            .groupby(["w", "l"], sort=True)
            .size()
            .rename("n")
            .reset_index()
        )
        return out.assign(n=out["n"].astype(np.int64))

    rows = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(pairs_bucket, batch_format="pandas")
        .take_all()
    )  # ≤ buckets × |types|² kilobyte partials
    from collections import defaultdict

    mat: dict[tuple[str, str], int] = defaultdict(int)
    for r in rows:
        mat[(str(r["w"]), str(r["l"]))] += int(r["n"])
    types = sorted({i for i, _ in mat} | {j for _, j in mat})
    S, BIG = 1_000_000, 10**12
    wins = {t: 0 for t in types}
    games: dict[tuple[str, str], int] = defaultdict(int)
    for (i, j), c in mat.items():
        wins[i] += c
        games[(i, j)] += c
        games[(j, i)] += c
    losses = {t: sum(g for (i, _), g in games.items() if i == t) - wins[t] for t in types}
    s = {t: S for t in types}
    for _ in range(2):
        den = {
            t: sum(
                g * BIG // max(s[t] + s[j], 1)
                for (i, j), g in games.items()
                if i == t
            )
            for t in types
        }
        s = {t: (wins[t] * BIG // den[t] if den[t] else 0) for t in types}
    return pa.table(
        {
            "role": pa.array(types, pa.string()),
            "wins": pa.array([wins[t] for t in types], pa.int64()),
            "losses": pa.array([losses[t] for t in types], pa.int64()),
            "strength": pa.array([s[t] for t in types], pa.int64()),
        }
    )


_BT_STRENGTH_SQL = """
WITH ord AS (
  SELECT user_id, event_type, value, event_id,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY event_id) AS pt,
         lag(value)      OVER (PARTITION BY user_id ORDER BY event_id) AS pv
  FROM events),
duels AS (
  SELECT CASE WHEN value > pv THEN event_type ELSE pt END AS w,
         CASE WHEN value > pv THEN pt ELSE event_type END AS l
  FROM ord
  WHERE pt IS NOT NULL AND event_type <> pt
    AND value IS NOT NULL AND pv IS NOT NULL AND value <> pv),
m AS MATERIALIZED (SELECT w, l, CAST(count(*) AS BIGINT) AS n FROM duels GROUP BY w, l),
types AS MATERIALIZED (SELECT w AS t FROM m UNION SELECT l FROM m),
g AS MATERIALIZED (
  SELECT i, j, CAST(sum(n) AS BIGINT) AS g FROM (
    SELECT w AS i, l AS j, n FROM m
    UNION ALL
    SELECT l AS i, w AS j, n FROM m) GROUP BY i, j),
wl AS MATERIALIZED (
  SELECT t.t,
         CAST(coalesce((SELECT sum(n) FROM m WHERE m.w = t.t), 0) AS BIGINT) AS wins,
         CAST(coalesce((SELECT sum(g) FROM g WHERE g.i = t.t), 0)
              - coalesce((SELECT sum(n) FROM m WHERE m.w = t.t), 0) AS BIGINT) AS losses
  FROM types t),
s0 AS MATERIALIZED (SELECT t, CAST(1000000 AS BIGINT) AS s FROM types),
d1 AS (
  SELECT g.i AS t, CAST(sum(g.g * 1000000000000 // greatest(si.s + sj.s, 1)) AS BIGINT) AS den
  FROM g JOIN s0 si ON si.t = g.i JOIN s0 sj ON sj.t = g.j GROUP BY g.i),
s1 AS MATERIALIZED (
  SELECT t.t, CAST(CASE WHEN coalesce(d1.den, 0) = 0 THEN 0
                        ELSE wl.wins * 1000000000000 // d1.den END AS BIGINT) AS s
  FROM types t LEFT JOIN d1 ON d1.t = t.t JOIN wl ON wl.t = t.t),
d2 AS (
  SELECT g.i AS t, CAST(sum(g.g * 1000000000000 // greatest(si.s + sj.s, 1)) AS BIGINT) AS den
  FROM g JOIN s1 si ON si.t = g.i JOIN s1 sj ON sj.t = g.j GROUP BY g.i),
s2 AS (
  SELECT t.t, CAST(CASE WHEN coalesce(d2.den, 0) = 0 THEN 0
                        ELSE wl.wins * 1000000000000 // d2.den END AS BIGINT) AS s
  FROM types t LEFT JOIN d2 ON d2.t = t.t JOIN wl ON wl.t = t.t)
SELECT wl.t AS role, wl.wins, wl.losses, s2.s AS strength
FROM wl JOIN s2 ON s2.t = wl.t
"""


def q_chi2(sf_dir: str):
    """Pearson χ² independence test on the source × lang contingency
    table — the distribution-shift significance check of data cards.
    Counts reduce from vectorized per-batch partials (the scalable
    part); the χ² arithmetic runs on the tiny #sources×#langs table
    driver-side in fixed sorted-cell order, rounded through
    duckdb_round(4) to match the oracle byte-for-byte."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": t["source"].to_numpy(zero_copy_only=False),
                "lang": t["lang"].to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby(["source", "lang"], as_index=False).size()
        return pa.Table.from_pandas(out.rename(columns={"size": "c"}), preserve_index=False)

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    c = parts.groupby(["source", "lang"], as_index=False)["c"].sum()
    c = c.sort_values(["source", "lang"], kind="mergesort")
    n = float(c["c"].sum())
    rs = c.groupby("source")["c"].sum()
    cs = c.groupby("lang")["c"].sum()
    o = c["c"].to_numpy(np.float64)
    e = rs.loc[c["source"]].to_numpy(np.float64) * cs.loc[c["lang"]].to_numpy(np.float64) / n
    # cells absent from the data contribute e (o=0 ⇒ (0−e)²/e = e); the
    # oracle's pairwise-complete form Σ(o−e)²/e + Σ_missing e reduces to
    # Σ_cells_present (o²/e) − 2·Σo + Σ_all e = Σ o²/e − n  (Σ_all e = n)
    chi2 = float((o * o / e).sum() - n)
    dof = (len(rs) - 1) * (len(cs) - 1)
    return pa.table(
        {
            "chi2": pa.array(duckdb_round([chi2], 4), pa.float64()),
            "dof": pa.array([dof], pa.int64()),
        }
    )


_CHI2_SQL = """
WITH c AS (SELECT source, lang, CAST(count(*) AS DOUBLE) AS c
           FROM documents GROUP BY source, lang),
rs AS (SELECT source, sum(c) AS r FROM c GROUP BY source),
cs AS (SELECT lang, sum(c) AS s FROM c GROUP BY lang),
n AS (SELECT sum(c) AS n FROM c)
SELECT round(sum(c.c * c.c / (rs.r * cs.s / n.n)) - max(n.n), 4) AS chi2,
       CAST((count(DISTINCT c.source) - 1) * (count(DISTINCT c.lang) - 1) AS BIGINT) AS dof
FROM c JOIN rs USING (source) JOIN cs USING (lang) CROSS JOIN n
"""


def q_stickiness(sf_dir: str):
    """DAU / WAU / MAU + stickiness ratios (DAU/WAU, DAU/MAU in
    integer ppm) per observed day — the product-analytics dashboard
    flagship, built on the same O(intervals)-per-user coverage-diff
    machinery as rolling_distinct, generalized to three window sizes
    in ONE user-bucketed exchange (each bucket emits ±1 boundary diffs
    tagged per window; the driver prefix-sums three kilobyte series).
    Ratios are integer floor-ppm so the compare is exact."""
    nb = adaptive_buckets()
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    WINDOWS = (1, 7, 30)

    def pairs(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        day = ts.astype("datetime64[D]").astype(np.int64)
        df = pd.DataFrame(
            {"user_id": t["user_id"].to_numpy(zero_copy_only=False), "day": day}
        ).drop_duplicates()
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column(
            "_ub", hash_bucket(df["user_id"].to_numpy(np.int64), nb)
        )

    def diffs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        u = d["user_id"].to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        m = len(d)
        outs = []
        for W in WINDOWS:
            first = np.empty(m, bool)
            first[0:1] = True
            first[1:] = (u[1:] != u[:-1]) | (day[1:] - day[:-1] > W - 1)
            last = np.empty(m, bool)
            last[-1:] = True
            last[:-1] = (u[1:] != u[:-1]) | (day[1:] - day[:-1] > W - 1)
            outs.append(
                pd.DataFrame(
                    {
                        "w": W,
                        "day": np.concatenate([day[first], day[last] + W]),
                        "delta": np.concatenate(
                            [
                                np.ones(int(first.sum()), np.int64),
                                -np.ones(int(last.sum()), np.int64),
                            ]
                        ),
                        "observed": 0,
                    }
                )
            )
        if m:
            outs.append(
                pd.DataFrame(
                    {"w": 0, "day": np.unique(day), "delta": 0, "observed": 1}
                )
            )
        out = pd.concat(outs, ignore_index=True)
        return out.groupby(["w", "day"], as_index=False).agg(
            delta=("delta", "sum"), observed=("observed", "max")
        )

    parts = (
        events.map_batches(pairs, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(diffs, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby(["w", "day"], as_index=False).agg(
        delta=("delta", "sum"), observed=("observed", "max")
    )
    obs_days = np.sort(agg.loc[agg["observed"] > 0, "day"].unique())
    series = {}
    for W in WINDOWS:
        g = agg[agg["w"] == W].sort_values("day", kind="mergesort")
        run = g["delta"].cumsum().to_numpy(np.int64)
        days = g["day"].to_numpy(np.int64)
        # value at an observed day = last boundary at or before it
        idx = np.searchsorted(days, obs_days, side="right") - 1
        series[W] = np.where(idx >= 0, run[np.clip(idx, 0, None)], 0)
    dau, wau, mau = series[1], series[7], series[30]
    return pa.table(
        {
            "day": pa.array(obs_days.astype("datetime64[D]").astype("datetime64[us]")),
            "dau": pa.array(dau, pa.int64()),
            "wau": pa.array(wau, pa.int64()),
            "mau": pa.array(mau, pa.int64()),
            "dau_wau_ppm": pa.array(dau * 1_000_000 // wau, pa.int64()),
            "dau_mau_ppm": pa.array(dau * 1_000_000 // mau, pa.int64()),
        }
    )


_STICKINESS_SQL = """
WITH d AS (SELECT DISTINCT CAST(date_trunc('day', ts) AS DATE) AS day, user_id
           FROM events),
days AS (SELECT DISTINCT day FROM d),
w AS (SELECT w.day,
             count(DISTINCT CASE WHEN d.day = w.day THEN d.user_id END) AS dau,
             count(DISTINCT CASE WHEN d.day >= w.day - 6 THEN d.user_id END) AS wau,
             count(DISTINCT d.user_id) AS mau
      FROM days w JOIN d ON d.day BETWEEN w.day - 29 AND w.day
      GROUP BY w.day)
SELECT CAST(day AS TIMESTAMP) AS day,
       CAST(dau AS BIGINT) AS dau, CAST(wau AS BIGINT) AS wau,
       CAST(mau AS BIGINT) AS mau,
       CAST(dau * 1000000 // wau AS BIGINT) AS dau_wau_ppm,
       CAST(dau * 1000000 // mau AS BIGINT) AS dau_mau_ppm
FROM w
"""


def q_event_paths(sf_dir: str):
    """Event-sequence transition mining: for every consecutive
    (event_type → next event_type) step per user (ordered by ts,
    event_id), the global count and the exact total dwell gap in
    MICROSECONDS (integer sums of int64 timestamp diffs — no float
    anywhere). One user-bucketed exchange; inside the bucket the
    next-event shift is one vectorized roll over the (user, ts)-sorted
    frame; outputs are |types|² kilobyte partials, driver-reduced."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = u[:-1] == u[1:]  # consecutive rows of the same user
        step = pd.DataFrame(
            {
                "src_type": et[:-1][same],
                "dst_type": et[1:][same],
                "gap_us": ts[1:][same] - ts[:-1][same],
            }
        )
        g = step.groupby(["src_type", "dst_type"], as_index=False).agg(
            n=("gap_us", "size"), sum_gap_us=("gap_us", "sum")
        )
        return g

    parts = (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    g = parts.groupby(["src_type", "dst_type"], as_index=False).sum()
    g = g.sort_values(["src_type", "dst_type"], kind="mergesort")
    return pa.table(
        {
            "src_type": pa.array(g["src_type"], pa.string()),
            "dst_type": pa.array(g["dst_type"], pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            "sum_gap_us": pa.array(g["sum_gap_us"].to_numpy(np.int64), pa.int64()),
        }
    )


_EVENT_PATHS_SQL = """
WITH s AS (
  SELECT user_id, event_type AS src_type,
         lead(event_type) OVER w AS dst_type,
         CAST(epoch_us(lead(ts) OVER w) - epoch_us(ts) AS BIGINT) AS gap_us
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT src_type, dst_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(gap_us) AS BIGINT) AS sum_gap_us
FROM s WHERE dst_type IS NOT NULL
GROUP BY src_type, dst_type
"""


def q_rolling_agg(sf_dir: str):
    """ROWS-frame rolling aggregates per key (3 PRECEDING..CURRENT ROW,
    ordered by (ts, event_id)): count, sum, min, max over the trailing
    4 rows. The sum rides an integer cents column (round(value·100) —
    measured .5-boundary-free on this data) so the 4-term window sums
    are exact regardless of DuckDB's incremental vs our cumsum
    evaluation; min/max are order stats, exact in any arithmetic. One
    user-bucketed exchange; inside the bucket pandas' C-level
    groupby-rolling does every user at once."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df["v100"] = duck_rint(df["value"].to_numpy(np.float64) * 100).astype(np.int64)
        r = df.groupby("user_id", sort=False).rolling(4, min_periods=1)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.int64),
                "n_w": r["v100"].count().to_numpy(np.int64),
                "sum_w100": r["v100"].sum().to_numpy(np.int64),
                "min_v": r["value"].min().to_numpy(np.float64),
                "max_v": r["value"].max().to_numpy(np.float64),
            }
        )

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_ROLLING_AGG_SQL = """
SELECT event_id,
       CAST(count(*) OVER w AS BIGINT) AS n_w,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) AS sum_w100,
       min(value) OVER w AS min_v,
       max(value) OVER w AS max_v
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


def _ed_le1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check (two-pointer, O(len))."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def _ed_le(a: str, b: str, k: int) -> bool:
    """Exact edit-distance ≤ k check (full DP with early exit; keys in
    the fuzzy-join family are short, so the O(len²) row is trivial)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    if k == 1:
        return _ed_le1(a, b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ai = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != b[j - 1]))
        prev = cur
        if min(prev) > k:
            return False
    return prev[lb] <= k


def _typo_pairs_impl(sf_dir: str, depth: int):
    """Fuzzy self-join at edit distance ≤ ``depth`` via DELETION
    NEIGHBORHOODS (the FastSS blocking scheme, Bocek et al. 2007):
    every distinct key emits itself plus all variants reachable by up
    to ``depth`` character deletions; two keys within ED ``depth`` are
    GUARANTEED to share a variant, so candidate generation is one
    variant-keyed exchange of N·L^depth rows — never the O(N²) cross
    join. Candidates dedupe in a pair-keyed exchange and are verified
    with an exact edit-distance check. The key set is derived
    deterministically from doc_id (the natural corpus has a 31-token
    vocabulary — too clean to contain typos); the oracle replays the
    same neighborhood construction with DuckDB list lambdas and gates
    on levenshtein()."""
    import zlib as _zlib
    from itertools import combinations as _comb

    nb = adaptive_buckets()
    _SUF = ["", "a", "b", "ab", "ba"]
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def strings(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        s = [f"w{int(i) // 50}{_SUF[int(i) % 5]}" for i in ids]
        h = np.fromiter((_zlib.crc32(x.encode()) for x in s), np.int64, len(s))
        return pa.table({"_sb": hash_bucket(h, nb), "s": pa.array(s, pa.string())})

    def neighborhoods(df: pd.DataFrame) -> pd.DataFrame:
        # per DISTINCT key (vocabulary-sized, not corpus-sized): the key
        # itself plus all ≤depth-deletion variants
        out_v, out_s = [], []
        for s in df["s"].drop_duplicates():
            vs = {s}
            for r in range(1, min(depth, len(s)) + 1):
                for pos in _comb(range(len(s)), r):
                    t = s
                    for p in reversed(pos):
                        t = t[:p] + t[p + 1 :]
                    vs.add(t)
            out_v.extend(vs)
            out_s.extend([s] * len(vs))
        return pd.DataFrame({"v": out_v, "s": out_s})

    def vbucket(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False)
        h = np.fromiter((_zlib.crc32(x.encode()) for x in v), np.int64, len(v))
        return t.append_column("_vb", hash_bucket(h, nb))

    def cand_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["v", "s"]).sort_values(["v", "s"], kind="mergesort")
        v = d["v"].to_numpy()
        s = d["s"].to_numpy()
        m = len(d)
        if m == 0:
            return pd.DataFrame({"sa": [], "sb": []})
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = v[1:] != v[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, m))
        run_end = np.repeat(starts + counts, counts)
        reps = run_end - np.arange(m) - 1
        total = int(reps.sum())
        if total == 0:
            return pd.DataFrame({"sa": [], "sb": []})
        lefts = np.repeat(np.arange(m), reps)
        block_base = np.repeat(np.cumsum(reps) - reps, reps)
        rights = lefts + 1 + (np.arange(total) - block_base)
        sa, sb = s[lefts], s[rights]
        keep = sa != sb
        return pd.DataFrame({"sa": sa[keep], "sb": sb[keep]}).drop_duplicates()

    def pbucket(t: pa.Table) -> pa.Table:
        sa = t["sa"].to_numpy(zero_copy_only=False)
        sb = t["sb"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (_zlib.crc32((a + "\x00" + b).encode()) for a, b in zip(sa, sb)),
            np.int64,
            len(sa),
        )
        return t.append_column("_pb", hash_bucket(h, nb))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["sa", "sb"])
        keep = [
            _ed_le(a, b, depth) for a, b in zip(d["sa"], d["sb"])
        ]  # candidate set is tiny (shared-variant collisions only)
        return d.loc[keep, ["sa", "sb"]]

    return (
        docs.map_batches(strings, batch_format="pyarrow")
        .groupby("_sb")
        .map_groups(neighborhoods, batch_format="pandas")
        .map_batches(vbucket, batch_format="pyarrow")
        .groupby("_vb")
        .map_groups(cand_pairs, batch_format="pandas")
        .map_batches(pbucket, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(verify, batch_format="pandas")
    )


def q_typo_pairs(sf_dir: str):
    """ED≤1 fuzzy self-join (see :func:`_typo_pairs_impl`)."""
    return _typo_pairs_impl(sf_dir, depth=1)


def q_typo_pairs2(sf_dir: str):
    """ED≤2 fuzzy self-join: same FastSS shape as typo_pairs with
    depth-2 deletion neighborhoods (1 + L + C(L,2) variants per
    distinct key) and an exact DP verify — catches transposition-like
    double edits ('ab'↔'ba') and two-character indels the ED≤1 join
    misses."""
    return _typo_pairs_impl(sf_dir, depth=2)


_TYPO_PAIRS_SQL = """
WITH s AS (
  SELECT DISTINCT 'w' || CAST(doc_id // 50 AS VARCHAR) ||
         CASE doc_id % 5 WHEN 1 THEN 'a' WHEN 2 THEN 'b'
                         WHEN 3 THEN 'ab' WHEN 4 THEN 'ba' ELSE '' END AS s
  FROM documents),
nbr AS (
  SELECT s, unnest(list_append(
           list_transform(range(1, len(s) + 1),
                          i -> substr(s, 1, i - 1) || substr(s, i + 1)), s)) AS v
  FROM s),
cand AS (
  SELECT DISTINCT least(a.s, b.s) AS sa, greatest(a.s, b.s) AS sb
  FROM nbr a JOIN nbr b ON a.v = b.v AND a.s <> b.s)
SELECT sa, sb FROM cand WHERE levenshtein(sa, sb) <= 1
"""


_TYPO_PAIRS2_SQL = """
WITH s AS (
  SELECT DISTINCT 'w' || CAST(doc_id // 50 AS VARCHAR) ||
         CASE doc_id % 5 WHEN 1 THEN 'a' WHEN 2 THEN 'b'
                         WHEN 3 THEN 'ab' WHEN 4 THEN 'ba' ELSE '' END AS s
  FROM documents),
d1 AS (
  SELECT s, unnest(list_append(
           list_transform(range(1, len(s) + 1),
                          i -> substr(s, 1, i - 1) || substr(s, i + 1)), s)) AS v
  FROM s),
nbr AS (
  SELECT DISTINCT s, unnest(list_append(
           list_transform(range(1, len(v) + 1),
                          i -> substr(v, 1, i - 1) || substr(v, i + 1)), v)) AS v
  FROM d1),
cand AS (
  SELECT DISTINCT least(a.s, b.s) AS sa, greatest(a.s, b.s) AS sb
  FROM nbr a JOIN nbr b ON a.v = b.v AND a.s <> b.s)
SELECT sa, sb FROM cand WHERE levenshtein(sa, sb) <= 2
"""


def q_approx_distinct_by_key(sf_dir: str):
    """Per-group distinct count via per-group KMV sketches — the
    grouped form of approx_distinct: each batch emits one serialized
    kilobyte sketch PER GROUP, the driver merges per group. Groups are
    the event types (bounded); per-group distinct users (≤ a few
    thousand here) sit far below k=4096, where KMV is EXACT by
    construction — asserted, so scale growth fails loudly instead of
    silently going approximate against an exact oracle."""
    from commons_codec_ray.stages.sketches import KMVSketch

    K = 4096
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            }
        )
        keys, blobs = [], []
        for et, g in df.groupby("event_type"):
            keys.append(et)
            blobs.append(KMVSketch(K).update(g["user_id"].to_numpy()).serialize())
        return pa.table(
            {"event_type": pa.array(keys, pa.string()), "sk": pa.array(blobs, pa.binary())}
        )

    parts = events.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for et, g in parts.groupby("event_type"):
        acc = KMVSketch(K)
        for blob in g["sk"]:
            acc = acc.merge(KMVSketch.deserialize(K, blob))
        assert len(acc.values) < K, "approx_distinct_by_key: sketch saturated, estimate no longer exact"
        rows.append((et, int(acc.estimate())))
    rows.sort()
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_users_est": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


_APPROX_DISTINCT_BY_KEY_SQL = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users_est
FROM events GROUP BY event_type
"""


def q_funnel_windowed(sf_dir: str):
    """Time-constrained funnel: per user, purchases within ONE HOUR of
    the first click — the MATCH_RECOGNIZE-ish sequential pattern with a
    window bound (plain funnel has no time constraint). One
    user-bucketed exchange of the two event types; inside the bucket a
    merge + boolean mask counts in-window purchases for every user at
    once."""
    nb = adaptive_buckets()
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def bucketed(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t["event_type"], value_set=pa.array(["click", "purchase"]))
        t = t.filter(mask)
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    HOUR = np.timedelta64(3600, "s")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        clicks = df[df["event_type"] == "click"]
        if clicks.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "n_purchases_1h": pd.Series([], dtype="int64")})
        t0 = clicks.groupby("user_id")["ts"].min().rename("t0")
        p = df[df["event_type"] == "purchase"].merge(t0, on="user_id")
        inw = p[(p["ts"] >= p["t0"]) & (p["ts"] <= p["t0"] + HOUR)]
        cnt = inw.groupby("user_id").size()
        out = t0.reset_index()[["user_id"]]
        out["n_purchases_1h"] = (
            out["user_id"].map(cnt).fillna(0).astype(np.int64)
        )
        return out

    return (
        events.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_FUNNEL_WINDOWED_SQL = """
WITH c AS (SELECT user_id, min(ts) AS t0 FROM events
           WHERE event_type = 'click' GROUP BY user_id)
SELECT c.user_id, CAST(count(e.event_id) AS BIGINT) AS n_purchases_1h
FROM c LEFT JOIN events e
  ON e.user_id = c.user_id AND e.event_type = 'purchase'
 AND e.ts >= c.t0 AND e.ts <= c.t0 + INTERVAL 1 HOUR
GROUP BY c.user_id
"""


_ASOF_JOIN_SQL = """
WITH l AS (SELECT event_id, user_id, ts FROM events WHERE event_id % 2 = 0),
r0 AS (SELECT event_id AS r_event_id, user_id, ts, value AS r_value
       FROM events WHERE event_id % 2 = 1),
r AS (SELECT * FROM r0
      QUALIFY row_number() OVER (PARTITION BY user_id, ts ORDER BY r_event_id DESC) = 1)
SELECT l.event_id, r.r_event_id AS matched_event_id, r.r_value AS matched_value
FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
"""


def q_attribution(sf_dir: str):
    """Last-touch marketing attribution with a lookback window: each
    purchase is credited to the user's LATEST preceding click, but only
    if it happened within 7 days — older touches expire to NULL. The
    time-BOUNDED as-of shape (cf. q_asof_join, unbounded): distributed
    backward as-of join by user (one tagged-union exchange, per-bucket
    merge_asof, deterministic (user, ts) right-dedupe mirrored by the
    oracle's QUALIFY), then a vectorized window mask on the µs gap.
    Output: (event_id, click_id, gap_us), both nullable."""
    from commons_codec_ray.stages.joins import asof_join

    WINDOW_US = 7 * 86400 * 1_000_000

    purchases = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )

    def clicks(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["event_type"], "click"))
        return pa.table(
            {
                "user_id": f["user_id"],
                "ts": f["ts"],
                "click_id": f["event_id"],
                "click_ts": f["ts"],
            }
        )

    touches = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    ).map_batches(clicks, batch_format="pyarrow")

    joined = asof_join(
        purchases, touches, on="ts", by="user_id", right_columns=["click_id", "click_ts"]
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        click_ts = pd.to_datetime(df["click_ts"]).to_numpy("datetime64[us]")
        has = ~pd.isna(df["click_ts"]).to_numpy()
        gap = np.where(has, ts - click_ts.astype(np.int64), 0)
        ok = has & (gap <= WINDOW_US)
        click_id = df["click_id"].astype("Int64").mask(~ok)
        gap_out = pd.array(gap, dtype="Int64")
        gap_out[~ok] = pd.NA
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
                "click_id": pa.array(click_id, pa.int64()),
                "gap_us": pa.array(gap_out, pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


_ATTRIBUTION_SQL = """
WITH clicks AS (
  SELECT user_id, ts, event_id AS click_id
  FROM events WHERE event_type = 'click'
  QUALIFY row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id DESC) = 1),
p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
j AS (
  SELECT p.event_id, p.ts, c.click_id, c.ts AS click_ts
  FROM p ASOF LEFT JOIN clicks c ON p.user_id = c.user_id AND p.ts >= c.ts)
SELECT event_id,
       CASE WHEN click_ts IS NOT NULL
                 AND date_diff('microsecond', click_ts, ts) <= 604800000000
            THEN click_id END AS click_id,
       CASE WHEN click_ts IS NOT NULL
                 AND date_diff('microsecond', click_ts, ts) <= 604800000000
            THEN date_diff('microsecond', click_ts, ts) END AS gap_us
FROM j
"""


def q_range_join(sf_dir: str):
    """Banded range join + aggregate (stages/joins.py): for each even
    event, count + sum of odd events of the same user within the
    trailing 10 minutes — searchsorted band per bucket, never the
    O(n·matches) pair blowup."""
    from commons_codec_ray.stages.joins import range_join_agg

    left = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    ).map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)),
        batch_format="pyarrow",
    )
    right = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    ).map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 1)).select(
            ["user_id", "ts", "value"]
        ),
        batch_format="pyarrow",
    )
    joined = range_join_agg(
        left, right, on="ts", by="user_id", value="value", window_us=600_000_000
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(dtype="int64")),
                "n_in_range": pa.array(df["n_in_range"].to_numpy(dtype="int64")),
                "sum_in_range": pa.array(
                    duckdb_round(df["sum_in_range"].to_numpy(dtype="float64"), 2)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


_RANGE_JOIN_SQL = """
WITH l AS (SELECT event_id, user_id, ts FROM events WHERE event_id % 2 = 0),
r AS (SELECT user_id, ts, value FROM events WHERE event_id % 2 = 1)
SELECT l.event_id,
       CAST(count(r.user_id) AS BIGINT) AS n_in_range,
       round(coalesce(sum(r.value), 0), 2) AS sum_in_range
FROM l LEFT JOIN r
  ON l.user_id = r.user_id AND r.ts BETWEEN l.ts - INTERVAL 10 MINUTE AND l.ts
GROUP BY l.event_id
"""


def q_hash_join(sf_dir: str):
    """Shuffled large×large INNER equi-join (stages/joins.py hash_join):
    lineitem ⋈ orders on orderkey — both sides scale with the data, so
    neither can be broadcast; one tagged-union shuffle on hash(key),
    vectorized pandas merge per bucket."""
    from commons_codec_ray.stages.joins import hash_join

    left = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    ).map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)).select(
            ["l_orderkey", "l_linenumber"]
        ),
        batch_format="pyarrow",
    )
    right = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_custkey", "o_totalprice"]),
        batch_format="pyarrow",
    )
    joined = hash_join(left, right, on="l_orderkey", how="inner")

    def finish(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": pa.array(df["l_orderkey"].to_numpy(dtype="int64")),
                "l_linenumber": pa.array(df["l_linenumber"].to_numpy(dtype="int64")),
                "o_custkey": pa.array(
                    pd.array(df["o_custkey"], dtype="Int64"), type=pa.int64()
                ),
                "o_totalprice": pa.array(
                    duckdb_round(df["o_totalprice"].to_numpy(dtype="float64"), 2)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


_HASH_JOIN_SQL = """
SELECT l.l_orderkey,
       CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
       o.o_custkey,
       round(o.o_totalprice, 2) AS o_totalprice
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_quantity > 45
"""


def q_hash_join_left(sf_dir: str):
    """Shuffled LEFT equi-join with genuine misses and one-to-many
    fan-out: every customer against their URGENT orders — customers with
    none surface once with typed nulls (Int64 keys stay integers through
    the null fill, not NaN-degraded float64)."""
    from commons_codec_ray.stages.joins import hash_join

    left = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )
    right = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderpriority"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        .select(["o_custkey", "o_orderkey", "o_totalprice"])
        .rename_columns(["c_custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow",
    )
    joined = hash_join(
        left, right, on="c_custkey", how="left",
        right_columns=["o_orderkey", "o_totalprice"],
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pa.array(df["c_custkey"].to_numpy(dtype="int64")),
                "c_acctbal": pa.array(
                    duckdb_round(df["c_acctbal"].to_numpy(dtype="float64"), 2)
                ),
                "o_orderkey": pa.array(
                    pd.array(df["o_orderkey"], dtype="Int64"), type=pa.int64()
                ),
                "o_totalprice": pa.array(
                    duckdb_round(df["o_totalprice"].to_numpy(dtype="float64"), 2)
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


_HASH_JOIN_LEFT_SQL = """
SELECT c.c_custkey,
       round(c.c_acctbal, 2) AS c_acctbal,
       o.o_orderkey,
       round(o.o_totalprice, 2) AS o_totalprice
FROM customer c LEFT JOIN orders o
  ON c.c_custkey = o.o_custkey AND o.o_orderpriority = '1-URGENT'
"""


def q_window_rank(sf_dir: str):
    """Partitioned ranking analytics — row_number / rank / dense_rank
    over (PARTITION BY o_custkey ORDER BY price_k DESC): rows co-locate
    by hash(partition key) in ONE coarse-bucket shuffle (adaptive bucket
    count), then each bucket ranks ALL its partitions with vectorized
    pandas groupby.rank / cumcount — no per-partition Python loop. The
    order key is an integer (floor(price/1000)) so ties are real and
    rank vs dense_rank semantics are actually exercised; row_number gets
    a deterministic (price_k DESC, o_orderkey) total order."""
    from commons_codec_ray.util import adaptive_buckets, hash_bucket

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        keys = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price_k = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) / 1000.0
        ).astype(np.int64)
        return pa.table(
            {
                "_wb": hash_bucket(keys, num_buckets),
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "price_k": pa.array(price_k),
            }
        )

    def rank_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            ["o_custkey", "price_k", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        by_key = df.groupby("o_custkey", sort=False)
        rn = by_key.cumcount().to_numpy() + 1
        rank = by_key["price_k"].rank(method="min", ascending=False)
        dense = by_key["price_k"].rank(method="dense", ascending=False)
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"].to_numpy(dtype="int64")),
                "o_custkey": pa.array(df["o_custkey"].to_numpy(dtype="int64")),
                "price_k": pa.array(df["price_k"].to_numpy(dtype="int64")),
                "row_number": pa.array(rn.astype(np.int64)),
                "rank": pa.array(rank.to_numpy().astype(np.int64)),
                "dense_rank": pa.array(dense.to_numpy().astype(np.int64)),
            }
        )

    return (
        orders.map_batches(tag, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(rank_bucket, batch_format="pandas")
    )


_WINDOW_RANK_SQL = """
WITH o AS (
  SELECT o_orderkey, o_custkey,
         CAST(floor(o_totalprice / 1000) AS BIGINT) AS price_k
  FROM orders
)
SELECT o_orderkey, o_custkey, price_k,
       CAST(row_number() OVER w2 AS BIGINT) AS row_number,
       CAST(rank() OVER w AS BIGINT) AS rank,
       CAST(dense_rank() OVER w AS BIGINT) AS dense_rank
FROM o
WINDOW w AS (PARTITION BY o_custkey ORDER BY price_k DESC),
       w2 AS (PARTITION BY o_custkey ORDER BY price_k DESC, o_orderkey)
"""


def q_window_lag(sf_dir: str):
    """Per-key ordered window navigation + running aggregates: lag(value),
    row_number and a running sum per user in (ts, event_id) order. Same
    one-shuffle coarse-bucket contract as window_rank; inside a bucket
    everything is pandas shift / cumcount / cumsum over the sorted frame
    — running sums accumulate in the SAME left-to-right order as the SQL
    window, so the float path stays deterministic (rounded to 2 to
    absorb the last-ulp association differences of DuckDB's windowed
    sum)."""
    from commons_codec_ray.util import adaptive_buckets, hash_bucket

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        keys = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_wb", hash_bucket(keys, num_buckets))

    def lag_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        prev = g["value"].shift(1)
        nth = g.cumcount().to_numpy() + 1
        run = g["value"].cumsum()
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(dtype="int64")),
                "user_id": pa.array(df["user_id"].to_numpy(dtype="int64")),
                "prev_value": pa.array(prev.to_numpy(dtype="float64")),
                "nth_event": pa.array(nth.astype(np.int64)),
                "running_sum": pa.array(
                    duckdb_round(run.to_numpy(dtype="float64"), 2)
                ),
            }
        )

    return (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(lag_bucket, batch_format="pandas")
    )


_WINDOW_LAG_SQL = """
SELECT event_id, user_id,
       lag(value) OVER w AS prev_value,
       CAST(row_number() OVER w AS BIGINT) AS nth_event,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING), 2) AS running_sum
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_pivot_event_types(sf_dir: str):
    """Pivot / crosstab: one row per user, one count column per event
    type. Per-batch vectorized crosstab partials (the combiner — each
    batch emits at most |users-in-batch| rows), then ONE small groupby
    sum over already-collapsed partials; the fact stream itself is never
    shuffled row-by-row."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    TYPES = ["click", "error", "purchase", "signup", "view"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for c in TYPES:
            if c not in ct.columns:
                ct[c] = 0
        ct = ct[TYPES].reset_index()
        ct.columns = ["user_id", *(f"n_{c}" for c in TYPES)]
        return ct

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{c}", alias_name=f"n_{c}") for c in TYPES])
    )

    def finish(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"].cast(pa.int64())}
        for c in TYPES:
            cols[f"n_{c}"] = t[f"n_{c}"].cast(pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


_PIVOT_SQL = """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view
FROM events GROUP BY user_id
"""


def q_quantile_filter(sf_dir: str):
    """Quantile-thresholded filtering — the training-data shape "keep
    documents above the corpus P90": pass 1 computes the EXACT P90 of
    n_chars with the histogram-refinement operator (kilobyte exchanges,
    integer column so no float risk), pass 2 filters the stream against
    the broadcast threshold. No sort, no materialization."""
    from commons_codec_ray.stages.quantiles import distributed_quantiles

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    p90 = distributed_quantiles(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["n_chars"]),
        "n_chars",
        [0.9],
    )[0]

    return docs.map_batches(
        lambda t, _thr=p90: t.filter(pc.greater(t["n_chars"], _thr)),
        batch_format="pyarrow",
    )


_QUANTILE_FILTER_SQL = """
SELECT doc_id, source, n_chars FROM documents
WHERE n_chars > (SELECT quantile_disc(n_chars, 0.9) FROM documents)
"""


def q_distinct_event_types(sf_dir: str):
    """Distinct values of a column (ds.unique — a shuffle)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pa.table({"event_type": pa.array(vals, pa.string())})


_DISTINCT_SQL = "SELECT DISTINCT event_type FROM events"


def q_approx_distinct(sf_dir: str):
    """Mergeable-sketch distinct count (KMV): one sketch per batch,
    kilobyte merge — the 100 TB pattern for COUNT(DISTINCT). k=16384
    exceeds the distinct-user count at every test sf (15 × sf × 1000),
    so the estimate is EXACT here and the SQL oracle can verify it; at
    real scale the same pipeline estimates within ~1/sqrt(k)."""
    from commons_codec_ray.stages.sketches import approx_distinct

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    est = approx_distinct(ds, "user_id", k=16384)
    return pa.table({"n_users": pa.array([int(round(est))], pa.int64())})


_APPROX_DISTINCT_SQL = (
    "SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_users FROM events"
)


def q_hash_sample(sf_dir: str):
    """Deterministic content-hash sampling — the train/eval-split
    pattern at 100 TB: membership is a pure function of the row (md5
    bucket), so the split is reproducible across runs, cluster sizes and
    re-crawls, needs no coordination or stored row list, and any engine
    (here: DuckDB) can re-derive it exactly. Keeps bucket 0 of 10."""
    import hashlib as _hashlib

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pick(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        keep = np.fromiter(
            (
                int(_hashlib.md5((x or "").encode("utf-8")).hexdigest()[:8], 16) % 10 == 0
                for x in texts
            ),
            dtype=bool,
            count=len(texts),
        )
        return t.filter(pa.array(keep))

    return docs.map_batches(pick, batch_format="pyarrow")


_HASH_SAMPLE_SQL = """
SELECT doc_id, text FROM documents
WHERE CAST(('0x' || substr(md5(coalesce(text, '')), 1, 8)) AS UBIGINT) % 10 = 0
"""


def q_dataset_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split with per-(split,
    source) accounting (row count + doc_id checksum) — the split audit
    table a data card publishes. Membership is a pure content hash
    (same md5-bucket rule as hash_sample), so the split needs no
    coordination, survives re-crawls and cluster resizes, and any
    engine re-derives it exactly. One linear pass: per-batch partial
    (split, source) count/sum groupbys (vectorized), kilobytes of
    mergeable partials reduced on the driver — never a shuffle of the
    corpus itself."""
    import hashlib as _hashlib

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        h = np.fromiter(
            (
                int(_hashlib.md5((x or "").encode("utf-8")).hexdigest()[:8], 16) % 100
                for x in texts
            ),
            dtype=np.int64,
            count=len(texts),
        )
        split = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
        df = pd.DataFrame(
            {
                "split": split,
                "source": t["source"].to_numpy(zero_copy_only=False),
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["split", "source"], as_index=False).agg(
            n_docs=("doc_id", "size"), id_sum=("doc_id", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby(["split", "source"], as_index=False)[["n_docs", "id_sum"]]
        .sum()
        .sort_values(["split", "source"])
    )
    return pa.table(
        {
            "split": pa.array(out["split"], pa.string()),
            "source": pa.array(out["source"], pa.string()),
            "n_docs": pa.array(out["n_docs"].to_numpy(np.int64), pa.int64()),
            "id_sum": pa.array(out["id_sum"].to_numpy(np.int64), pa.int64()),
        }
    )


_DATASET_SPLIT_SQL = """
WITH b AS (
  SELECT source, doc_id,
         CAST(('0x' || substr(md5(coalesce(text, '')), 1, 8)) AS UBIGINT) % 100 AS h
  FROM documents)
SELECT CASE WHEN h < 80 THEN 'train' WHEN h < 90 THEN 'val' ELSE 'test' END AS split,
       source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(doc_id) AS BIGINT) AS id_sum
FROM b GROUP BY 1, 2
"""


def q_source_entropy(sf_dir: str):
    """Per-source Shannon entropy (bits) of the language distribution —
    the mix-diversity signal of pretraining data cards. Counts reduce
    from vectorized per-batch partials (the scalable part — entropy
    itself is arithmetic on a #sources×#langs table); the float is
    rounded through util.duckdb_round so the byte-level compare holds."""
    from commons_codec_ray.util import duckdb_round

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": t["source"].to_numpy(zero_copy_only=False),
                "lang": t["lang"].to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby(["source", "lang"], as_index=False).size()
        return pa.Table.from_pandas(out.rename(columns={"size": "c"}), preserve_index=False)

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    counts = parts.groupby(["source", "lang"], as_index=False)["c"].sum()
    rows = []
    for source, g in counts.groupby("source"):
        c = g["c"].to_numpy(np.float64)
        p = c / c.sum()
        rows.append((source, float(-(p * np.log2(p)).sum())))
    rows.sort()
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "entropy_bits": pa.array(
                duckdb_round([r[1] for r in rows], 4), pa.float64()
            ),
        }
    )


_SOURCE_ENTROPY_SQL = """
WITH c AS (SELECT source, lang, CAST(count(*) AS DOUBLE) AS c
           FROM documents GROUP BY source, lang),
n AS (SELECT source, sum(c) AS n FROM c GROUP BY source)
SELECT c.source,
       round(-sum((c.c / n.n) * log2(c.c / n.n)), 4) AS entropy_bits
FROM c JOIN n USING (source) GROUP BY c.source
"""


def q_kl_per_user(sf_dir: str):
    """Per-user Shannon entropy and KL divergence vs the GLOBAL
    event-type distribution — the per-group distribution-drift signal
    (data-mix skew, bot detection). Scale shape: vectorized per-batch
    (user, type) count partials, materialized once and reused twice —
    a kilobyte driver reduce for the global type distribution
    (|types| rows, broadcast), and ONE user-bucketed exchange for the
    per-user math (no per-user state on the driver; user cardinality
    can be unbounded). Per-user terms sum in sorted type order from
    exact integer counts, so the floats are layout-independent; rounded
    through duckdb_round(4) to match the oracle byte-for-byte."""
    import ray

    nb = adaptive_buckets()
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby(["user_id", "event_type"], as_index=False).size()
        return pa.Table.from_pandas(
            out.rename(columns={"size": "c"}), preserve_index=False
        )

    parts = events.map_batches(partial, batch_format="pyarrow").materialize()

    # global type distribution: tiny (|types| rows), driver-reduced
    gl = parts.to_pandas().groupby("event_type")["c"].sum()
    gref = ray.put((gl / gl.sum()).to_dict())

    def bucketed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(gref)
        c = df.groupby(["user_id", "event_type"], as_index=False)["c"].sum()
        c = c.sort_values(["user_id", "event_type"], kind="mergesort")
        user = c["user_id"].to_numpy(np.int64)
        cnt = c["c"].to_numpy(np.float64)
        qv = c["event_type"].map(q).to_numpy(np.float64)
        new = np.empty(len(c), dtype=bool)
        new[0:1] = True
        new[1:] = user[1:] != user[:-1]
        starts = np.flatnonzero(new)
        n = np.add.reduceat(cnt, starts)
        p = cnt / np.repeat(n, np.diff(np.append(starts, len(c))))
        ent = -np.add.reduceat(p * np.log2(p), starts)
        kl = np.add.reduceat(p * np.log2(p / qv), starts)
        return pd.DataFrame(
            {
                "user_id": user[starts],
                "n_events": n.astype(np.int64),
                "entropy_bits": duckdb_round(ent, 4),
                "kl_bits": duckdb_round(kl, 4),
            }
        )

    return (
        parts.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_bucket, batch_format="pandas")
    )


_KL_PER_USER_SQL = """
WITH c AS (SELECT user_id, event_type, CAST(count(*) AS DOUBLE) AS c
           FROM events GROUP BY user_id, event_type),
n AS (SELECT user_id, sum(c) AS n FROM c GROUP BY user_id),
g AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS gc FROM events GROUP BY event_type),
t AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM events)
SELECT c.user_id, CAST(n.n AS BIGINT) AS n_events,
       round(-sum((c.c / n.n) * log2(c.c / n.n)), 4) AS entropy_bits,
       round(sum((c.c / n.n) * log2((c.c / n.n) / (g.gc / t.t))), 4) AS kl_bits
FROM c JOIN n USING (user_id) JOIN g USING (event_type) CROSS JOIN t
GROUP BY c.user_id, n.n
"""


def q_weighted_sample(sf_dir: str):
    """Deterministic WEIGHTED sampling (priority / sequential-Poisson
    style): every doc gets an integer priority ``md5(doc_id) //
    n_chars`` — heavier docs get proportionally smaller priorities —
    and the sample is the global k smallest, ties → doc_id. The
    importance-sampling primitive of pretraining mixes, with the same
    pure-function-of-the-row reproducibility contract as
    ``hash_sample``: no coordination, any engine re-derives the exact
    sample. Scale shape: per-batch local top-k, driver merge of
    k·num_batches candidate rows — no shuffle, no sort."""
    import hashlib as _hashlib

    K = 100
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.fromiter(
            (
                int(_hashlib.md5(str(int(i)).encode()).hexdigest()[:15], 16)
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        pr = h // w
        order = np.lexsort((ids, pr))[:K]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_chars": pa.array(w[order], pa.int64()),
                "pr": pa.array(pr[order], pa.int64()),
            }
        )

    cand = docs.map_batches(topk, batch_format="pyarrow").to_pandas()
    final = cand.sort_values(["pr", "doc_id"], kind="mergesort").head(K)
    return pa.Table.from_pandas(final, preserve_index=False)


_WEIGHTED_SAMPLE_SQL = """
SELECT doc_id, n_chars,
       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15)) AS BIGINT)
         // n_chars AS pr
FROM documents
ORDER BY pr, doc_id LIMIT 100
"""


def q_stratified_sample(sf_dir: str):
    """Per-group hash sampling: each ``source`` stratum keeps its own
    deterministic fraction (web 10%, wiki 50%, everything else 20%) —
    the domain-rebalancing sampler of pretraining mixes. Membership is a
    pure function of the row (md5 bucket of text, same rule as
    q_hash_sample), so the mix is reproducible across runs and cluster
    sizes and the oracle re-derives it exactly; no coordination, no
    stored row lists."""
    import hashlib as _hashlib

    rates = {"src0": 10, "src1": 50}  # percent; default 20
    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )

    def pick(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        srcs = t["source"].to_pylist()
        keep = np.fromiter(
            (
                int(_hashlib.md5((x or "").encode("utf-8")).hexdigest()[:8], 16) % 100
                < rates.get(s, 20)
                for x, s in zip(texts, srcs)
            ),
            dtype=bool,
            count=len(texts),
        )
        return t.filter(pa.array(keep))

    return docs.map_batches(pick, batch_format="pyarrow")


_STRATIFIED_SAMPLE_SQL = """
SELECT doc_id, source, text FROM documents
WHERE CAST(('0x' || substr(md5(coalesce(text, '')), 1, 8)) AS UBIGINT) % 100
      < CASE source WHEN 'src0' THEN 10 WHEN 'src1' THEN 50 ELSE 20 END
"""


def q_heavy_hitters(sf_dir: str):
    """Top-10 most frequent users via a mergeable Misra–Gries sketch
    (one sketch per batch, kilobyte merge — the 100 TB pattern for
    top-k-frequent). Sketch capacity exceeds the distinct-user count at
    every test sf, so counts are exact and the oracle verifies them."""
    from commons_codec_ray.stages.sketches import heavy_hitters

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    top = heavy_hitters(ds, "user_id", n=10, k=4096, require_exact=True)
    return pa.table(
        {
            "user_id": pa.array([v for v, _ in top], pa.int64()),
            "n_events": pa.array([c for _, c in top], pa.int64()),
        }
    )


_HEAVY_HITTERS_SQL = """
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 10
"""


def q_multimodal_features(sf_dir: str):
    """Actor-pool feature extraction over a deterministic synthetic
    multimodal table (binary payload column; codec stubbed — see
    stages/multimodal.py). ``feat_crc`` (first 4 sha256 bytes of each
    payload) is re-derived by the SQL oracle, verifying the distributed
    hash computation end-to-end."""
    from commons_codec_ray.stages.multimodal import (
        feature_extract,
        synthesize_multimodal_table,
    )

    tbl = synthesize_multimodal_table(512)
    ds = rd.from_arrow(tbl)
    return feature_extract(ds).select_columns(
        ["item_id", "modality", "resized_w", "resized_h", "feat_crc"]
    )


_MULTIMODAL_SQL = """
SELECT CAST(i AS BIGINT) AS item_id,
       CASE CAST(i % 3 AS INT) WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END AS modality,
       224 AS resized_w, 224 AS resized_h,
       CAST(CAST(('0x' || substr(sha256(repeat('payload-' || lpad(CAST(i AS VARCHAR), 8, '0'),
                                        CAST(1 + i % 5 AS INT))), 1, 8)) AS UBIGINT) AS BIGINT) AS feat_crc
FROM range(512) t(i)
"""


def q_audio_windows(sf_dir: str):
    """Audio-modality plumbing (stages/multimodal.py AudioWindowStage):
    deterministic fake-PCM payloads (int16 LE, s_k = (doc_id·31 +
    k·17) % 201 − 100, 1600 samples/doc) ride a REAL Arrow binary
    column into an actor-pool stage that frombuffer-decodes and
    explodes fixed 400-sample windows with exact integer energies. The
    oracle re-derives the same windows arithmetically — binary column
    in, typed explode out, no driver bytes."""
    from commons_codec_ray.stages.multimodal import AudioWindowStage

    N_SAMPLES, WINDOW = 1600, 400
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.arange(N_SAMPLES, dtype=np.int64)
        # (n_docs, N_SAMPLES) int16 PCM, one buffer copy into binary rows
        pcm = ((ids[:, None] * 31 + k[None, :] * 17) % 201 - 100).astype("<i2")
        width = N_SAMPLES * 2
        buf = pa.py_buffer(np.ascontiguousarray(pcm).tobytes())
        payload = pa.Array.from_buffers(pa.binary(width), len(ids), [None, buf]).cast(
            pa.binary()
        )
        return pa.table({"doc_id": pa.array(ids), "payload": payload})

    return docs.map_batches(synth, batch_format="pyarrow").map_batches(
        AudioWindowStage,
        fn_constructor_kwargs={"window": WINDOW},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=pool_size(2),
    )


_AUDIO_WINDOWS_SQL = """
SELECT d.doc_id,
       CAST(k // 400 AS BIGINT) AS widx,
       CAST(sum(((d.doc_id * 31 + k * 17) % 201 - 100)
                * ((d.doc_id * 31 + k * 17) % 201 - 100)) AS BIGINT) AS energy
FROM documents d, range(0, 1600) t(k)
GROUP BY d.doc_id, k // 400
"""


def q_frame_sample(sf_dir: str):
    """Video frame sampling (stages/multimodal.py FrameSampleStage):
    the EXPLODE-shaped multimodal stage — every video row fans out to
    one row per 200 ms frame via vectorized repeat/arange arithmetic in
    an actor-pool stage with small batches. The per-frame identity
    (first 4 sha256 bytes of payload ‖ '#' ‖ ms) is re-derived by the
    SQL oracle; the real ffmpeg-style decode slot is the injected
    ``extract_frame_fn`` (tested with a fake in tests)."""
    from commons_codec_ray.stages.multimodal import (
        frame_sample,
        synthesize_multimodal_table,
    )

    ds = rd.from_arrow(synthesize_multimodal_table(512))
    return frame_sample(ds, frame_interval_ms=200)


_FRAME_SAMPLE_SQL = """
SELECT CAST(i AS BIGINT) AS item_id, CAST(ms AS INTEGER) AS frame_ms,
       CAST(CAST(('0x' || substr(sha256(
           repeat('payload-' || lpad(CAST(i AS VARCHAR), 8, '0'), CAST(1 + i % 5 AS INT))
           || '#' || CAST(ms AS VARCHAR)), 1, 8)) AS UBIGINT) AS BIGINT) AS frame_crc
FROM range(512) t(i), (SELECT unnest([0, 200, 400, 600, 800]) AS ms) m
WHERE i % 3 = 2
"""


def q_minhash_dedup(sf_dir: str):
    """MinHash+LSH near-dup pairs over the planted disjoint-vocabulary
    corpus: the pair set is exactly {(i, i+1e6)} with estimated Jaccard
    1.0 — verified hash-exact by the SQL oracle."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    return dedup_stage.jaccard_pairs(corpus, threshold=0.7)


_MINHASH_DEDUP_SQL = """
SELECT doc_id AS id_a, doc_id + 1000000 AS id_b, 1.0 AS jaccard FROM documents
"""


def q_minhash_dedup_narrow(sf_dir: str):
    """Byte-lean transport variant of q_minhash_dedup
    (stages/dedup.py:jaccard_pairs_narrow): ids-only candidate explode,
    then each signature moves twice keyed by doc id instead of riding
    all 8 band replicas — ≈3× fewer shuffle bytes, the
    bandwidth-bound-cluster path. Output contract (and oracle) is
    IDENTICAL to the wide path."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    return dedup_stage.jaccard_pairs_narrow(corpus, threshold=0.7)

# Golden-value oracle for the pure text functions (simhash / fingerprint /
# langid / quality): tools/make_golden.py precomputes them with INDEPENDENT
# scalar reimplementations over every driver sf's texts; the oracle joins
# documents against the golden parquet on md5(text). This catches any
# vectorization / distribution bug in the Ray path (a shared-code bug would
# need to be reproduced independently in the scalar generator to slip by).
_GOLDEN_PARQUET = "/root/repo/golden/text_golden.parquet"


def q_simhash_dedup(sf_dir: str):
    """SimHash as a DEDUP OPERATOR: planted corpus (originals + case
    copies) → 64-bit simhash → keep the min-id doc per hash value (the
    cheap near-dup pre-filter pass). Lowercased tokenization makes each
    copy's simhash identical to its source's; disjoint vocabularies make
    cross-original collisions vanishingly unlikely (deterministic —
    verified at every test sf) ⇒ survivors are exactly the originals."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    hashed = corpus.map_batches(
        dedup_stage.SimHasher, batch_format="pyarrow", concurrency=pool_size(2)
    )

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_b", pc.bit_wise_and(t["simhash"], 255))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values("doc_id")
            .drop_duplicates(subset=["simhash"], keep="first")[["doc_id"]]
        )

    return (
        hashed.map_batches(bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(keep_first, batch_format="pandas")
    )


_SIMHASH_DEDUP_SQL = "SELECT doc_id FROM documents"


def q_simhash(sf_dir: str):
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(dedup_stage.SimHasher, batch_format="pyarrow", concurrency=pool_size(2))
    return out.select_columns(["doc_id", "simhash"])


_SIMHASH_SQL = f"""
SELECT d.doc_id, g.simhash
FROM documents d JOIN read_parquet('{_GOLDEN_PARQUET}') g ON md5(coalesce(d.text, '')) = g.text_md5
"""


def q_langid(sf_dir: str):
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    out = docs.map_batches(text_stage.LangId, batch_format="pyarrow", concurrency=pool_size(2))
    return out.select_columns(["doc_id", "lang", "lang_pred"])


_LANGID_SQL = f"""
SELECT d.doc_id, d.lang, g.lang_pred
FROM documents d JOIN read_parquet('{_GOLDEN_PARQUET}') g ON md5(coalesce(d.text, '')) = g.text_md5
"""


def q_quality(sf_dir: str):
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(text_stage.QualityScorer, batch_format="pyarrow", concurrency=pool_size(2))
    return out.select_columns(["doc_id", "stop_ratio", "mean_tok_len", "punct_ratio", "quality"])


_QUALITY_SQL = f"""
SELECT d.doc_id, g.stop_ratio, g.mean_tok_len, g.punct_ratio, g.quality
FROM documents d JOIN read_parquet('{_GOLDEN_PARQUET}') g ON md5(coalesce(d.text, '')) = g.text_md5
"""


def q_fingerprint(sf_dir: str):
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(text_stage.Fingerprinter, batch_format="pyarrow", concurrency=pool_size(2))
    return out.select_columns(["doc_id", "fingerprint"])


_FINGERPRINT_SQL = f"""
SELECT d.doc_id, g.fingerprint
FROM documents d JOIN read_parquet('{_GOLDEN_PARQUET}') g ON md5(coalesce(d.text, '')) = g.text_md5
"""


def _recall_gate(sf_dir: str, approx_fn, bound: float) -> pa.Table:
    """Approximate-ANN correctness gate: recall vs the (oracle-exact)
    brute-force top-k, per query. Returns (query_id, recall_ok) so the
    driver's hash compare becomes a hard semantic bound — SQL cannot
    re-derive the approximate result itself, but it CAN assert the bound.

    Bounds are set from measured recall across all test sfs; the
    synthetic embeddings are near-random (top-10 cosine ≈ 0.3 vs bulk
    σ ≈ 0.13), the known hard regime for hyperplane LSH, hence the
    modest LSH bound."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = sim_stage.ann_topk(ds, query_ids=[0, 1, 2], k=10, round_to=None).to_pandas()
    approx = approx_fn(ds).to_pandas()
    rows = []
    for q in (0, 1, 2):
        e = set(exact.loc[exact.query_id == q, "vec_id"])
        a = set(approx.loc[approx.query_id == q, "vec_id"])
        rows.append({"query_id": q, "recall_ok": len(a & e) / max(len(e), 1) >= bound})
    return pa.Table.from_pylist(rows)


_RECALL_GATE_SQL = "SELECT unnest([0, 1, 2]) AS query_id, true AS recall_ok"


def q_lsh_topk(sf_dir: str):
    """Multi-table multi-probe LSH ANN, gated on recall ≥ 0.2 vs brute
    force (measured 0.3–0.7 on the near-random test embeddings at a
    ~14% scan fraction; see _recall_gate)."""
    return _recall_gate(
        sf_dir,
        lambda ds: sim_stage.lsh_topk(ds, query_ids=[0, 1, 2], k=10, bits=8, nprobe=6, tables=6),
        bound=0.2,
    )


def q_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN (k-means coarse quantizer on a sample, probe the
    nearest clusters), gated on recall ≥ 0.5 vs brute force (measured
    0.6–1.0 across test sfs)."""
    return _recall_gate(
        sf_dir,
        lambda ds: sim_stage.ivf_topk(ds, query_ids=[0, 1, 2], k=10, n_clusters=16, nprobe=8),
        bound=0.5,
    )


def q_ngram_jaccard(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (stages/dedup.py
    ``exact_jaccard_pairs``): LSH banding generates candidates, but the
    verify step computes the TRUE shingle-set Jaccard (|A∩B|/|A∪B|), not
    the minhash estimate. On the planted disjoint-vocab corpus the pair
    set is exactly {(d, d+10^6, 1.0)} — cross-document Jaccard is 0 and
    every identical copy is caught by every band."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_planted_corpus, batch_format="pyarrow")
    pairs = dedup_stage.exact_jaccard_pairs(corpus, threshold=0.7)
    return pairs.select_columns(["id_a", "id_b", "jaccard"])


_NGRAM_JACCARD_SQL = """
SELECT doc_id AS id_a, doc_id + 1000000 AS id_b, 1.0 AS jaccard FROM documents
"""


def q_cap_per_source(sf_dir: str):
    """Per-key top-N capping (stages/grouptop.py): keep at most 2
    documents per source, largest n_chars first — the at-most-N-docs-
    per-domain operator of pretraining pipelines. One hash-bucket
    shuffle, vectorized rank inside the bucket, deterministic (n_chars
    desc, doc_id asc) boundary mirrored by the oracle's window order."""
    from commons_codec_ray.stages.grouptop import top_n_per_key

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return top_n_per_key(docs, key="source", order_by="n_chars", n=2, tiebreak="doc_id")


_CAP_PER_SOURCE_SQL = """
SELECT doc_id, source, n_chars FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 2
"""


def _europe_custkeys(sf_dir: str) -> np.ndarray:
    """Shared dimension-chain resolution for the broadcast join family:
    region(EUROPE) → nations → customer keys, sorted. The region/nation
    side is driver-read (tiny); customers stream through a filter."""
    import pyarrow.parquet as _pq

    region = _pq.read_table(f"{sf_dir}/region.parquet")
    nation = _pq.read_table(f"{sf_dir}/nation.parquet")
    rkeys = region.filter(pc.equal(region["r_name"], "EUROPE"))["r_regionkey"]
    nkeys = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkeys.combine_chunks()))[
        "n_nationkey"
    ].combine_chunks()
    custkeys = (
        rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
        .map_batches(
            lambda t: t.filter(pc.is_in(t["c_nationkey"], value_set=nkeys)).select(
                ["c_custkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["c_custkey"]
        .to_numpy()
    )
    return np.sort(custkeys)


def _orders_by_europe(sf_dir: str, member: bool):
    """(o_orderkey, o_totalprice) of the orders whose customer is
    (``member``) or is not in the EUROPE region. The dimension chain
    (region → nation → customer keys) is resolved driver-side on the
    tiny side and broadcast ONCE via ``ray.put``; the fact table streams
    through an ``is_in`` filter in plain map tasks — no shuffle and no
    actor pool (a pool of two filter actors took 2.1-2.9 s at sf0.01
    and sf0.1, the task map 0.5-0.8 s; PERF.md "Retired twin
    engines")."""
    import ray as _ray

    keys_ref = _ray.put(pa.array(_europe_custkeys(sf_dir)))

    def keep(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t["o_custkey"], value_set=_ray.get(keys_ref))
        return t.filter(hit if member else pc.invert(hit)).select(
            ["o_orderkey", "o_totalprice"]
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return orders.map_batches(keep, batch_format="pyarrow")


def q_semi_join(sf_dir: str):
    """Broadcast semi-join: orders whose customer sits in the EUROPE
    region (see :func:`_orders_by_europe`)."""
    return _orders_by_europe(sf_dir, member=True)


_SEMI_JOIN_SQL = """
SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey IN (
  SELECT c_custkey FROM customer c
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  JOIN region r ON n.n_regionkey = r.r_regionkey
  WHERE r.r_name = 'EUROPE')
"""


def q_anti_join(sf_dir: str):
    """Broadcast anti-join: orders whose customer is NOT in EUROPE —
    q_semi_join's filter inverted (the delete-list / exclusion-list
    pattern)."""
    return _orders_by_europe(sf_dir, member=False)


_ANTI_JOIN_SQL = """
SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey NOT IN (
  SELECT c_custkey FROM customer c
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  JOIN region r ON n.n_regionkey = r.r_regionkey
  WHERE r.r_name = 'EUROPE')
"""


def _token_df_topk(sf_dir: str, k: int, num_buckets: int = 256) -> pd.DataFrame:
    """Exact top-k corpus tokens by document frequency: per-batch
    (doc, token)-distinct partial counts (the combiner), then ONE
    shuffle keyed on an INT64 token-hash bucket (string sort-shuffle
    keys measured 2-3× slower than int keys — same integer-exchange
    rule as the CDC shuffle). All partials of a token land in the same
    bucket, so each bucket computes exact totals AND its own top-k; the
    driver reduces ≤ k·num_buckets bucket winners. Tokenization is a
    single-space split to match the SQL oracles' ``string_split(text,
    ' ')`` exactly. Ties rank (df DESC, token ASC). Shared by
    q_vocab_df and q_oov_rate (q_tfidf keeps its full-vocabulary
    variant — no top-k cut there)."""
    B = num_buckets
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial_df(t: pa.Table) -> pa.Table:
        la = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        flat = la.flatten()
        toks = flat.to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(t.num_rows), np.diff(offsets))
        df = pd.DataFrame({"d": doc_of, "token": toks})
        df = df[df["token"] != ""].drop_duplicates()
        counts = df["token"].value_counts()
        tok_arr = counts.index.to_numpy()
        bucket = (pd.util.hash_array(tok_arr) & np.uint64(B - 1)).astype(np.int64)
        return pa.table(
            {
                "_vb": pa.array(bucket),
                "token": pa.array(tok_arr, pa.string()),
                "df_part": pa.array(counts.to_numpy(), pa.int64()),
            }
        )

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        totals = g.groupby("token", sort=False)["df_part"].sum().reset_index(name="df")
        return totals.sort_values(
            ["df", "token"], ascending=[False, True], kind="mergesort"
        ).head(k)

    top = (
        docs.map_batches(partial_df, batch_format="pyarrow")
        .groupby("_vb")
        .map_groups(bucket_top, batch_format="pandas")
        .to_pandas()
    )
    return top.sort_values(
        ["df", "token"], ascending=[False, True], kind="mergesort"
    ).head(k)


def q_vocab_df(sf_dir: str):
    """Corpus vocabulary with document frequency, top-100 — see
    :func:`_token_df_topk` for the exchange shape."""
    top = _token_df_topk(sf_dir, 100)
    return pa.table(
        {
            "token": pa.array(top["token"].to_numpy(), pa.string()),
            "df": pa.array(top["df"].to_numpy(dtype="int64")),
        }
    )


_VOCAB_DF_SQL = """
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS df FROM toks
WHERE token <> '' GROUP BY token ORDER BY df DESC, token LIMIT 100
"""


def q_tfidf(sf_dir: str):
    """Per-document top-K terms by tf-idf. Two passes over the corpus:

    pass 1 — EXACT document frequency for the whole vocabulary (the
    vocab_df integer-keyed exchange, without the top-100 cut); the
    resulting token→df table is the classic small side (vocab ≪ corpus)
    and is broadcast ONCE via ray.put, read per actor in __init__.

    pass 2 — per-batch term frequency (each document is one row, so tf
    never crosses batches = no shuffle), df lookup against the broadcast
    vocab, and a vectorized per-doc top-K.

    Scoring uses idf = 1/df in FIXED-POINT (score = tf·10⁹ // df,
    int64): monotone in tf/df, and all-integer so engine and SQL oracle
    rank and compare bit-exactly — no libm log() whose last ulp could
    differ across engines. tf·10⁹ stays far below 2⁶³ for any real
    document. Ties rank deterministically by (score DESC, token ASC)."""
    import ray as _ray

    B = 256
    SCALE = 1_000_000_000
    K = 5
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _doc_tokens(t: pa.Table) -> pd.DataFrame:
        la = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        toks = la.flatten().to_numpy(zero_copy_only=False)
        doc_of = np.repeat(
            t["doc_id"].to_numpy(zero_copy_only=False), np.diff(offsets)
        )
        df = pd.DataFrame({"doc_id": doc_of, "token": toks})
        return df[df["token"] != ""]

    def partial_df(t: pa.Table) -> pa.Table:
        counts = _doc_tokens(t).drop_duplicates()["token"].value_counts()
        tok_arr = counts.index.to_numpy()
        bucket = (pd.util.hash_array(tok_arr) & np.uint64(B - 1)).astype(np.int64)
        return pa.table(
            {
                "_vb": pa.array(bucket),
                "token": pa.array(tok_arr, pa.string()),
                "df_part": pa.array(counts.to_numpy(), pa.int64()),
            }
        )

    def bucket_totals(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("token", sort=False)["df_part"].sum().reset_index(name="df")

    vocab = (
        docs.map_batches(partial_df, batch_format="pyarrow")
        .groupby("_vb")
        .map_groups(bucket_totals, batch_format="pandas")
        .to_pandas()  # vocab-sized, not corpus-sized
    )
    df_ref = _ray.put(vocab.set_index("token")["df"])

    class ScoreTopK:
        def __init__(self):
            self.df = _ray.get(df_ref)  # once per actor

        def __call__(self, t: pa.Table) -> pa.Table:
            toks = _doc_tokens(t)
            tf = (
                toks.groupby(["doc_id", "token"], sort=False)
                .size()
                .reset_index(name="tf")
            )
            dfv = self.df.reindex(tf["token"].to_numpy()).to_numpy()
            score = (tf["tf"].to_numpy() * np.int64(SCALE)) // dfv
            out = pd.DataFrame(
                {
                    "doc_id": tf["doc_id"].to_numpy(),
                    "token": tf["token"].to_numpy(),
                    "tf": tf["tf"].to_numpy().astype(np.int64),
                    "df": dfv.astype(np.int64),
                    "score": score.astype(np.int64),
                }
            ).sort_values(
                ["doc_id", "score", "token"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            out["rank"] = out.groupby("doc_id", sort=False).cumcount() + 1
            out = out[out["rank"] <= K]
            return pa.Table.from_pandas(
                out[["doc_id", "rank", "token", "tf", "df", "score"]],
                preserve_index=False,
            )

    return docs.map_batches(ScoreTopK, batch_format="pyarrow", concurrency=pool_size(4))


_TFIDF_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE token <> '' GROUP BY doc_id, token
), dfreq AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks WHERE token <> '' GROUP BY token
), scored AS (
  SELECT tf.doc_id, tf.token, tf.tf, dfreq.df,
         tf.tf * 1000000000 // dfreq.df AS score
  FROM tf JOIN dfreq USING (token)
)
SELECT doc_id, CAST(rnk AS BIGINT) AS rank, token, tf, df, score
FROM (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, token) AS rnk
      FROM scored)
WHERE rnk <= 5
"""


def q_quantiles(sf_dir: str):
    """Distributed EXACT quantiles (stages/quantiles.py): iterative
    histogram refinement — kilobyte count vectors per pass, no global
    sort, no sampling — matching DuckDB's ``quantile_disc`` rank
    semantics bit-exactly."""
    from commons_codec_ray.stages.quantiles import distributed_quantiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    qs = [0.5, 0.9, 0.99]
    vals = distributed_quantiles(ds, "value", qs)
    return pa.table(
        {"q": pa.array(qs, pa.float64()), "value": pa.array(vals, pa.float64())}
    )


_QUANTILES_SQL = """
SELECT 0.5 AS q, quantile_disc(value, 0.5) AS value FROM events
UNION ALL SELECT 0.9, quantile_disc(value, 0.9) FROM events
UNION ALL SELECT 0.99, quantile_disc(value, 0.99) FROM events
"""


def q_quantiles_cont(sf_dir: str):
    """Distributed INTERPOLATED quantiles (quantile_cont semantics):
    same histogram-refinement exchange as the discrete path, selecting
    BOTH bracketing order statistics in one refinement and lerping with
    the exact double expression DuckDB uses (bit-exact oracle compare,
    no rounding)."""
    from commons_codec_ray.stages.quantiles import distributed_quantiles_cont

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    qs = [0.25, 0.5, 0.95]
    vals = distributed_quantiles_cont(ds, "value", qs)
    return pa.table(
        {"q": pa.array(qs, pa.float64()), "value": pa.array(vals, pa.float64())}
    )


_QUANTILES_CONT_SQL = """
SELECT 0.25 AS q, quantile_cont(value, 0.25) AS value FROM events
UNION ALL SELECT 0.5, quantile_cont(value, 0.5) FROM events
UNION ALL SELECT 0.95, quantile_cont(value, 0.95) FROM events
"""


def q_approx_quantiles_by_key(sf_dir: str):
    """Per-KEY approximate quantiles via the shuffle-free mergeable
    uniform-histogram sketch (stages/quantiles.py
    ``approx_quantiles_by_key``): two linear passes — per-key min/max/n
    partials reduced and broadcast, then sparse per-(key, bucket) count
    partials merged into a K×256 matrix. The estimator (bucket upper
    edge at rank ceil(q·n)) is evaluated in a fixed double-precision
    operation order the SQL oracle replicates bit-exactly; error is
    bounded by (hi−lo)/256 per key. The exact one-shuffle path is
    ``median_per_user``; this is the sketch path for when the fact
    table is too large to exchange."""
    from commons_codec_ray.stages.quantiles import approx_quantiles_by_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return approx_quantiles_by_key(ds, "user_id", "value", qs=[0.5, 0.9])


_APPROX_QUANTILES_BY_KEY_SQL = """
WITH stats AS (
  SELECT user_id, min(value) AS lo, max(value) AS hi, count(*) AS n
  FROM events GROUP BY user_id),
b AS (
  SELECT e.user_id,
         CAST(least(255.0, greatest(0.0,
             floor(((e.value - s.lo) * 256.0) / (s.hi - s.lo)))) AS BIGINT) AS bucket
  FROM events e JOIN stats s USING (user_id) WHERE s.hi > s.lo),
counts AS (SELECT user_id, bucket, count(*) AS c FROM b GROUP BY user_id, bucket),
cum AS (
  SELECT user_id, bucket,
         sum(c) OVER (PARTITION BY user_id ORDER BY bucket) AS cum
  FROM counts),
pick AS (
  SELECT c.user_id,
         min(CASE WHEN c.cum >= ceil(0.5 * s.n) THEN c.bucket END) AS b50,
         min(CASE WHEN c.cum >= ceil(0.9 * s.n) THEN c.bucket END) AS b90
  FROM cum c JOIN stats s USING (user_id) GROUP BY c.user_id)
SELECT s.user_id,
       CASE WHEN s.hi > s.lo
            THEN s.lo + ((p.b50 + 1) * (s.hi - s.lo)) / 256.0 ELSE s.lo END AS p50_est,
       CASE WHEN s.hi > s.lo
            THEN s.lo + ((p.b90 + 1) * (s.hi - s.lo)) / 256.0 ELSE s.lo END AS p90_est
FROM stats s LEFT JOIN pick p USING (user_id)
"""


def q_quantiles_per_key_sketch(sf_dir: str):
    """Per-key quantiles via the broadcast-FREE mergeable rank sketch
    (stages/quantiles.py ``rank_sketch_quantiles_per_key``): per-batch
    equi-depth compression to ≤ m weighted order statistics, ONE
    bucketed exchange of kilobyte partials, weighted merge per key.
    Survives unbounded key cardinality (nothing per-key is ever
    collected or broadcast). At every test shape each key's per-batch
    count stays ≤ m, so the sketch degenerates to EXACT quantile_disc
    and the oracle compares exactly; the forced-compression rank-error
    bound is covered by `tests/test_new_operators.py`."""
    from commons_codec_ray.stages.quantiles import rank_sketch_quantiles_per_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return rank_sketch_quantiles_per_key(ds, "user_id", "value", qs=[0.5, 0.9])


_QUANTILES_PER_KEY_SKETCH_SQL = """
SELECT user_id, quantile_disc(value, 0.5) AS p50_est,
       quantile_disc(value, 0.9) AS p90_est
FROM events GROUP BY user_id
"""


def q_cdc_change_feed(sf_dir: str):
    """CDC OUTPUT stream (change feed): replay in two epochs with
    ``emit_changes=True`` and return epoch 2's row-level feed —
    insert/update classified against the epoch-1 lake state, deletes
    carrying the BEFORE image, stale ops and deletes of absent keys
    suppressed. The downstream-consumer / incremental-view-maintenance
    surface of the engine (stages/applier.py ``change_feed``). The SQL
    oracle re-derives the identical feed from the event mapping with the
    same lsn-boundary split."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    lake = _tempfile.mkdtemp(prefix="ccr_changefeed_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16, emit_changes=True))
        for epoch, part in enumerate((e1, e2)):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        feed = pipe.read_changes(epoch=1)
        return pa.Table.from_pandas(
            feed.to_pandas(), preserve_index=False
        ).select(["change", "conv_id", "turn_idx", "role", "text", "tool", "ts", "lsn"])
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_CHANGE_FEED_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
boundary AS (SELECT CAST(count(*) // 2 AS BIGINT) AS b FROM events),
state1 AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops WHERE lsn < (SELECT b FROM boundary)) WHERE rn = 1 AND op = 1),
ops2 AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops WHERE lsn >= (SELECT b FROM boundary)) WHERE rn = 1)
SELECT CASE WHEN o.op = 1 AND s.conv_id IS NULL THEN 'insert'
            WHEN o.op = 1 THEN 'update' ELSE 'delete' END AS change,
       o.conv_id, o.turn_idx,
       CASE WHEN o.op = 1 THEN o.role ELSE s.role END AS role,
       CASE WHEN o.op = 1 THEN o.text ELSE s.text END AS text,
       CASE WHEN o.op = 1 THEN o.tool ELSE s.tool END AS tool,
       CASE WHEN o.op = 1 THEN o.ts ELSE s.ts END AS ts,
       o.lsn
FROM ops2 o LEFT JOIN state1 s ON o.conv_id = s.conv_id AND o.turn_idx = s.turn_idx
WHERE NOT (o.op = 0 AND s.conv_id IS NULL)
"""


# the alert oracle wraps the change-feed oracle as a derived table
# (DuckDB allows a WITH inside a parenthesized subquery)
_CDC_ALERTS_SQL = f"""
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_changes,
       CAST(sum(CASE WHEN change = 'delete' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_deletes,
       CAST(max(lsn) AS BIGINT) AS last_lsn
FROM ({_CDC_CHANGE_FEED_SQL}) feed
GROUP BY conv_id HAVING count(*) >= 6
"""


def q_cdc_ivm(sf_dir: str):
    """Incremental view maintenance over the change feed: a
    turns-per-conversation view maintained from insert(+1)/delete(−1)
    feed rows alone — never recomputed from the lake — across a
    three-epoch replay. Distributed consumption: the feed Datasets
    stream through a map_batches signed-count stage into ONE groupby-sum.
    The oracle recomputes the view from scratch on the final state; the
    maintained view must match it exactly."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    env = EventsToEnvelopes(duplicates=True)(events)
    parts = [
        env.filter(pc.less(env["lsn"], n // 3)),
        env.filter(
            pc.and_(pc.greater_equal(env["lsn"], n // 3), pc.less(env["lsn"], 2 * n // 3))
        ),
        env.filter(pc.greater_equal(env["lsn"], 2 * n // 3)),
    ]
    lake = _tempfile.mkdtemp(prefix="ccr_ivm_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16, emit_changes=True))
        for epoch, part in enumerate(parts):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        feed = pipe.read_changes()  # all epochs

        def signed(t: pa.Table) -> pa.Table:
            ch = t["change"].combine_chunks()
            sign = pc.case_when(
                pc.make_struct(pc.equal(ch, "insert"), pc.equal(ch, "delete")),
                pa.scalar(1, pa.int64()),
                pa.scalar(-1, pa.int64()),
                pa.scalar(0, pa.int64()),
            )
            return pa.table({"conv_id": t["conv_id"], "delta": sign})

        view = (
            feed.map_batches(signed, batch_format="pyarrow")
            .groupby("conv_id")
            .aggregate(Sum("delta", alias_name="n_turns"))
        ).map_batches(
            lambda t: t.filter(pc.greater(t["n_turns"], 0)), batch_format="pyarrow"
        )
        out = view.to_pandas()
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"].to_numpy(), pa.string()),
                "n_turns": pa.array(out["n_turns"].to_numpy(dtype="int64")),
            }
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_IVM_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_id AS lsn
  FROM events),
final AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns FROM final GROUP BY conv_id
"""


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(priority, status) without re-scanning per level:
    per-batch partial aggregates (combiner) → ONE small groupby to the
    finest level, then the coarser levels (priority, grand total) are
    derived from the finest AGGREGATE rows — a few dozen rows — never
    from the data again. Measures are count and max (exactly
    re-aggregable under any association; a float SUM derived from
    partials could differ from the oracle's by an ulp)."""
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "pri": t["o_orderpriority"],
                    "st": t["o_orderstatus"],
                    "price": t["o_totalprice"],
                }
            )
            .group_by(["pri", "st"])
            .aggregate([("price", "count"), ("price", "max")])
        )

    finest = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["pri", "st"])
        .aggregate(
            Sum("price_count", alias_name="n_orders"),
            Max("price_max", alias_name="max_price"),
        )
        .to_pandas()
    )
    lvl1 = (
        finest.groupby("pri", as_index=False)
        .agg(n_orders=("n_orders", "sum"), max_price=("max_price", "max"))
        .assign(st=None)
    )
    lvl0 = pd.DataFrame(
        {
            "pri": [None],
            "st": [None],
            "n_orders": [finest["n_orders"].sum()],
            "max_price": [finest["max_price"].max()],
        }
    )
    out = pd.concat([finest, lvl1, lvl0], ignore_index=True)
    return pa.table(
        {
            "o_orderpriority": pa.array(out["pri"].tolist(), pa.string()),
            "o_orderstatus": pa.array(out["st"].tolist(), pa.string()),
            "n_orders": pa.array(out["n_orders"].to_numpy(dtype="int64")),
            "max_price": pa.array(out["max_price"].to_numpy(dtype="float64")),
        }
    )


_ROLLUP_SQL = """
SELECT o_orderpriority, o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       max(o_totalprice) AS max_price
FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
"""


def q_pii_scrub(sf_dir: str):
    """PII scrubbing over the document corpus: email-like tokens →
    [EMAIL], long digit runs (phone-ish) → [NUMBER] — vectorized Arrow
    RE2 kernels (pc.replace_substring_regex), no Python per row. Arrow
    and DuckDB both compile RE2, so the oracle's regexp_replace(...,'g')
    is byte-identical by construction. A count of changed docs rides
    along so the query proves the kernels actually fired."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    email = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
    number = r"\d{6,}"

    def scrub(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        clean = pc.replace_substring_regex(txt, pattern=email, replacement="[EMAIL]")
        clean = pc.replace_substring_regex(clean, pattern=number, replacement="[NUMBER]")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "clean_text": clean,
                "changed": pc.not_equal(clean, txt),
            }
        )

    def plant(t: pa.Table) -> pa.Table:
        # the synthetic corpus carries no PII-shaped tokens, so the
        # kernels would be vacuous; plant deterministic email/phone
        # strings on doc_id % 5 == 0 in a SQL-re-derivable way (the
        # oracle plants the identical text) — proving the scrub fires
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        planted = [
            f"{x} contact user{i}@example.com tel 55512{i:05d}" if i % 5 == 0 else x
            for i, x in zip(ids, texts)
        ]
        return pa.table({"doc_id": t["doc_id"], "text": pa.array(planted, pa.string())})

    return docs.map_batches(plant, batch_format="pyarrow").map_batches(
        scrub, batch_format="pyarrow"
    )


_PII_SCRUB_SQL = r"""
WITH planted AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0
              THEN text || ' contact user' || CAST(doc_id AS VARCHAR)
                   || '@example.com tel 55512' || lpad(CAST(doc_id AS VARCHAR), 5, '0')
              ELSE text END AS text
  FROM documents)
SELECT doc_id,
       regexp_replace(regexp_replace(text,
           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
           '\d{6,}', '[NUMBER]', 'g') AS clean_text,
       regexp_replace(regexp_replace(text,
           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
           '\d{6,}', '[NUMBER]', 'g') <> text AS changed
FROM planted
"""


def q_approx_quantiles(sf_dir: str):
    """ONE-pass mergeable quantile sketch (stages/sketches.py
    QuantileSketch: stratified weighted order statistics, kilobyte
    merge), gated like the ANN queries: a second distributed pass
    computes each estimate's TRUE rank, and the gate asserts the rank
    error ≤ 2% of n (theory: ≤ n/2k ≈ 0.05% at k=1024). The exact
    2-3-pass alternative is the `quantiles` query."""
    from commons_codec_ray.stages.sketches import approx_quantiles

    qs = [0.5, 0.9, 0.99]
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    est = approx_quantiles(ds, "value", qs, k=1024)
    n = ds.count()

    def rank_counts(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {f"c{i}": pa.array([int((v <= est[i]).sum())], pa.int64()) for i in range(len(qs))}
        )

    parts = ds.map_batches(rank_counts, batch_format="pyarrow").to_pandas().sum()
    ok = [abs(int(parts[f"c{i}"]) - qs[i] * n) <= 0.02 * n for i in range(len(qs))]
    return pa.table(
        {"q": pa.array(qs, pa.float64()), "rank_ok": pa.array(ok, pa.bool_())}
    )


_APPROX_QUANTILES_SQL = "SELECT unnest([0.5, 0.9, 0.99]) AS q, true AS rank_ok"


def q_median_per_user(sf_dir: str):
    """Per-key discrete median (stages/grouptop.py quantile_per_key):
    one hash-bucket shuffle + vectorized per-run rank indexing —
    GROUP BY + quantile_disc without per-key UDF calls."""
    from commons_codec_ray.stages.grouptop import quantile_per_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return quantile_per_key(ds, key="user_id", column="value", q=0.5, out_name="median_value")


_MEDIAN_PER_USER_SQL = """
SELECT user_id, quantile_disc(value, 0.5) AS median_value FROM events GROUP BY user_id
"""


def q_revenue_by_nation(sf_dir: str):
    """TPC-H-Q5-style multi-way join: lineitem JOIN orders (large x
    large -> shuffled hash join, stages/joins.py) JOIN customer JOIN
    nation (dimension side -> built once on the driver, broadcast via
    ray.put). Per-item revenue and the custkey->nation projection are
    applied BEFORE the shuffle so the exchange moves exactly two int64
    + one float64 column; the nation-level aggregate is pre-combined
    per batch so the final groupby is 25 rows."""
    import pyarrow.parquet as _pq

    import ray as _ray
    from commons_codec_ray.stages.joins import hash_join

    # dimension side: plain driver-local parquet reads (kilobytes) — a
    # Ray job per dim table would cost more in scheduling than the scan
    cust = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = _pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    lookup = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    ).set_index("c_custkey")["n_name"]
    lookup_ref = _ray.put(lookup)

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def item_revenue(t: pa.Table) -> pa.Table:
        # within-batch combiner: revenue/count per orderkey BEFORE the
        # join shuffle — lineitem:orders is ~4:1, so the exchange moves
        # ~4x fewer rows and the joined sum is unchanged (sum of partials)
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        g = (
            pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})
            .group_by("l_orderkey")
            .aggregate([("revenue", "sum"), ("revenue", "count")])
        )
        return g.rename_columns(["l_orderkey", "revenue", "n_items"])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(
        lambda t: pa.table(
            {"l_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]}
        ),
        batch_format="pyarrow",
    )

    joined = hash_join(
        line.map_batches(item_revenue, batch_format="pyarrow"), orders, on="l_orderkey"
    )

    def nation_partial(df: pd.DataFrame) -> pd.DataFrame:
        # plain task (no actor pool): the broadcast lookup is fetched
        # zero-copy-ish from plasma per task — at one partial per joined
        # bucket that's far cheaper than spawning a dedicated actor pool
        lookup_local = _ray.get(lookup_ref)
        proj = pd.DataFrame(
            {
                "nation": df["o_custkey"].map(lookup_local),
                "revenue": df["revenue"],
                "n_items": df["n_items"],
            }
        )
        g = proj.groupby("nation", sort=False).agg(
            n_items=("n_items", "sum"), rev=("revenue", "sum")
        )
        return g.reset_index()

    agg = joined.map_batches(nation_partial, batch_format="pandas").groupby(
        "nation"
    ).aggregate(
        Sum("n_items", alias_name="n_items"), Sum("rev", alias_name="rev")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nation": t["nation"],
                "n_items": t["n_items"].cast(pa.int64()),
                "revenue": duckdb_round(t["rev"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_REVENUE_BY_NATION_SQL = """
SELECT n.n_name AS nation,
       CAST(count(*) AS BIGINT) AS n_items,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


def q_grouped_corr(sf_dir: str):
    """Per-group bivariate statistics (corr / covar_samp / stddev_samp)
    from mergeable moment sketches (stages/stats.py): each batch reduces
    to one 7-float row per group, partials merge with Chan's
    numerically-stable parallel-variance update — the shuffle moves
    kilobytes, never the raw rows."""
    from commons_codec_ray.stages.stats import finalize_stats, grouped_moments

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    merged = grouped_moments(line, "l_returnflag", "l_quantity", "l_extendedprice")

    def finish(t: pa.Table) -> pa.Table:
        s = finalize_stats(t, "l_returnflag")
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "n": pa.array(s["n"].astype(np.int64)),
                "corr_qty_price": pa.array(duckdb_round(s["corr"], 6)),
                "covar_qty_price": pa.array(duckdb_round(s["covar"], 4)),
                "std_qty": pa.array(duckdb_round(s["sdx"], 6)),
                "std_price": pa.array(duckdb_round(s["sdy"], 4)),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


_GROUPED_CORR_SQL = """
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n,
       round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price,
       round(covar_samp(l_quantity, l_extendedprice), 4) AS covar_qty_price,
       round(stddev_samp(l_quantity), 6) AS std_qty,
       round(stddev_samp(l_extendedprice), 4) AS std_price
FROM lineitem GROUP BY 1
"""


def q_regex_extract(sf_dir: str):
    """Vectorized structured extraction: pull (key, int value) pairs out
    of the JSON-ish ``props`` string with ONE compiled RE2 kernel
    (pc.extract_regex) — no per-row Python, no JSON parse. The filter
    (value >= 90) is applied in the same batch so only matches leave the
    stage."""
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    )

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(
            t["props"].combine_chunks(), r'"(?P<k>\w+)":\s*(?P<v>\d+)'
        )
        key = pc.struct_field(m, "k")
        val = pc.cast(pc.struct_field(m, "v"), pa.int64())
        out = pa.table({"event_id": t["event_id"], "prop_key": key, "prop_val": val})
        return out.filter(pc.greater_equal(out["prop_val"], 90))

    return events.map_batches(extract, batch_format="pyarrow")


_REGEX_EXTRACT_SQL = """
SELECT event_id,
       regexp_extract(props, '"(\\w+)":\\s*(\\d+)', 1) AS prop_key,
       TRY_CAST(regexp_extract(props, '"(\\w+)":\\s*(\\d+)', 2) AS BIGINT) AS prop_val
FROM events
WHERE TRY_CAST(regexp_extract(props, '"(\\w+)":\\s*(\\d+)', 2) AS BIGINT) >= 90
"""


def q_embed_centroid(sf_dir: str):
    """Per-label embedding centroid (the vector mean every clustering /
    IVF build needs): each batch collapses to one (sum-vector, n) pair
    per label via a zero-copy ``values``-buffer reshape + np.add.reduceat
    on label-sorted rows; partial sums merge in a tiny groupby. Output
    is long-form (label, dim, centroid) so the oracle can compare
    scalars."""
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n, d = len(labels), len(col[0])
        mat = np.asarray(col.flatten(), dtype=np.float64).reshape(n, d)
        order = np.argsort(labels, kind="stable")
        sl = labels[order]
        starts = np.flatnonzero(np.r_[True, sl[1:] != sl[:-1]])
        sums = np.add.reduceat(mat[order], starts, axis=0)
        counts = np.diff(np.r_[starts, n])
        uniq = sl[starts]
        return pa.table(
            {
                "label": pa.array(uniq),
                "n": pa.array(counts.astype(np.int64)),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    def merge(df: pd.DataFrame) -> pa.Table:
        out = []
        for label, grp in df.groupby("label", sort=False):
            vs = np.sort(np.stack(grp["vsum"].to_numpy()), axis=0)
            total = vs.sum(axis=0)
            n = int(grp["n"].sum())
            cent = duckdb_round(total / n, 6)
            d = len(total)
            out.append(
                pa.table(
                    {
                        "label": pa.array(np.full(d, label, dtype=np.int64)),
                        "dim": pa.array(np.arange(d, dtype=np.int64)),
                        "centroid": pa.array(cent),
                    }
                )
            )
        return pa.concat_tables(out)

    return (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .map_groups(merge, batch_format="pandas")
    )


_EMBED_CENTROID_SQL = """
SELECT CAST(label AS BIGINT) AS label,
       CAST(pos AS BIGINT) - 1 AS dim,
       round(avg(CAST(embedding[pos] AS DOUBLE)), 6) AS centroid
FROM (
  SELECT label, embedding,
         unnest(range(1, len(embedding) + 1)) AS pos
  FROM embeddings
)
GROUP BY 1, 2
"""


def q_salted_join(sf_dir: str):
    """Orders per market segment through the shuffled hash join
    (stages/joins.py hash_join): orders ⋈ customer on custkey, then a
    per-batch partial aggregate and a keyed Sum. The name is that of a
    retired hot-key salted join, which was never faster than the plain
    one on these inputs (PERF.md "Retired twin engines")."""
    from commons_codec_ray.stages.joins import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: pa.table(
            {"c_custkey": t["o_custkey"], "o_totalprice": t["o_totalprice"]}
        ),
        batch_format="pyarrow",
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = hash_join(orders, cust, on="c_custkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", sort=False).agg(
            n_orders=("o_totalprice", "size"), total=("o_totalprice", "sum")
        )
        return g.reset_index()

    agg = joined.map_batches(partial, batch_format="pandas").groupby(
        "c_mktsegment"
    ).aggregate(
        Sum("n_orders", alias_name="n_orders"), Sum("total", alias_name="total")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "n_orders": t["n_orders"].cast(pa.int64()),
                "total_price": duckdb_round(t["total"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_SALTED_JOIN_SQL = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


# The most shard setup rows any shard-pool graph query builds per event:
# kcore_sharded's two edge families, each routed in both directions.
_GRAPH_SETUP_PER_EVENT = 4


def _graph_events(sf_dir: str):
    """``event_id`` of ``events.parquet`` for the graph queries that run
    on stages/graph.py's shard pools, in the form their pool runs best
    on. The count comes from the Parquet footer: when
    ``_GRAPH_SETUP_PER_EVENT × rows`` stays below
    :data:`~commons_codec_ray.util.DRIVER_POOL_ROWS`, the pool is one
    shard in the driver, so the events are read with pyarrow into one
    ``pa.Table`` and the whole query runs on Arrow tables in the driver,
    with no Ray Data execution (its executor start-up cost more than the
    query; PERF.md "Small graph queries skip Ray Data"). Larger files
    are a Ray Dataset of ~CPUs/2 blocks (floor 8): a spawned pool takes
    its shard count from the setup block count, and a 200-block default
    read of a small file would spawn 200 routing tasks for kilobytes of
    edges."""
    from commons_codec_ray import util

    path = f"{sf_dir}/events.parquet"
    rows = pq.read_metadata(path).num_rows
    if _GRAPH_SETUP_PER_EVENT * rows < util.DRIVER_POOL_ROWS:
        return pq.read_table(path, columns=["event_id"])
    # Above the bound a table would still run on ONE driver shard, so the
    # driver would hold the whole graph; the Dataset keeps it flat. At 1M
    # events and 4 Ray CPUs the driver's peak RSS was 317 / 486 / 391 MB
    # as a table (pagerank / kcore_sharded / link_prediction) against
    # 206 MB as this Dataset, which spawns 3 shards. It is slower there,
    # though (PERF.md "Small graph queries skip Ray Data").
    return rd.read_parquet(
        path, columns=["event_id"], override_num_blocks=max(8, pool_size(1 << 30) // 2)
    )


def q_components_sharded(sf_dir: str):
    """Connected components (stages/graph.py components_sharded), the
    ``components`` and ``components_sharded`` entries: a deterministic
    event-derived edge list (edges stay within 8-node blocks, so the
    recursive-CTE oracle's transitive closure stays bounded at every
    sf) → per-node min-reachable-id cluster labels. The symmetric
    adjacency is hash-routed to the shards ONCE; per round only label
    messages move (a delta min-label hop phase + a pointer-jump phase,
    rounds ≈ log2 of the component diameter). The input follows pool
    placement (``_graph_events``)."""
    from commons_codec_ray.stages.graph import components_sharded, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})

    pairs = map_rows(events, edges)
    return components_sharded(pairs)


_COMPONENTS_SQL = """
WITH RECURSIVE
edges AS (
  SELECT (event_id % 1200) AS a,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS b
  FROM events
),
sym AS (
  SELECT a, b FROM edges UNION SELECT b, a FROM edges
  UNION SELECT a, a FROM edges UNION SELECT b, b FROM edges
),
reach(node, r) AS (
  SELECT a, b FROM sym
  UNION
  SELECT reach.node, sym.b FROM reach JOIN sym ON reach.r = sym.a
)
SELECT CAST(node AS BIGINT) AS node, CAST(min(r) AS BIGINT) AS cluster_id
FROM reach GROUP BY node
"""


def q_mode_per_group(sf_dir: str):
    """Exact distributed MODE per group: per-batch (group, value) counts
    (the mergeable partial), one small shuffle of count rows, then an
    argmax with deterministic ties (max count, then min value)."""
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"].combine_chunks(), r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        g = (
            pa.table({"event_type": t["event_type"], "k": k})
            .group_by(["event_type", "k"])
            .aggregate([("k", "count")])
        )
        return g.rename_columns(["event_type", "k", "cnt"])

    def pick_mode(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby("k")["cnt"].sum()
        best = s.sort_index().sort_values(kind="mergesort", ascending=False)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "mode_k": [int(best.index[0])],
                "n": [int(best.iloc[0])],
            }
        )

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(pick_mode, batch_format="pandas")
    )


_MODE_PER_GROUP_SQL = """
WITH c AS (
  SELECT event_type,
         TRY_CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT) AS k,
         count(*) AS cnt
  FROM events GROUP BY 1, 2
)
SELECT event_type, k AS mode_k, CAST(cnt AS BIGINT) AS n FROM c
QUALIFY row_number() OVER (PARTITION BY event_type ORDER BY cnt DESC, k) = 1
"""


def q_string_join(sf_dir: str):
    """Shuffled hash join on a STRING key (stages/joins.py
    _key_bucket: pandas C-siphash bucketing — deterministic across
    processes): events keyed 'u-<user_id>' against a customer dim keyed
    'u-<custkey>', then per-segment partial aggregation."""
    from commons_codec_ray.stages.joins import hash_join

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    ).map_batches(
        lambda df: pa.table(
            {
                "skey": pa.array("u-" + df["user_id"].astype(str), pa.string()),
                "value": pa.array(df["value"], pa.float64()),
            }
        ),
        batch_format="pandas",
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda df: pa.table(
            {
                "skey": pa.array("u-" + df["c_custkey"].astype(str), pa.string()),
                "c_mktsegment": pa.array(df["c_mktsegment"], pa.string()),
            }
        ),
        batch_format="pandas",
    )
    joined = hash_join(events, cust, on="skey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", sort=False).agg(
            n_events=("value", "size"), sv=("value", "sum")
        )
        return g.reset_index()

    agg = joined.map_batches(partial, batch_format="pandas").groupby(
        "c_mktsegment"
    ).aggregate(Sum("n_events", alias_name="n_events"), Sum("sv", alias_name="sv"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "n_events": t["n_events"].cast(pa.int64()),
                "sum_value": duckdb_round(t["sv"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_STRING_JOIN_SQL = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(e.value), 2) AS sum_value
FROM events e
JOIN customer c
  ON 'u-' || CAST(e.user_id AS VARCHAR) = 'u-' || CAST(c.c_custkey AS VARCHAR)
GROUP BY 1
"""


def q_proto_ingest(sf_dir: str):
    """Protobuf source — varint-framed proto3 messages via the
    pure-Python wire codec (decode/proto_wire.py; public encoding
    spec), completing the in-sandbox wire trio next to BSON and Avro:
    events staged once as 8 length-prefixed .pb shards written by our
    own encoder, decoded per shard inside map_batches (unknown fields
    skipped, last-wins, defaults backfilled — the proto3 rules that
    matter on an evolving CDC bus). Same exact-cents ingest oracle as
    csv/jsonl/orc/avro."""
    from pathlib import Path

    from commons_codec_ray.decode.proto_wire import decode_frames, encode_frames

    FIELDS = {
        1: ("event_id", "int64"),
        2: ("event_type", "string"),
        3: ("value", "double"),
    }
    stage = _stage_dir("ccr_proto", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(
            f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
        )
        rows = [
            {"event_id": i, "event_type": e, "value": v}
            for i, e, v in zip(
                t["event_id"].to_pylist(),
                t["event_type"].to_pylist(),
                t["value"].to_pylist(),
            )
        ]
        n_shards = 8
        per = (len(rows) + n_shards - 1) // n_shards
        for s in range(n_shards):
            (stage / f"part-{s:02d}.pb").write_bytes(
                encode_frames(FIELDS, rows[s * per:(s + 1) * per])
            )
        done.touch()

    files = sorted(str(p) for p in Path(stage).glob("*.pb"))
    paths = rd.from_items([{"path": p} for p in files])

    def decode_shard(t: pa.Table) -> pa.Table:
        parts = []
        for p in t["path"].to_pylist():
            rows = decode_frames(FIELDS, Path(p).read_bytes())
            df = pd.DataFrame(
                {
                    "event_type": [r["event_type"] for r in rows],
                    "v100": duck_rint(
                        np.array([r["value"] for r in rows], np.float64) * 100
                    ).astype(np.int64),
                }
            )
            parts.append(
                df.groupby("event_type", as_index=False).agg(
                    sv100=("v100", "sum"), n=("v100", "size")
                )
            )
        return pa.Table.from_pandas(
            pd.concat(parts, ignore_index=True), preserve_index=False
        )

    parts = paths.map_batches(
        decode_shard, batch_format="pyarrow", batch_size=1
    ).to_pandas()
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


def _change_rows_from_events(sf_dir: str) -> list[dict]:
    """Flattened change records mirroring _CDC_REPLAY_SQL's derivation
    (shared by the Avro and protobuf envelope stagings; delete records
    carry empty-string images and ts_us = 0 — the no-union transport
    convention the decoders map back to NULLs)."""
    import pyarrow.parquet as _pq

    t = _pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "props", "value", "ts"],
    )
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    is_del = eid % 10 == 7
    ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    vals = t["value"].to_numpy(zero_copy_only=False)
    uid = t["user_id"].to_pylist()
    et = t["event_type"].to_pylist()
    props = t["props"].to_pylist()
    out = []
    for i in range(len(eid)):
        up = not is_del[i]
        has_role = up and et[i] is not None
        has_text = up and props[i] is not None
        has_tool = up and vals[i] >= 50
        out.append(
            {
                "conv_id": f"c-{uid[i]}",
                "turn_idx": int(eid[i] % 40),
                "op": 1 if up else 0,
                # presence is EXPLICIT (has_* flags) — NULL images must
                # survive the no-union transport exactly, not collapse
                # to ""; the codecs reject None loudly by design
                "role": et[i] if has_role else "",
                "has_role": has_role,
                "text": props[i] if has_text else "",
                "has_text": has_text,
                "tool": "search" if has_tool else "",
                "has_tool": has_tool,
                "ts_us": int(ts_us[i]) if up else 0,
                "has_ts": bool(up),
                "lsn": int(eid[i]),
            }
        )
    return out


def _op_table_from_change_rows(rows: list[dict], num_partitions: int) -> pa.Table:
    """Decoded change records → the engine's op-record table (the same
    schema DecodeEnvelopes emits: int8 ops, partition_ids_for +
    shuffle_keys_for, NULLed delete images)."""
    from commons_codec_ray.hashing import partition_ids_for, shuffle_keys_for

    n = len(rows)
    ops = np.fromiter((r["op"] for r in rows), np.int8, n)
    conv = pa.array([r["conv_id"] for r in rows], pa.string())
    table_arr = pa.array(["transcripts"] * n, pa.string()).dictionary_encode()
    pid = partition_ids_for(conv, num_partitions)
    ts = pa.array(
        [r["ts_us"] if r["has_ts"] else None for r in rows], pa.int64()
    ).cast(pa.timestamp("us"))
    return pa.table(
        {
            "op": pa.array(ops, pa.int8()),
            "table_name": table_arr,
            "conv_id": conv,
            "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
            "role": pa.array(
                [r["role"] if r["has_role"] else None for r in rows], pa.string()
            ),
            "text": pa.array(
                [r["text"] if r["has_text"] else None for r in rows], pa.string()
            ),
            "tool": pa.array(
                [r["tool"] if r["has_tool"] else None for r in rows], pa.string()
            ),
            "ts": ts,
            "aux": pa.array([None] * n, pa.string()),
            "lsn": pa.array([r["lsn"] for r in rows], pa.int64()),
            "source_offset": pa.array([r["lsn"] for r in rows], pa.int64()),
            "partition_id": pid,
            "shuffle_key": shuffle_keys_for(table_arr, pid),
            "error": pa.array([None] * n, pa.string()),
        }
    )


def q_cdc_replay_proto(sf_dir: str):
    """CDC replay from PROTOBUF-framed envelopes (decode/proto_wire.py,
    varint-framed proto3 messages — the other standard Kafka value
    encoding next to Avro): same flattened change records, same
    op-record construction (`_op_table_from_change_rows`), same LWW
    apply through CDCPipeline's applier pool — the final lake must be
    byte-equal to `_CDC_REPLAY_SQL` regardless of which wire format
    carried the stream. Deflate-compressed Avro, null Avro and protobuf
    now all feed the identical apply lane."""
    from pathlib import Path

    from commons_codec_ray.decode.proto_wire import decode_frames, encode_frames

    FIELDS = {
        1: ("conv_id", "string"),
        2: ("turn_idx", "int64"),
        3: ("op", "int64"),
        4: ("role", "string"),
        5: ("text", "string"),
        6: ("tool", "string"),
        7: ("ts_us", "int64"),
        8: ("lsn", "int64"),
        9: ("has_role", "bool"),
        10: ("has_text", "bool"),
        11: ("has_tool", "bool"),
        12: ("has_ts", "bool"),
    }
    cfg = PipelineConfig()
    stage = _stage_dir("ccr_proto_cdc_v2", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        stage.mkdir(parents=True, exist_ok=True)
        rows = _change_rows_from_events(sf_dir)
        n_shards = 8
        per = (len(rows) + n_shards - 1) // n_shards
        for sh in range(n_shards):
            (stage / f"part-{sh:02d}.pb").write_bytes(
                encode_frames(FIELDS, rows[sh * per:(sh + 1) * per])
            )
        done.touch()

    files = sorted(str(p) for p in Path(stage).glob("*.pb"))
    paths = rd.from_items([{"path": p} for p in files])

    def decode_shard(t: pa.Table, _np=cfg.num_partitions) -> pa.Table:
        return pa.concat_tables(
            [
                _op_table_from_change_rows(
                    decode_frames(FIELDS, Path(p).read_bytes()), _np
                )
                for p in t["path"].to_pylist()
            ]
        )

    ops_ds = paths.map_batches(decode_shard, batch_format="pyarrow", batch_size=1)
    return _apply_via_pipeline(ops_ds, cfg, decode=False)


def q_cdc_replay_avro(sf_dir: str):
    """CDC replay from AVRO-framed envelopes — the Kafka-Connect wire
    shape (value bytes = Avro record) through the REAL apply lane:
    events staged once as DEFLATE-compressed OCF shards of flattened
    change records (decode/avro_wire.py — the compressed form real
    container files ship; per-block sync markers verified, blocks
    inflated with raw zlib), each shard decoded in one map_batches
    task into the engine's op-record schema
    (`_op_table_from_change_rows`) and applied as one epoch of ops
    through CDCPipeline's applier pool. Final lake must equal the same
    `_CDC_REPLAY_SQL` oracle as the JSON-envelope replay — the codec
    swap cannot change one byte of state."""
    from pathlib import Path

    from commons_codec_ray.decode.avro_wire import read_ocf, write_ocf

    cfg = PipelineConfig()
    stage = _stage_dir("ccr_avro_cdc_v2", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        stage.mkdir(parents=True, exist_ok=True)
        schema = {
            "type": "record",
            "name": "Change",
            "fields": [
                {"name": "conv_id", "type": "string"},
                {"name": "turn_idx", "type": "long"},
                {"name": "op", "type": "long"},
                {"name": "role", "type": "string"},
                {"name": "text", "type": "string"},
                {"name": "tool", "type": "string"},
                {"name": "ts_us", "type": "long"},
                {"name": "lsn", "type": "long"},
                {"name": "has_role", "type": "boolean"},
                {"name": "has_text", "type": "boolean"},
                {"name": "has_tool", "type": "boolean"},
                {"name": "has_ts", "type": "boolean"},
            ],
        }
        rows = _change_rows_from_events(sf_dir)
        n_shards = 8
        per = (len(rows) + n_shards - 1) // n_shards
        for sh in range(n_shards):
            (stage / f"part-{sh:02d}.avro").write_bytes(
                write_ocf(schema, rows[sh * per:(sh + 1) * per], codec="deflate")
            )
        done.touch()

    files = sorted(str(p) for p in Path(stage).glob("*.avro"))
    paths = rd.from_items([{"path": p} for p in files])

    def decode_shard(t: pa.Table, _np=cfg.num_partitions) -> pa.Table:
        return pa.concat_tables(
            [
                _op_table_from_change_rows(
                    read_ocf(Path(p).read_bytes())[1], _np
                )
                for p in t["path"].to_pylist()
            ]
        )

    ops_ds = paths.map_batches(decode_shard, batch_format="pyarrow", batch_size=1)
    return _apply_via_pipeline(ops_ds, cfg, decode=False)


def q_avro_ingest(sf_dir: str):
    """Avro Object Container File source — the Kafka-CDC-ecosystem
    format, via the pure-Python OCF codec (decode/avro_wire.py, public
    wire spec; same in-sandbox treatment as the BSON codec): events
    staged once as 8 null-codec .avro shards written by our own
    encoder, listed as paths and DECODED per shard inside map_batches
    (one task per shard, sync markers verified per block, zero
    driver-side bytes). Aggregates per type on exact integer cents —
    identical oracle shape to csv/jsonl/orc ingest."""
    from pathlib import Path

    from commons_codec_ray.decode.avro_wire import read_ocf, write_ocf

    stage = _stage_dir("ccr_avro", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(
            f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
        )
        schema = {
            "type": "record",
            "name": "Event",
            "fields": [
                {"name": "event_id", "type": "long"},
                {"name": "event_type", "type": "string"},
                {"name": "value", "type": "double"},
            ],
        }
        rows = [
            {"event_id": i, "event_type": e, "value": v}
            for i, e, v in zip(
                t["event_id"].to_pylist(),
                t["event_type"].to_pylist(),
                t["value"].to_pylist(),
            )
        ]
        n_shards = 8
        per = (len(rows) + n_shards - 1) // n_shards
        for s in range(n_shards):
            blob = write_ocf(schema, rows[s * per:(s + 1) * per])
            (stage / f"part-{s:02d}.avro").write_bytes(blob)
        done.touch()

    files = sorted(str(p) for p in Path(stage).glob("*.avro"))
    paths = rd.from_items([{"path": p} for p in files])

    def decode_shard(t: pa.Table) -> pa.Table:
        parts = []
        for p in t["path"].to_pylist():
            _, rows = read_ocf(Path(p).read_bytes())
            df = pd.DataFrame(
                {
                    "event_type": [r["event_type"] for r in rows],
                    "v100": duck_rint(
                        np.array([r["value"] for r in rows], np.float64) * 100
                    ).astype(np.int64),
                }
            )
            parts.append(
                df.groupby("event_type", as_index=False).agg(
                    sv100=("v100", "sum"), n=("v100", "size")
                )
            )
        return pa.Table.from_pandas(
            pd.concat(parts, ignore_index=True), preserve_index=False
        )

    parts = paths.map_batches(
        decode_shard, batch_format="pyarrow", batch_size=1
    ).to_pandas()
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_AVRO_INGEST_SQL = """
SELECT event_type,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1
"""


def q_orc_ingest(sf_dir: str):
    """ORC source path — the custom-format pattern for anything Ray Data
    has no native reader for: events staged as ORC shards (untimed,
    cached prep), listed with ray.data.read_binary_files(paths only) and
    decoded per shard inside map_batches via pyarrow.orc — one task per
    shard, columns pruned at the ORC reader, zero driver-side bytes.
    Aggregates per type on exact integer cents like csv/jsonl ingest."""
    from pathlib import Path

    from pyarrow import orc as _orc

    stage = _stage_dir("ccr_orc", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
        n_shards = 8
        per = (t.num_rows + n_shards - 1) // n_shards
        for s in range(n_shards):
            _orc.write_table(t.slice(s * per, per), str(stage / f"part-{s:02d}.orc"))
        done.touch()

    files = sorted(str(p) for p in Path(stage).glob("*.orc"))
    paths = rd.from_items([{"path": p} for p in files])

    def decode_shard(t: pa.Table) -> pa.Table:
        parts = []
        for p in t["path"].to_pylist():
            tbl = _orc.read_table(p, columns=["event_type", "value"])
            df = pd.DataFrame(
                {
                    "event_type": tbl["event_type"].to_numpy(zero_copy_only=False),
                    "v100": duck_rint(
                        tbl["value"].to_numpy(zero_copy_only=False) * 100
                    ).astype(np.int64),
                }
            )
            parts.append(
                df.groupby("event_type", as_index=False).agg(
                    sv100=("v100", "sum"), n=("v100", "size")
                )
            )
        return pa.Table.from_pandas(pd.concat(parts, ignore_index=True), preserve_index=False)

    parts = paths.map_batches(
        decode_shard, batch_format="pyarrow", batch_size=1
    ).to_pandas()
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_ORC_INGEST_SQL = """
SELECT event_type,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY event_type
"""


def q_top_users_per_type(sf_dir: str):
    """Exact per-group top-k frequent values (top-3 most active users
    per event type, deterministic user_id tie-break): per-batch
    (type, user) count partials combine BEFORE the exchange, one
    type-keyed exchange merges partials and takes the local top-3 —
    the exchange moves O(types·users·batches) partial rows, never
    events; at unbounded user cardinality this is the same shape with
    the per-type merge spilling to a (type,user)-keyed pre-exchange."""
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["event_type", "user_id"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n_part"}), preserve_index=False
        )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "user_id"], as_index=False)["n_part"].sum()
        g = g.sort_values(["n_part", "user_id"], ascending=[False, True], kind="mergesort")
        return g.head(3).rename(columns={"n_part": "n"})

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(topk, batch_format="pandas")
    )


_TOP_USERS_SQL = """
SELECT event_type, user_id, n FROM (
  SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY count(*) DESC, user_id) AS rn
  FROM events GROUP BY event_type, user_id)
WHERE rn <= 3
"""


def q_gzip_ingest(sf_dir: str):
    """gzip-compressed NDJSON source (the most common raw-crawl drop
    format): events staged as .json.gz shards (cached prep), ingested
    with ray.data.read_json + gzip stream decompression in the read
    tasks (``arrow_open_stream_args``) — decompression scales with the
    shard count, nothing is gunzipped on the driver. Same per-type
    exact-cents aggregate as csv/jsonl/orc ingest."""
    import gzip as _gzip

    from pathlib import Path

    import orjson

    stage = _stage_dir("ccr_gzjson", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
        n_shards = 8
        per = (t.num_rows + n_shards - 1) // n_shards
        for s in range(n_shards):
            sl = t.slice(s * per, per)
            with _gzip.open(stage / f"part-{s:02d}.json.gz", "wb", compresslevel=1) as f:
                for et, v in zip(sl["event_type"].to_pylist(), sl["value"].to_pylist()):
                    f.write(orjson.dumps({"event_type": et, "value": v}))
                    f.write(b"\n")
        done.touch()

    ds = rd.read_json(
        [str(p) for p in sorted(Path(stage).glob("*.json.gz"))],
        arrow_open_stream_args={"compression": "gzip"},
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "v100": duck_rint(
                    t["value"].to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby("event_type", as_index=False).agg(
            sv100=("v100", "sum"), n=("v100", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(g["event_type"], pa.string()),
            "sv100": pa.array(g["sv100"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
        }
    )


_GZIP_INGEST_SQL = """
SELECT event_type,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sv100,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY event_type
"""


def q_jsonl_ingest(sf_dir: str):
    """Line-delimited JSON source path (S3-staging-file shape the
    reference's DMS full load consumes): events staged as NDJSON shards
    (untimed, cached prep), ingested with ray.data.read_json (pyarrow
    block parser), aggregated per type. Closes the JSON-source box with
    a real read_json pipeline rather than a parquet re-read."""
    import orjson
    from pathlib import Path

    stage = _stage_dir("ccr_jsonl", sf_dir)
    done = stage / "_DONE"
    if not done.exists():
        import pyarrow.parquet as _pq

        stage.mkdir(parents=True, exist_ok=True)
        t = _pq.read_table(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )
        n_shards = 8
        rows = t.num_rows
        per = (rows + n_shards - 1) // n_shards
        for s in range(n_shards):
            sl = t.slice(s * per, per)
            with open(stage / f"part-{s:02d}.json", "wb") as f:
                types = sl["event_type"].to_pylist()
                vals = sl["value"].to_pylist()
                for et, v in zip(types, vals):
                    f.write(orjson.dumps({"event_type": et, "value": v}))
                    f.write(b"\n")
        done.touch()

    ds = rd.read_json([str(p) for p in sorted(stage.glob("*.json"))])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return g.rename_columns(["event_type", "sv", "n"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "event_type"
    ).aggregate(Sum("sv", alias_name="sv"), Sum("n", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "n_events": t["n"].cast(pa.int64()),
                "sum_value": duckdb_round(t["sv"].combine_chunks(), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_JSONL_INGEST_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY 1
"""


def q_cdc_scd2(sf_dir: str):
    """SCD2 version history from the change stream: every surviving
    (non-delete) version of each (conv_id, turn_idx) key with its
    [valid_from, valid_to) interval and a current flag; a later update
    OR delete closes the previous version. Runs the REAL envelope
    encode→decode path with duplicate deliveries (combine=False keeps
    every version; duplicates collapse idempotently on (key, lsn)), then
    one bucket shuffle on the decoder's key-derived shuffle_key and a
    vectorized shift/lead per bucket — no per-key loop."""
    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=False),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        t = t.select(["conv_id", "turn_idx", "op", "role", "ts", "lsn", "shuffle_key"])
        keys = t["shuffle_key"].to_numpy(zero_copy_only=False)
        return t.append_column("_sb", hash_bucket(keys, num_buckets)).drop_columns(
            ["shuffle_key"]
        )

    def scd2_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx", "lsn"], kind="mergesort")
        df = df.drop_duplicates(["conv_id", "turn_idx", "lsn"], keep="first")
        conv = df["conv_id"].to_numpy()
        turn = df["turn_idx"].to_numpy()
        n = len(df)
        has_next = np.zeros(n, dtype=bool)
        if n > 1:
            has_next[:-1] = (conv[1:] == conv[:-1]) & (turn[1:] == turn[:-1])
        ts = df["ts"].to_numpy()
        valid_to = np.full(n, np.datetime64("NaT", "us"))
        valid_to[has_next] = ts[1:][has_next[:-1]]
        out = pd.DataFrame(
            {
                "conv_id": df["conv_id"].to_numpy(),
                "turn_idx": df["turn_idx"].to_numpy(),
                "role": df["role"].to_numpy(),
                "valid_from": ts,
                "valid_to": valid_to,
                "is_current": ~has_next,
            }
        )
        return out[df["op"].to_numpy() == 1]

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_sb")
        .map_groups(scd2_bucket, batch_format="pandas")
    )


_CDC_SCD2_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, ts, event_id AS lsn
  FROM events),
v AS (
  SELECT *, lead(ts) OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn) AS valid_to
  FROM ops)
SELECT conv_id, turn_idx, role, ts AS valid_from, valid_to,
       (valid_to IS NULL) AS is_current
FROM v WHERE op = 1
"""


def q_scd2_lookup(sf_dir: str):
    """Point-in-time dimension lookup against the SCD2 history — the
    classic warehouse enrichment: each purchase FACT reads the version
    of its (conv_id, turn_idx) dimension row that was current AS OF the
    fact's log position. Versions carry [ver_lsn, to_lsn) validity in
    LSN terms (unique per key — no as-of ties by construction, unlike
    event-time), built by the same decode → one key-bucket exchange →
    vectorized lead pass as q_cdc_scd2; the lookup itself is the
    distributed backward as-of join (stages/joins.py) on a composite
    string key, with a vectorized gap mask: a version CLOSED before the
    fact (a later update or delete) yields NULL, not a stale row.
    Two keyed exchanges total (dim build + join); facts never sort
    globally. Oracle: DuckDB native ASOF LEFT JOIN + the same mask."""
    from commons_codec_ray.stages.joins import asof_join

    cfg = PipelineConfig()
    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    ds = ds.map_batches(
        DecodeEnvelopes(cfg, combine=False),
        batch_format="pyarrow",
        batch_size=cfg.decode_batch_size,
    )
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        t = t.select(["conv_id", "turn_idx", "op", "role", "lsn", "shuffle_key"])
        keys = t["shuffle_key"].to_numpy(zero_copy_only=False)
        return t.append_column("_sb", hash_bucket(keys, num_buckets)).drop_columns(
            ["shuffle_key"]
        )

    def dim_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx", "lsn"], kind="mergesort")
        df = df.drop_duplicates(["conv_id", "turn_idx", "lsn"], keep="first")
        conv = df["conv_id"].to_numpy()
        turn = df["turn_idx"].to_numpy()
        lsn = df["lsn"].to_numpy(np.int64)
        n = len(df)
        has_next = np.zeros(n, dtype=bool)
        if n > 1:
            has_next[:-1] = (conv[1:] == conv[:-1]) & (turn[1:] == turn[:-1])
        to_lsn = pd.array([pd.NA] * n, dtype="Int64")
        to_lsn[has_next] = lsn[1:][has_next[:-1]]
        k = (
            pd.Series(conv, dtype="string")
            + "#"
            + pd.Series(turn.astype(np.int64)).astype(str)
        )
        keep = df["op"].to_numpy() == 1
        # arrow output: keeps the dataset schema arrow-backed for the
        # downstream asof_join's type probe (nullable to_lsn included)
        return pa.table(
            {
                "_k": pa.array(k[keep], pa.string()),
                "lsn_at": pa.array(lsn[keep]),
                "role_v": pa.array(df["role"].to_numpy()[keep], pa.string()),
                "ver_lsn": pa.array(lsn[keep]),
                "to_lsn": pa.array(to_lsn[keep], pa.int64()),
            }
        )

    dim = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_sb")
        .map_groups(dim_bucket, batch_format="pandas")
    )

    def facts(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["event_type"], "purchase"))
        eid = f["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = f["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = (
            pd.Series(uid).astype(str).radd("c-")
            + "#"
            + pd.Series(eid % 40).astype(str)
        )
        return pa.table(
            {
                "event_id": pa.array(eid),
                "_k": pa.array(k, pa.string()),
                "lsn_at": pa.array(eid),
            }
        )

    left = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type"]
    ).map_batches(facts, batch_format="pyarrow")
    joined = asof_join(
        left, dim, on="lsn_at", by="_k", right_columns=["role_v", "ver_lsn", "to_lsn"]
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        at = df["lsn_at"].to_numpy(np.int64)
        to_lsn = df["to_lsn"].astype("Int64")
        closed = to_lsn.notna().to_numpy() & (
            to_lsn.fillna(np.iinfo(np.int64).max).to_numpy(np.int64) <= at
        )
        role = pd.Series(df["role_v"], dtype="string").mask(closed)
        ver = df["ver_lsn"].astype("Int64").mask(closed)
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
                "role_asof": pa.array(role, pa.string()),
                "version_lsn": pa.array(ver, pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


_SCD2_LOOKUP_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, event_id AS lsn
  FROM events),
v AS (
  SELECT *, lead(lsn) OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn) AS to_lsn
  FROM ops),
dim AS (
  SELECT conv_id || '#' || CAST(turn_idx AS VARCHAR) AS k,
         role, lsn AS ver_lsn, to_lsn
  FROM v WHERE op = 1),
facts AS (
  SELECT event_id,
         'c-' || CAST(user_id AS VARCHAR) || '#'
           || CAST(CAST(event_id % 40 AS INTEGER) AS VARCHAR) AS k
  FROM events WHERE event_type = 'purchase'),
j AS (
  SELECT f.event_id, d.role, d.ver_lsn, d.to_lsn
  FROM facts f ASOF LEFT JOIN dim d
    ON f.k = d.k AND f.event_id >= d.ver_lsn)
SELECT event_id,
       CASE WHEN to_lsn IS NOT NULL AND to_lsn <= event_id THEN NULL
            ELSE role END AS role_asof,
       CASE WHEN to_lsn IS NOT NULL AND to_lsn <= event_id THEN NULL
            ELSE ver_lsn END AS version_lsn
FROM j
"""


def q_global_rank(sf_dir: str):
    """Exact distributed ROW_NUMBER over the whole table
    (stages/ranking.py global_rank): hash-sampled range boundaries → one
    range-partition shuffle → per-partition vectorized sort → broadcast
    prefix offsets. Output thinned to every 100th rank so the compare
    stays small at any sf."""
    from commons_codec_ray.stages.ranking import global_rank

    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    ranked = global_rank(events, value="value", tiebreak="event_id")
    return ranked.map_batches(
        lambda t: t.filter(
            pc.equal(
                pc.subtract(
                    t["global_rank"],
                    pc.multiply(pc.divide(t["global_rank"], 100), 100),
                ),
                0,
            )
        ),
        batch_format="pyarrow",
    )


_GLOBAL_RANK_SQL = """
SELECT event_id, value, global_rank FROM (
  SELECT event_id, value,
         CAST(row_number() OVER (ORDER BY value, event_id) AS BIGINT) AS global_rank
  FROM events
) WHERE global_rank % 100 = 0
"""


def q_corpus_prep(sf_dir: str):
    """The composed training-data prep pipeline — the flagship shape a
    100-TB corpus run takes: exact dedup (content-hash bucketed
    keep-first) → length filter → vectorized token count → deterministic
    md5 train/eval split → per-split stats. Every stage streams; the
    only shuffle is the dedup's content-hash exchange; the final
    groupby sees two rows per block."""
    import hashlib as _hashlib

    docs = _documents(sf_dir)
    deduped = dedup_stage.exact_dedup(docs, column="text", order_by="doc_id")
    filtered = deduped.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_chars"], 60)),
        batch_format="pyarrow",
    )
    counted = filtered.map_batches(text_stage.token_count, batch_format="pyarrow")

    def split_and_partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        is_eval = np.fromiter(
            (
                int(_hashlib.md5((x or "").encode("utf-8")).hexdigest()[:8], 16) % 10
                == 0
                for x in texts
            ),
            dtype=bool,
            count=len(texts),
        )
        toks = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = []
        for name, mask in (("eval", is_eval), ("train", ~is_eval)):
            if mask.any():
                rows.append((name, int(mask.sum()), int(toks[mask].sum())))
        return pa.table(
            {
                "split": pa.array([r[0] for r in rows]),
                "n_docs": pa.array([r[1] for r in rows], pa.int64()),
                "total_tokens": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    agg = (
        counted.map_batches(split_and_partial, batch_format="pyarrow")
        .groupby("split")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_tokens", alias_name="total_tokens"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_docs"].cast(pa.float64())
        tot = t["total_tokens"].cast(pa.float64())
        return pa.table(
            {
                "split": t["split"],
                "n_docs": t["n_docs"].cast(pa.int64()),
                "total_tokens": t["total_tokens"].cast(pa.int64()),
                "avg_tokens": duckdb_round(pc.divide(tot, n), 2),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_CORPUS_PREP_SQL = """
WITH dedup AS (
  SELECT doc_id, text, n_chars FROM documents
  QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
),
tok AS (
  SELECT CASE WHEN CAST(('0x' || substr(md5(coalesce(text, '')), 1, 8)) AS UBIGINT) % 10 = 0
              THEN 'eval' ELSE 'train' END AS split,
         CAST(len(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) AS BIGINT) AS n_tokens
  FROM dedup WHERE n_chars >= 60
)
SELECT split,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS total_tokens,
       round(avg(n_tokens), 2) AS avg_tokens
FROM tok GROUP BY 1
"""


def q_distinct_per_group(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per day at shuffle-light cost: the
    user space is hash-partitioned into buckets, each (day, bucket)
    group deduplicates ITS users, and per-bucket distinct counts ADD
    because buckets partition the key space — no day-level group ever
    holds more than |users|/B pairs, so a 1e9-distinct-users day cannot
    OOM a worker. Event totals ride the same partial-agg pattern."""
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    num_buckets = adaptive_buckets()

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        users = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.asarray(hash_bucket(users, num_buckets))
        local = pa.table(
            {"day": day, "user_id": t["user_id"], "_db": pa.array(b)}
        )
        return local.group_by(["day", "user_id", "_db"]).aggregate([])

    def bucket_distinct(df: pd.DataFrame) -> pa.Table:
        part = (
            df.drop_duplicates(["day", "user_id"])
            .groupby("day", sort=False)
            .size()
        )
        return pa.table(
            {
                "day": pa.array(part.index.to_numpy(dtype="int64")),
                "du": pa.array(part.to_numpy(dtype="int64")),
            }
        )

    distinct = (
        events.map_batches(pairs, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(bucket_distinct, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("du", alias_name="distinct_users"))
    )

    def totals(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        g = pa.table({"day": day}).group_by("day").aggregate([("day", "count")])
        return g.rename_columns(["day", "n_events"])

    counts = (
        events.map_batches(totals, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n_events", alias_name="n_events"))
    )

    left = distinct.to_pandas()
    right = counts.to_pandas()
    out = left.merge(right, on="day")
    out["day"] = pd.to_datetime(out["day"], unit="us")
    out["distinct_users"] = out["distinct_users"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out[["day", "distinct_users", "n_events"]]


_DISTINCT_PER_GROUP_SQL = """
SELECT date_trunc('day', ts) AS day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS distinct_users,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1
"""


def q_funnel(sf_dir: str):
    """Sequential-event conversion funnel: per user, the first 'click'
    and the last 'purchase'; converted iff some purchase strictly
    follows some click (equivalently min(click) < max(purchase)). One
    conditional-min/max partial per batch, merged in a coarse-bucket
    groupby — never a per-user shuffle of raw events."""
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    num_buckets = adaptive_buckets()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        clicks = df[df["event_type"] == "click"].groupby("user_id", sort=False)["ts"].min()
        purch = df[df["event_type"] == "purchase"].groupby("user_id", sort=False)["ts"].max()
        out = pd.DataFrame({"first_click_ts": clicks, "last_purchase_ts": purch})
        out = out.reset_index()
        keys = out["user_id"].to_numpy(dtype="int64")
        out["_fb"] = np.asarray(hash_bucket(keys, num_buckets))
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False)
        out = pd.DataFrame(
            {
                "first_click_ts": g["first_click_ts"].min(),
                "last_purchase_ts": g["last_purchase_ts"].max(),
            }
        ).reset_index()
        fc, lp = out["first_click_ts"], out["last_purchase_ts"]
        conv = pd.array((fc < lp).to_numpy(), dtype="boolean")
        conv[(fc.isna() | lp.isna()).to_numpy()] = pd.NA
        out["converted"] = conv
        return out

    return (
        events.map_batches(partial, batch_format="pandas")
        .groupby("_fb")
        .map_groups(merge, batch_format="pandas")
    )


_FUNNEL_SQL = """
SELECT user_id,
       min(CASE WHEN event_type = 'click' THEN ts END) AS first_click_ts,
       max(CASE WHEN event_type = 'purchase' THEN ts END) AS last_purchase_ts,
       min(CASE WHEN event_type = 'click' THEN ts END)
         < max(CASE WHEN event_type = 'purchase' THEN ts END) AS converted
FROM events GROUP BY user_id
"""


def q_outer_join(sf_dir: str):
    """FULL OUTER shuffled hash join (stages/joins.py hash_join
    how='outer'): both sides filtered so each contributes unmatched
    rows; unmatched rows null-pad the OTHER side's columns with real
    nullable dtypes (no int64→float64 degradation in either
    direction)."""
    from commons_codec_ray.stages.joins import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "c_custkey": t["o_custkey"],
                "o_totalprice": t["o_totalprice"],
            }
        ).filter(pc.equal(pc.bit_wise_and(t["o_orderkey"], 7), 0)),
        batch_format="pyarrow",
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: t.filter(
            pc.equal(
                pc.subtract(
                    t["c_custkey"], pc.multiply(pc.divide(t["c_custkey"], 3), 3)
                ),
                0,
            )
        ),
        batch_format="pyarrow",
    )
    return hash_join(orders, cust, on="c_custkey", how="outer")


_OUTER_JOIN_SQL = """
SELECT COALESCE(o.c_custkey, c.c_custkey) AS c_custkey,
       o.o_orderkey, o.o_totalprice, c.c_mktsegment
FROM (
  SELECT o_orderkey, o_custkey AS c_custkey, o_totalprice
  FROM orders WHERE o_orderkey % 8 = 0
) o
FULL OUTER JOIN (
  SELECT c_custkey, c_mktsegment FROM customer WHERE c_custkey % 3 = 0
) c ON o.c_custkey = c.c_custkey
"""


def q_cdc_schema_evolution(sf_dir: str):
    """Schema evolution end-to-end through the REAL pipeline (north-star
    requirement): the first half of the stream carries the original
    six-column rows; an in-band create-table control event then WIDENS
    the table with ``rating:INT32``, and every later upsert carries the
    new field. Two-epoch replay through decode → control prescan →
    registry → apply; the final lake materializes ``rating`` with nulls
    backfilled for rows whose winning version predates the ALTER —
    Arrow schema unification, never a rewrite of committed files. The
    oracle re-derives the widened state from the lsn split."""
    import json as _json

    import pyarrow.parquet as _pq

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    b = n // 2
    env1 = EventsToEnvelopes(dialect="debezium", duplicates=True)(
        events.filter(pc.less(events["event_id"], b))
    )
    # phase-2 lsns shift +1 so the control event owns lsn=b; a uniform
    # shift preserves per-key LWW order, so the oracle can keep event_id
    env2 = EventsToEnvelopes(
        dialect="debezium", duplicates=True, lsn_offset=1, extra_int_field="rating"
    )(events.filter(pc.greater_equal(events["event_id"], b)))
    control_payload = _json.dumps(
        {
            "control": {
                "table-def": {
                    "columns": {
                        "conv_id": {"type": "STRING"},
                        "turn_idx": {"type": "INT32"},
                        "role": {"type": "STRING"},
                        "text": {"type": "STRING"},
                        "tool": {"type": "STRING"},
                        "ts": {"type": "TIMESTAMP"},
                        "rating": {"type": "INT32"},
                    },
                    "primary-key": ["conv_id", "turn_idx"],
                }
            },
            "metadata": {
                "operation": "create-table",
                "schema-name": "public",
                "table-name": "transcripts",
                "record-type": "control",
            },
        }
    )
    control = pa.table(
        {
            "lsn": pa.array([b], pa.int64()),
            "source_offset": pa.array([b], pa.int64()),
            "dialect": pa.array(["debezium"]),
            "payload": pa.array([control_payload]),
            "conv_id": pa.array([None], pa.string()),
        }
    )

    def apply(pipe, _work):
        for epoch, part in enumerate((env1, pa.concat_tables([control, env2]))):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )

    return _via_temp_lake(PipelineConfig(num_partitions=16), apply)


_CDC_SCHEMA_EVOLUTION_SQL = """
WITH b AS (SELECT CAST(count(*) // 2 AS BIGINT) AS b FROM events),
ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn,
         CASE WHEN event_id >= (SELECT b FROM b) AND event_id % 10 != 7
              THEN CAST(floor(value) AS INTEGER) ELSE NULL END AS rating
  FROM events)
SELECT conv_id, turn_idx, role, text, tool, ts, rating
FROM (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
      FROM ops)
WHERE rn = 1 AND op = 1
"""


def _schema_control_payload(rating_type: str) -> str:
    """In-band create-table control event (re)declaring the transcript
    columns plus ``rating`` at the given logical type."""
    import json as _json

    return _json.dumps(
        {
            "control": {
                "table-def": {
                    "columns": {
                        "conv_id": {"type": "STRING"},
                        "turn_idx": {"type": "INT32"},
                        "role": {"type": "STRING"},
                        "text": {"type": "STRING"},
                        "tool": {"type": "STRING"},
                        "ts": {"type": "TIMESTAMP"},
                        "rating": {"type": rating_type},
                    },
                    "primary-key": ["conv_id", "turn_idx"],
                }
            },
            "metadata": {
                "operation": "create-table",
                "schema-name": "public",
                "table-name": "transcripts",
                "record-type": "control",
            },
        }
    )


def q_cdc_schema_widening(sf_dir: str):
    """Type WIDENING mid-stream (north-star: 'widened types … via Arrow
    schema unification'): three epochs — original six columns; an ALTER
    adds ``rating:INT32`` and upserts carry ints; a second ALTER widens
    ``rating`` to REAL8 and upserts carry raw doubles. Committed files
    written under the INT32 registry are never rewritten; the final
    read unifies int32/float64 partitions and the column surfaces as
    float64, ints exactly representable. The oracle derives each key's
    rating from its winning lsn's phase."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    b1, b2 = n // 3, 2 * n // 3
    ids = events["event_id"]
    e1 = EventsToEnvelopes(dialect="debezium", duplicates=True)(
        events.filter(pc.less(ids, b1))
    )
    e2 = EventsToEnvelopes(
        dialect="debezium", duplicates=True, lsn_offset=1, extra_int_field="rating"
    )(events.filter(pc.and_(pc.greater_equal(ids, b1), pc.less(ids, b2))))
    e3 = EventsToEnvelopes(
        dialect="debezium", duplicates=True, lsn_offset=2, extra_real_field="rating"
    )(events.filter(pc.greater_equal(ids, b2)))

    def control(lsn: int, rating_type: str) -> pa.Table:
        return pa.table(
            {
                "lsn": pa.array([lsn], pa.int64()),
                "source_offset": pa.array([lsn], pa.int64()),
                "dialect": pa.array(["debezium"]),
                "payload": pa.array([_schema_control_payload(rating_type)]),
                "conv_id": pa.array([None], pa.string()),
            }
        )

    epochs = [
        e1,
        pa.concat_tables([control(b1, "INT32"), e2]),
        pa.concat_tables([control(b2 + 1, "REAL8"), e3]),
    ]
    lake = _tempfile.mkdtemp(prefix="ccr_widen_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16))
        for epoch, part in enumerate(epochs):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        out = pa.Table.from_pandas(
            pipe.read_lake().to_pandas(), preserve_index=False
        )
        out = out.set_column(
            out.schema.get_field_index("rating"),
            "rating",
            out["rating"].cast(pa.float64()),
        )
        return out.select(
            ["conv_id", "turn_idx", "role", "text", "tool", "ts", "rating"]
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_SCHEMA_WIDENING_SQL = """
WITH n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM events),
ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn,
         CASE WHEN event_id % 10 = 7 THEN NULL
              WHEN event_id >= 2 * (SELECT n FROM n) // 3 THEN value
              WHEN event_id >= (SELECT n FROM n) // 3
                THEN CAST(CAST(floor(value) AS INTEGER) AS DOUBLE)
              ELSE NULL END AS rating
  FROM events)
SELECT conv_id, turn_idx, role, text, tool, ts, rating
FROM (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
      FROM ops)
WHERE rn = 1 AND op = 1
"""


# ---------------------------------------------------------------------------
# Transcript-native training-data prep (stages/transcripts.py)
# ---------------------------------------------------------------------------

# Shared oracle prologue: the final transcript lake state, computed by the
# SQL side directly from the deterministic events→ops mapping (identical
# to _CDC_REPLAY_SQL's CTEs).
_TRANSCRIPT_CTE = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
t AS (
  SELECT conv_id, turn_idx, role, text, tool, ts FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1)
"""


def _transcript_buckets(sf_dir: str, columns: tuple[str, ...]):
    """events → bucketed LWW op rows carrying only ``columns`` payload;
    the shared front half of the transcript-analytics family (ONE int
    shuffle on splitmix(user_id), within-batch LWW combine applied)."""
    from commons_codec_ray.stages import transcripts as tr

    nb = adaptive_buckets()
    ds = _events(sf_dir).map_batches(
        lambda t: tr.ops_from_events(t, nb, columns), batch_format="pyarrow"
    )
    return ds.groupby("_b"), nb


def q_sft_pairs(sf_dir: str):
    """Supervised fine-tuning pair extraction over the final transcript
    state: for every surviving turn with ≥1 predecessor, emit
    (conv_id, turn_idx, context, target) where context is the ordered
    'role: text' concatenation of all prior turns. One bucketed shuffle;
    context assembly builds per-conversation output strings (the work
    itself), everything else vectorized."""
    from commons_codec_ray.stages import transcripts as tr

    grouped, _ = _transcript_buckets(sf_dir, ("role", "text"))
    return grouped.map_groups(tr.sft_pairs_bucket, batch_format="pandas")


_SFT_PAIRS_SQL = _TRANSCRIPT_CTE + """
SELECT conv_id, turn_idx,
       string_agg(role || ': ' || text, chr(10)) OVER (
         PARTITION BY conv_id ORDER BY turn_idx
         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS context,
       text AS target
FROM t
QUALIFY context IS NOT NULL
"""


def q_conv_dedup(sf_dir: str):
    """Conversation-level exact dedup: per-conv content fingerprint
    (md5 of the ordered role|text concat) in the conv-bucketed pass,
    then a TINY second shuffle keyed on the fingerprint itself where
    copies meet and the min conv_id survives with a copy count.
    Exact duplicates are planted (user_id % 5 == 0 conversations are
    re-fingerprinted under a 'dup-' shadow id through the REAL concat +
    hash path) so survivors are oracle-predictable."""
    from commons_codec_ray.stages import transcripts as tr

    grouped, nb = _transcript_buckets(sf_dir, ("role", "text"))
    fps = grouped.map_groups(
        lambda df: tr.conv_fingerprints_bucket(df, clone_mod=5), batch_format="pandas"
    )
    fps = fps.map_batches(
        lambda df: df.assign(_fb=tr.fp_bucket_column(df["fp"], nb)),
        batch_format="pandas",
    )
    return fps.groupby("_fb").map_groups(tr.conv_dedup_bucket, batch_format="pandas")


_CONV_DEDUP_SQL = _TRANSCRIPT_CTE + """,
u AS (
  SELECT conv_id, turn_idx, role, text FROM t
  UNION ALL
  SELECT 'dup-' || substr(conv_id, 3) AS conv_id, turn_idx, role, text FROM t
  WHERE CAST(substr(conv_id, 3) AS BIGINT) % 5 = 0),
fp AS (
  SELECT conv_id,
         md5(string_agg(role || '|' || text, chr(31) ORDER BY turn_idx)) AS fp
  FROM u GROUP BY conv_id)
SELECT min(conv_id) AS conv_id, CAST(count(*) AS BIGINT) AS n_copies
FROM fp GROUP BY fp
"""


def q_conv_stats(sf_dir: str):
    """Per-conversation validation stats for corpus QA: turn count,
    tool-call count, adjacent same-role repeats (role-alternation
    breaks), first/last timestamp. One bucketed shuffle, C-level
    pandas groupby aggregation inside each bucket."""
    from commons_codec_ray.stages import transcripts as tr

    grouped, _ = _transcript_buckets(sf_dir, ("role", "tool", "ts"))
    return grouped.map_groups(tr.conv_stats_bucket, batch_format="pandas")


_CONV_STATS_SQL = _TRANSCRIPT_CTE + """
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(tool) AS BIGINT) AS n_tool,
       CAST(sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) AS BIGINT)
         AS n_role_repeats,
       min(ts) AS first_ts, max(ts) AS last_ts
FROM (SELECT *, lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
        AS prev_role FROM t)
GROUP BY conv_id
"""


def q_role_transitions(sf_dir: str):
    """Corpus-level conversation-flow profile: counts of (prev_role →
    role) bigrams across every conversation's turn order. Per-bucket
    vectorized partial counts (≤|roles|² rows per bucket) → ONE tiny
    global groupby-sum — the partial/combiner shape that never moves
    the corpus."""
    from commons_codec_ray.stages import transcripts as tr

    grouped, _ = _transcript_buckets(sf_dir, ("role",))
    partials = grouped.map_groups(tr.role_transitions_bucket, batch_format="pandas")
    summed = partials.groupby("pair").aggregate(Sum("n", alias_name="n"))
    return summed.map_batches(tr.split_transition_pairs, batch_format="pyarrow")


def q_pack_sequences(sf_dir: str):
    """Sequence packing: greedily chunk each conversation's surviving
    turns into contiguous training samples whose cumulative text length
    fits a fixed budget (stages/transcripts.py:pack_sequences_bucket).
    One bucketed shuffle; the oracle replays the same greedy walk with a
    recursive CTE."""
    from commons_codec_ray.stages import transcripts as tr

    grouped, _ = _transcript_buckets(sf_dir, ("text",))
    return grouped.map_groups(tr.pack_sequences_bucket, batch_format="pandas")


_PACK_SEQUENCES_SQL = """
WITH RECURSIVE ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         props AS text, event_id AS lsn
  FROM events),
t AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM ops) WHERE rn = 1 AND op = 1),
t2 AS (
  SELECT conv_id, turn_idx, length(text) AS len,
         row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS rn
  FROM t),
walk AS (
  SELECT conv_id, turn_idx, rn, len, 0 AS chunk, len AS acc
  FROM t2 WHERE rn = 1
  UNION ALL
  SELECT n.conv_id, n.turn_idx, n.rn, n.len,
         CASE WHEN w.acc + n.len > 24 THEN w.chunk + 1 ELSE w.chunk END,
         CASE WHEN w.acc + n.len > 24 THEN n.len ELSE w.acc + n.len END
  FROM walk w JOIN t2 n ON n.conv_id = w.conv_id AND n.rn = w.rn + 1)
SELECT conv_id, turn_idx, CAST(chunk AS BIGINT) AS chunk FROM walk
"""


_ROLE_TRANSITIONS_SQL = _TRANSCRIPT_CTE + """
SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n
FROM (SELECT conv_id, role,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role
      FROM t)
WHERE prev_role IS NOT NULL
GROUP BY prev_role, role
"""


def q_cdc_alerts(sf_dir: str):
    """Streaming monitoring composed ON TOP of the change feed: the
    epoch-2 feed (same replay as q_cdc_change_feed) streams through a
    per-conversation threshold alert — conversations with ≥6 row-level
    changes in the epoch emit (conv_id, n_changes, n_deletes, last_lsn).
    One integer-bucketed exchange over the (tiny) feed; proves the feed
    is a first-class Dataset that downstream aggregation consumes, not
    just a file dump. Oracle: the feed CTE wrapped in GROUP BY/HAVING."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    K = 6
    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))
    lake = _tempfile.mkdtemp(prefix="ccr_alerts_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16, emit_changes=True))
        for epoch, part in enumerate((e1, e2)):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        feed = pipe.read_changes(epoch=1)
        nb = adaptive_buckets()

        def partials(t: pa.Table) -> pa.Table:
            df = pd.DataFrame(
                {
                    "conv_id": t["conv_id"].to_numpy(zero_copy_only=False),
                    "is_del": pc.equal(t["change"], "delete").to_numpy(
                        zero_copy_only=False
                    ),
                    "lsn": t["lsn"].to_numpy(zero_copy_only=False),
                }
            )
            g = df.groupby("conv_id", sort=False).agg(
                n_changes=("lsn", "size"),
                n_deletes=("is_del", "sum"),
                last_lsn=("lsn", "max"),
            )
            keys = g.index.to_numpy()
            return pa.table(
                {
                    "_b": pa.array(
                        (pd.util.hash_array(keys) & np.uint64(nb - 1)).astype(np.int64)
                    ),
                    "conv_id": pa.array(keys, pa.string()),
                    "n_changes": pa.array(g["n_changes"].to_numpy(np.int64)),
                    "n_deletes": pa.array(g["n_deletes"].to_numpy(np.int64)),
                    "last_lsn": pa.array(g["last_lsn"].to_numpy(np.int64)),
                }
            )

        def alert_bucket(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("conv_id", sort=False).agg(
                n_changes=("n_changes", "sum"),
                n_deletes=("n_deletes", "sum"),
                last_lsn=("last_lsn", "max"),
            )
            g = g[g["n_changes"] >= K]
            return g.reset_index()

        out = (
            feed.map_batches(partials, batch_format="pyarrow")
            .groupby("_b")
            .map_groups(alert_bucket, batch_format="pandas")
        )
        return pa.Table.from_pandas(out.to_pandas(), preserve_index=False).select(
            ["conv_id", "n_changes", "n_deletes", "last_lsn"]
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


def _q_replay_via_pipeline(sf_dir: str, *, post_replay=None, epoch_floor: int = 4000,
                           **cfg_kwargs):
    """Shared harness: full multi-epoch replay into a temp lake through
    CDCPipeline with the given config, returning the final lake state —
    the same _CDC_REPLAY_SQL oracle must hold for EVERY sink config.
    ``post_replay(pipe)`` runs between replay and readback (maintenance
    gates like q_cdc_compaction hook in here)."""
    import pyarrow.parquet as _pq

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events).sort_by("lsn")
    # ~5 epochs at every sf (epoch boundaries are what this gate
    # exercises; a FIXED size would mean 500 epoch commits at sf1.0
    # — per-epoch fixed costs, not the engine, would dominate).
    # Results are byte-identical at any epoch size by construction.
    epoch = max(epoch_floor, env.num_rows // 5 + 1)

    def apply(pipe, work):
        log = f"{work}/envelopes.parquet"
        _pq.write_table(env, log, row_group_size=512)
        pipe.replay(log, epoch_size=epoch)
        if post_replay is not None:
            post_replay(pipe)

    return _via_temp_lake(
        PipelineConfig(num_partitions=16, epoch_size=epoch, **cfg_kwargs), apply
    )


def q_cdc_replay_actors(sf_dir: str):
    """CDCPipeline's applier pool driver-gated end-to-end: stateful
    appliers hold partition state in memory across epochs (explicit
    hash exchange via multi-return decode tasks, LRU state spill,
    incremental pre-reduce) — same oracle as cdc_replay."""
    return _q_replay_via_pipeline(sf_dir)


def q_cdc_replay_delta(sf_dir: str):
    """The delta sink (merge-on-read + deterministic compaction)
    driver-gated end-to-end: epochs append delta files instead of
    rewriting partitions; reads merge base+deltas by (key, lsn) LWW —
    same oracle as cdc_replay."""
    return _q_replay_via_pipeline(sf_dir, sink_mode="delta")


def q_cdc_lineage(sf_dir: str):
    """The lineage + metrics surface verified end-to-end (north star:
    per-partition lineage records, offset ranges → output files): run a
    real multi-epoch replay into a temp lake, then reconstruct the
    final accounting PURELY from the committed epoch manifests and the
    checkpoint — epoch count, final row count summed from each
    partition's last-touch manifest entry (never reading the lake
    itself), the resume cursor, and total dead letters. Every number is
    independently derivable by the oracle from the events table."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    E = 1500  # source-offset width of one epoch
    events = _pq.read_table(f"{sf_dir}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events).sort_by("lsn")
    work = _tempfile.mkdtemp(prefix="ccr_lineage_")
    try:
        log = f"{work}/envelopes.parquet"
        _pq.write_table(env, log, row_group_size=512)
        pipe = CDCPipeline(
            f"{work}/lake", PipelineConfig(num_partitions=16, epoch_size=E)
        )
        pipe.replay(log, epoch_size=E)
        store = pipe.store
        ckpt = store.read_checkpoint()
        per_part: dict[str, int] = {}
        dead = 0
        for e in range(ckpt.last_epoch + 1):
            m = store.read_manifest(e)
            dead += int(m["metrics"].get("dead_letters", 0))
            for pid, info in m["files"].items():
                per_part[pid] = int(info["rows"])  # last touch wins (full files)
        return pa.table(
            {
                "n_epochs": pa.array([ckpt.last_epoch + 1], pa.int64()),
                "final_rows": pa.array([sum(per_part.values())], pa.int64()),
                "next_offset": pa.array([int(ckpt.next_offset)], pa.int64()),
                "dead_letters": pa.array([dead], pa.int64()),
            }
        )
    finally:
        _shutil.rmtree(work, ignore_errors=True)


_CDC_LINEAGE_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_id AS lsn
  FROM events),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM ops)
SELECT CAST(max(event_id) // 1500 + 1 AS BIGINT) AS n_epochs,
       CAST((SELECT count(*) FROM ranked WHERE rn = 1 AND op = 1) AS BIGINT)
         AS final_rows,
       CAST(max(event_id) + 1 AS BIGINT) AS next_offset,
       CAST(0 AS BIGINT) AS dead_letters
FROM events
"""


def q_pagerank(sf_dir: str):
    """Distributed PageRank (stages/graph.py): fixed-point int64 scores
    (scale 10^12, floor division everywhere) make the result
    bit-identical at any cluster size AND SQL-expressible — the oracle
    replays the same 4 iterations with unrolled CTEs. Actor-sharded
    Pregel shape: the static edge+sentinel state is routed to shard
    actors ONCE (no sort at all — map-only setup + per-block routing
    tasks); each of the four fused scatter+gather iterations moves only
    the contribution stream shard→shard as plasma objects. Same
    deterministic event-derived graph as q_components_sharded, directed.

    The input follows pool placement (``_graph_events``): one Arrow
    table in the driver while the pool is one driver shard, else a
    Dataset of ~CPUs/2 blocks (floor 8), since a spawned pool's shard
    count follows the setup block count. Measured
    at sf0.1/32 cpus: 3.46 s (r4 unioned variant, 5 sorts) → 1.74 s
    sharded."""
    from commons_codec_ray.stages.graph import map_rows, pagerank

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return pagerank(
        map_rows(events, edges), iterations=4
    )


def q_triangles(sf_dir: str):
    """Exact triangle count (stages/graph.py ``triangle_count``, the
    oriented-wedge MR-NodeIterator++ shape), the ``triangles`` and
    ``triangles_exchange`` entries: each shard orients its edges by
    (degree, id), which caps out-degree at O(√m) so the wedge set can't
    blow up, and sends each wedge once to the shard that owns its
    closing edge. Same deterministic event-derived graph as
    q_pagerank/q_components_sharded. The input follows pool placement
    (``_graph_events``)."""
    from commons_codec_ray.stages.graph import map_rows, triangle_count

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return triangle_count(map_rows(events, edges))


_TRIANGLES_SQL = """
WITH raw AS (
  SELECT event_id % 1200 AS a,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
       (SELECT CAST(count(*) AS BIGINT)
        FROM e ab JOIN e bc ON ab.v = bc.u
                  JOIN e ac ON ac.u = ab.u AND ac.v = bc.v) AS n_triangles
"""


def q_assortativity(sf_dir: str):
    """Degree assortativity (Newman 2002): Pearson correlation of
    endpoint degrees over the symmetric distinct edge list — positive
    ⇒ hubs attach to hubs. Engine: the deduped symmetric table
    (graph._sym_edges, one exchange), degrees broadcast (nodes ≪
    edges), then EXACT int64 moment partials (n, Σx, Σy, Σxy, Σx²,
    Σy²) per batch — r is computed in float ONCE on the driver from
    exact integers (order-invariant), rounded 4dp to match DuckDB's
    streaming corr. Uses the varied-degree two-family graph
    (q_kcore_sharded's) so r is well-defined."""
    import ray

    from commons_codec_ray.stages.graph import _sym_edges

    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a1 = eid % 1400
        b1 = (a1 + 1 + (eid % (1 + a1 % 4))) % 1400
        a2 = eid % 320
        b2 = (a2 // 8) * 8 + (eid // 64) % 8
        return pa.table(
            {
                "src": pa.array(np.concatenate([a1, a2])),
                "dst": pa.array(np.concatenate([b1, b2])),
            }
        )

    sym = _sym_edges(
        events.map_batches(edges, batch_format="pyarrow"), "src", "dst"
    )

    def deg_partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["u"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"n": pa.array(u, pa.int64()), "c": pa.array(c, pa.int64())})

    degp = sym.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    deg = degp.groupby("n")["c"].sum()
    dref = ray.put((deg.index.to_numpy(np.int64), deg.to_numpy(np.int64)))

    def moments(t: pa.Table) -> pa.Table:
        nodes_s, degs = ray.get(dref)
        x = degs[np.searchsorted(nodes_s, t["u"].to_numpy(zero_copy_only=False))]
        y = degs[np.searchsorted(nodes_s, t["v"].to_numpy(zero_copy_only=False))]
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    parts = sym.map_batches(moments, batch_format="pyarrow").to_pandas().sum()
    n, sx, sy = int(parts["n"]), int(parts["sx"]), int(parts["sy"])
    sxy, sxx, syy = int(parts["sxy"]), int(parts["sxx"]), int(parts["syy"])
    num = n * sxy - sx * sy
    den = float(np.sqrt(float(n * sxx - sx * sx) * float(n * syy - sy * sy)))
    r = float(num) / den if den > 0 else float("nan")
    return pa.table(
        {
            "assortativity": pa.array(duckdb_round(np.array([r]), 4), pa.float64()),
            "n_pairs": pa.array([n], pa.int64()),
        }
    )


_ASSORTATIVITY_SQL = """
WITH raw AS (
  SELECT event_id % 1400 AS a,
         (event_id % 1400 + 1 + (event_id % (1 + (event_id % 1400) % 4))) % 1400 AS b
  FROM events
  UNION ALL
  SELECT event_id % 320 AS a,
         ((event_id % 320) // 8) * 8 + (event_id // 64) % 8 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
sym AS (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e),
deg AS (SELECT u AS n, CAST(count(*) AS BIGINT) AS d FROM sym GROUP BY u)
SELECT round(corr(CAST(du.d AS DOUBLE), CAST(dv.d AS DOUBLE)), 4) AS assortativity,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM sym s JOIN deg du ON du.n = s.u JOIN deg dv ON dv.n = s.v
"""


def q_hits(sf_dir: str):
    """HITS hubs & authorities (stages/graph.py ``hits``, Kleinberg
    1999): two exact-integer alternating power-iteration rounds over
    the same deterministic directed event graph as q_pagerank —
    unnormalized (rescaling-only in exact arithmetic, guarded against
    int64 growth), so the unrolled-CTE oracle joins replay every score
    bit-for-bit. Long output: (node, kind 'auth'|'hub', score). Each
    edge is routed once to both endpoints' shards; a half-step moves
    only contributions. The input follows pool placement
    (``_graph_events``)."""
    from commons_codec_ray.stages.graph import hits, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return hits(map_rows(events, edges), iterations=2)


_HITS_SQL = """
WITH raw AS (
  SELECT event_id % 1200 AS u,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS v
  FROM events),
e AS (SELECT DISTINCT u, v FROM raw),
nodes AS (SELECT u AS n FROM e UNION SELECT v FROM e),
a1 AS (SELECT v, CAST(count(*) AS BIGINT) AS s FROM e GROUP BY v),
h1 AS (SELECT e.u, CAST(sum(a1.s) AS BIGINT) AS s
       FROM e JOIN a1 ON a1.v = e.v GROUP BY e.u),
a2 AS (SELECT e.v, CAST(sum(h1.s) AS BIGINT) AS s
       FROM e JOIN h1 ON h1.u = e.u GROUP BY e.v),
h2 AS (SELECT e.u, CAST(sum(a2.s) AS BIGINT) AS s
       FROM e JOIN a2 ON a2.v = e.v GROUP BY e.u)
SELECT n.n AS node, 'auth' AS kind, coalesce(a2.s, 0) AS score
FROM nodes n LEFT JOIN a2 ON a2.v = n.n
UNION ALL
SELECT n.n AS node, 'hub' AS kind, coalesce(h2.s, 0) AS score
FROM nodes n LEFT JOIN h2 ON h2.u = n.n
"""


def q_ppr(sf_dir: str):
    """Personalized PageRank (stages/graph.py
    ``personalized_pagerank``; Page et al. 1999 §6): teleport mass
    restricted to a 13-node seed set (node ids ≡ 0 mod 97 — the oracle
    derives the same live-seed set from its node CTE, so seeds absent
    at small sf drop out identically on both sides). Same exact
    fixed-point int64 arithmetic and pagerank shards as q_pagerank,
    so 3 unrolled CTE rounds replay every score
    bit-for-bit; zero contributions are pruned in flight (personalized
    mass stays sparse early — the volume win over uniform PageRank).
    The input follows pool placement (``_graph_events``)."""
    from commons_codec_ray.stages.graph import map_rows, personalized_pagerank

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return personalized_pagerank(
        map_rows(events, edges),
        seeds=np.arange(0, 1200, 97, dtype=np.int64),
        iterations=3,
    )


def _ppr_sql(iters: int) -> str:
    """Unrolled-CTE oracle mirroring the personalized fixed-point
    updates (seed-only teleport; cf. _pagerank_sql)."""
    head = """
WITH edges AS (
  SELECT DISTINCT (event_id % 1200) AS src,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS dst
  FROM events),
nodes AS (SELECT src AS v FROM edges UNION SELECT dst FROM edges),
deg AS (SELECT src AS v, count(*) AS d FROM edges GROUP BY src),
consts AS (SELECT 1000000000000 // count(*) AS s0,
                  15 * (1000000000000 // count(*)) // 100 AS base
           FROM nodes WHERE v % 97 = 0),
p0 AS (SELECT v, CASE WHEN v % 97 = 0 THEN (SELECT s0 FROM consts)
                      ELSE 0 END AS s
       FROM nodes)"""
    steps = [
        f""",
p{i} AS (
  SELECT n.v,
         CASE WHEN n.v % 97 = 0 THEN (SELECT base FROM consts) ELSE 0 END
           + 85 * coalesce(sum(p.s // deg.d), 0) // 100 AS s
  FROM nodes n
  LEFT JOIN edges e ON e.dst = n.v
  LEFT JOIN p{i - 1} p ON p.v = e.src
  LEFT JOIN deg ON deg.v = e.src
  GROUP BY n.v)"""
        for i in range(1, iters + 1)
    ]
    return (
        head
        + "".join(steps)
        + f"\nSELECT CAST(v AS BIGINT) AS node, CAST(s AS BIGINT) AS score FROM p{iters}"
    )


_PPR_SQL = _ppr_sql(3)


def q_bfs_levels(sf_dir: str):
    """Single-source BFS hop levels (stages/graph.py ``bfs_levels``) —
    the traversal primitive (exact frontier expansion with hop counts)
    the spectral/peeling graph ops don't cover. Runs on a deterministic
    doubling graph (src → 2·src + 1..7 mod 1200, jump picked by the
    event id) so the frontier genuinely branches and deepens — the
    q_pagerank block graph never leaves its 8-node block. Source 0,
    6 levels; the adjacency and the visited set stay on shard actors
    and each level is one superstep that expands only the new
    frontier; the oracle unrolls the same duplicate-free frontiers as
    difference CTEs (AS MATERIALIZED — each is referenced twice). The
    input follows pool placement (``_graph_events``)."""
    from commons_codec_ray.stages.graph import bfs_levels, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (2 * a + 1 + (eid * 3) % 7) % 1200
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return bfs_levels(
        map_rows(events, edges), source=0, max_levels=6
    )


def q_sssp(sf_dir: str):
    """Weighted single-source shortest paths (stages/graph.py ``sssp``
    — bounded Bellman–Ford; the min-plus member of the traversal
    family, q_bfs_levels is the hop-count special case). Same doubling
    graph, edge weight 1 + (event_id·5) % 9 — multi-edges collapse to
    their MIN weight on both sides — source 0, 6 relaxation rounds,
    each one superstep on the shard actors that hold the adjacency and
    the distances. Delta-relaxation (only improved nodes re-relax) is
    bit-identical to the textbook recurrence, which the oracle unrolls
    as min-CTEs. The input follows pool placement
    (``_graph_events``)."""
    from commons_codec_ray.stages.graph import map_rows, sssp

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (2 * a + 1 + (eid * 3) % 7) % 1200
        w = 1 + (eid * 5) % 9
        return pa.table({"src": pa.array(a), "dst": pa.array(b), "w": pa.array(w)})

    return sssp(
        map_rows(events, edges), source=0, rounds=6
    )


def _sssp_sql(rounds: int) -> str:
    """Unrolled Bellman–Ford min-CTEs mirroring stages/graph.py sssp."""
    parts = [
        """
WITH e AS (
  SELECT (event_id % 1200) AS u,
         (2 * (event_id % 1200) + 1 + (event_id * 3) % 7) % 1200 AS v,
         CAST(min(1 + (event_id * 5) % 9) AS BIGINT) AS w
  FROM events GROUP BY 1, 2),
d0 AS MATERIALIZED (SELECT 0 AS n, CAST(0 AS BIGINT) AS d)"""
    ]
    for k in range(1, rounds + 1):
        parts.append(
            f""",
d{k} AS MATERIALIZED (
  SELECT n, min(d) AS d FROM (
    SELECT n, d FROM d{k - 1}
    UNION ALL
    SELECT e.v AS n, p.d + e.w AS d FROM d{k - 1} p JOIN e ON e.u = p.n
  ) GROUP BY n)"""
        )
    return (
        "".join(parts)
        + f"\nSELECT CAST(n AS BIGINT) AS node, CAST(d AS BIGINT) AS dist FROM d{rounds}"
    )


_SSSP_SQL = _sssp_sql(6)


def _bfs_sql(levels: int) -> str:
    """Unrolled frontier-difference CTEs mirroring bfs_levels: f_k is
    the set first reached at hop k, r_k the union reached so far."""
    parts = [
        """
WITH e AS (
  SELECT DISTINCT (event_id % 1200) AS u,
         (2 * (event_id % 1200) + 1 + (event_id * 3) % 7) % 1200 AS v
  FROM events),
f0 AS MATERIALIZED (SELECT 0 AS node),
r0 AS MATERIALIZED (SELECT node FROM f0)"""
    ]
    for k in range(1, levels + 1):
        parts.append(
            f""",
f{k} AS MATERIALIZED (
  SELECT DISTINCT e.v AS node FROM e JOIN f{k - 1} ON e.u = f{k - 1}.node
  WHERE e.v NOT IN (SELECT node FROM r{k - 1})),
r{k} AS MATERIALIZED (SELECT node FROM r{k - 1} UNION SELECT node FROM f{k})"""
        )
    sels = [
        f"SELECT CAST(node AS BIGINT) AS node, CAST({k} AS BIGINT) AS level FROM f{k}"
        for k in range(levels + 1)
    ]
    return "".join(parts) + "\n" + "\nUNION ALL\n".join(sels)


_BFS_LEVELS_SQL = _bfs_sql(6)


def q_clustering_coeff(sf_dir: str):
    """Per-node local clustering coefficient
    (stages/graph.py:clustering_coeff — the node-resolved
    oriented-wedge count on the triangle shards, a closed wedge
    crediting all three corners): same event-derived graph as
    q_triangles; exact integer cc_ppm = 2e6·tri // (deg·(deg−1)) so
    the grouped SQL triangle join replays bit-for-bit. The input
    follows pool placement (``_graph_events``)."""
    from commons_codec_ray.stages.graph import clustering_coeff, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = eid % 1200
        b = (a // 8) * 8 + (eid * 3) % 8
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    return clustering_coeff(map_rows(events, edges))


_CLUSTERING_COEFF_SQL = """
WITH raw AS (
  SELECT event_id % 1200 AS a,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
tri AS (
  SELECT ab.u AS x, ab.v AS y, bc.v AS z
  FROM e ab JOIN e bc ON ab.v = bc.u
            JOIN e ac ON ac.u = ab.u AND ac.v = bc.v),
tn AS (
  SELECT x AS n FROM tri UNION ALL SELECT y FROM tri UNION ALL SELECT z FROM tri),
tc AS (SELECT n, CAST(count(*) AS BIGINT) AS t FROM tn GROUP BY n),
deg AS (
  SELECT u AS n, CAST(count(*) AS BIGINT) AS d
  FROM (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e)
  GROUP BY u)
SELECT deg.n AS node, deg.d AS deg, coalesce(tc.t, 0) AS triangles,
       CASE WHEN deg.d >= 2
            THEN 2000000 * coalesce(tc.t, 0) // (deg.d * (deg.d - 1))
            ELSE 0 END AS cc_ppm
FROM deg LEFT JOIN tc ON tc.n = deg.n
"""


def _pagerank_sql(iters: int) -> str:
    """Unrolled-CTE oracle mirroring stages/graph.py's integer updates."""
    head = """
WITH edges AS (
  SELECT DISTINCT (event_id % 1200) AS src,
         ((event_id % 1200) // 8) * 8 + (event_id * 3) % 8 AS dst
  FROM events),
nodes AS (SELECT src AS v FROM edges UNION SELECT dst FROM edges),
deg AS (SELECT src AS v, count(*) AS d FROM edges GROUP BY src),
consts AS (SELECT 1000000000000 // count(*) AS s0,
                  15 * (1000000000000 // count(*)) // 100 AS base
           FROM nodes),
p0 AS (SELECT v, (SELECT s0 FROM consts) AS s FROM nodes)"""
    steps = [
        f""",
p{i} AS (
  SELECT n.v,
         (SELECT base FROM consts)
           + 85 * coalesce(sum(p.s // deg.d), 0) // 100 AS s
  FROM nodes n
  LEFT JOIN edges e ON e.dst = n.v
  LEFT JOIN p{i - 1} p ON p.v = e.src
  LEFT JOIN deg ON deg.v = e.src
  GROUP BY n.v)"""
        for i in range(1, iters + 1)
    ]
    return (
        head
        + "".join(steps)
        + f"\nSELECT CAST(v AS BIGINT) AS node, CAST(s AS BIGINT) AS score FROM p{iters}"
    )


_PAGERANK_SQL = _pagerank_sql(4)


def q_kcore_sharded(sf_dir: str):
    """k-core decomposition (stages/graph.py:kcore_sharded —
    simultaneous Matula–Beck peeling), the ``kcore`` and
    ``kcore_sharded`` entries: a deterministic event-derived graph
    mixing a low-degree circular band family (node-dependent forward
    offsets, gets peeled) with near-complete 8-node blocks on a
    320-node subrange (survives), k=4. The deduped symmetric adjacency
    is hash-routed to the shards ONCE and each peel round moves only
    death notices (≤ 2|E| messages over the whole run), early-stopped
    at fixpoint; the oracle unrolls 8 identical rounds (≥ the actual
    peel depth at every sf; post-fixpoint rounds are no-ops on both
    sides). Its two edge families, each routed both ways, make the 4
    setup rows per event that ``_graph_events`` places its input by."""
    from commons_codec_ray.stages.graph import kcore_sharded, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a1 = eid % 1400
        b1 = (a1 + 1 + (eid % (1 + a1 % 4))) % 1400
        a2 = eid % 320
        b2 = (a2 // 8) * 8 + (eid // 64) % 8
        return pa.table(
            {
                "src": pa.array(np.concatenate([a1, a2])),
                "dst": pa.array(np.concatenate([b1, b2])),
            }
        )

    return kcore_sharded(map_rows(events, edges), k=4)


def q_densest_subgraph(sf_dir: str):
    """Densest-subgraph 2-approx (stages/graph.py:densest_subgraph —
    Bahmani et al., VLDB 2012, ε=0): iterated average-degree peel with
    the exact integer removal test deg·V ≤ 2E, run on the k-core
    shards, best prefix by exact rational density compare. Same
    event-derived two-family graph as q_kcore_sharded (the 8-block
    subrange is the planted dense region the peel must isolate), so
    the same 4 setup rows per event; the oracle unrolls 8 identical
    rounds and picks the winner with a cross-product NOT-EXISTS argmax.
    The input follows pool placement (``_graph_events``)."""
    from commons_codec_ray.stages.graph import densest_subgraph, map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a1 = eid % 1400
        b1 = (a1 + 1 + (eid % (1 + a1 % 4))) % 1400
        a2 = eid % 320
        b2 = (a2 // 8) * 8 + (eid // 64) % 8
        return pa.table(
            {
                "src": pa.array(np.concatenate([a1, a2])),
                "dst": pa.array(np.concatenate([b1, b2])),
            }
        )

    # max_rounds matches the oracle's unroll EXACTLY (8): a peel depth
    # the oracle can't see must be an engine ERROR, not a mismatch
    return densest_subgraph(map_rows(events, edges), max_rounds=8)


def _densest_sql(rounds: int) -> str:
    head = """
WITH raw AS (
  SELECT event_id % 1400 AS a,
         (event_id % 1400 + 1 + (event_id % (1 + (event_id % 1400) % 4))) % 1400 AS b
  FROM events
  UNION ALL
  SELECT event_id % 320 AS a,
         ((event_id % 320) // 8) * 8 + (event_id // 64) % 8 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
s0 AS MATERIALIZED (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e)"""
    parts = [head]
    for t in range(rounds + 1):
        parts.append(
            f""",
st{t} AS MATERIALIZED (
  SELECT CAST(count(DISTINCT u) AS BIGINT) AS v,
         CAST(count(*) // 2 AS BIGINT) AS e FROM s{t})"""
        )
        if t < rounds:
            parts.append(
                f""",
d{t} AS MATERIALIZED (SELECT u, count(*) AS d FROM s{t} GROUP BY u),
s{t + 1} AS MATERIALIZED (
  SELECT s.u, s.v FROM s{t} s
  JOIN d{t} x ON x.u = s.u JOIN d{t} y ON y.u = s.v CROSS JOIN st{t}
  WHERE x.d * st{t}.v > 2 * st{t}.e AND y.d * st{t}.v > 2 * st{t}.e)"""
            )
    stats = " UNION ALL ".join(
        f"SELECT {t} AS r, v, e FROM st{t}" for t in range(rounds + 1)
    )
    nodes = " UNION ALL ".join(
        f"SELECT {t} AS r, u FROM (SELECT DISTINCT u FROM s{t})"
        for t in range(rounds + 1)
    )
    return (
        "".join(parts)
        + f""",
stats AS MATERIALIZED (SELECT * FROM ({stats}) WHERE v > 0),
best AS MATERIALIZED (
  SELECT r, v, e FROM stats a WHERE NOT EXISTS (
    SELECT 1 FROM stats b
    WHERE b.e * a.v > a.e * b.v OR (b.e * a.v = a.e * b.v AND b.r < a.r))),
nodes AS MATERIALIZED ({nodes})
SELECT CAST(n.u AS BIGINT) AS node, CAST(b.r AS BIGINT) AS r,
       b.v AS v_count, b.e AS e_count
FROM best b JOIN nodes n ON n.r = b.r"""
    )


_DENSEST_SQL = _densest_sql(8)


def _kcore_sql(k: int, rounds: int) -> str:
    head = """
WITH raw AS (
  SELECT event_id % 1400 AS a,
         (event_id % 1400 + 1 + (event_id % (1 + (event_id % 1400) % 4))) % 1400 AS b
  FROM events
  UNION ALL
  SELECT event_id % 320 AS a,
         ((event_id % 320) // 8) * 8 + (event_id // 64) % 8 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
s0 AS MATERIALIZED (SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e)"""
    # MATERIALIZED is load-bearing: s{j} references s{j-1} three times
    # (directly + twice through d{j}); inlined CTEs would re-expand the
    # parquet scan 3^rounds times and exhaust file descriptors
    steps = [
        f""",
d{j} AS MATERIALIZED (SELECT u, count(*) AS d FROM s{j - 1} GROUP BY u),
s{j} AS MATERIALIZED (
  SELECT s.u, s.v FROM s{j - 1} s
  JOIN d{j} x ON x.u = s.u JOIN d{j} y ON y.u = s.v
  WHERE x.d >= {k} AND y.d >= {k})"""
        for j in range(1, rounds + 1)
    ]
    return (
        head
        + "".join(steps)
        + f"""
SELECT CAST(u AS BIGINT) AS node, CAST(count(*) AS BIGINT) AS deg
FROM s{rounds} GROUP BY u"""
    )


_KCORE_SQL = _kcore_sql(4, 8)


def q_bpe_train(sf_dir: str):
    """Distributed BPE tokenizer training (stages/text.py:bpe_train —
    Sennrich et al. 2016): learn the top-4 merge rules over the
    documents corpus. Each merge is one linear pass emitting kilobyte
    (l, r, count) pair partials, driver-reduced with a deterministic
    argmax; merges apply as plain left-to-right ``replace`` on the
    spaced symbol form, the exact semantics DuckDB's ``replace``
    shares, so the unrolled oracle replays training bit-for-bit."""
    from commons_codec_ray.stages.text import bpe_train

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bpe_train(docs, merges=4)


def _bpe_cte(merges: int) -> str:
    """Shared unrolled-CTE chain replaying BPE training through
    ``sp{merges}`` (doc_id carried so the segment oracle can reuse it)."""
    parts = [
        """
WITH sp0 AS MATERIALIZED (
  SELECT doc_id,
         ' ' || coalesce(array_to_string(flatten(list_transform(
           list_filter(string_split(coalesce(text, ''), ' '), w -> w <> ''),
           w -> list_concat(string_split_regex(w, ''), ['|']))), ' '), '') || ' ' AS s
  FROM documents)"""
    ]
    for t in range(1, merges + 1):
        # the sp{t} join is LEFT ... ON TRUE with a coalesce fallback: when
        # the corpus supports fewer than `merges` merges top{t} is EMPTY,
        # and a CROSS JOIN would wipe sp{t} (and every later sp) to zero
        # rows while the engine, which just stops merging, still counts
        parts.append(
            f""",
pc{t} AS MATERIALIZED (
  SELECT p[1] AS l, p[2] AS r, CAST(count(*) AS BIGINT) AS cnt
  FROM (
    SELECT unnest(list_zip(l2, l2[2:])) AS p
    FROM (SELECT list_filter(string_split(s, ' '), x -> x <> '') AS l2 FROM sp{t - 1}))
  WHERE p[2] IS NOT NULL AND p[1] <> '|' AND p[2] <> '|'
  GROUP BY 1, 2),
top{t} AS MATERIALIZED (SELECT l, r, cnt FROM pc{t} ORDER BY cnt DESC, l, r LIMIT 1),
sp{t} AS MATERIALIZED (
  SELECT doc_id,
         CASE WHEN t.l IS NULL THEN s
              ELSE replace(s, ' ' || t.l || ' ' || t.r || ' ', ' ' || t.l || t.r || ' ')
         END AS s
  FROM sp{t - 1} LEFT JOIN top{t} t ON TRUE)"""
        )
    return "".join(parts)


def _bpe_train_sql(merges: int) -> str:
    sel = " UNION ALL ".join(
        f"SELECT {t} AS rank, l, r, cnt AS pair_count FROM top{t}"
        for t in range(1, merges + 1)
    )
    return (
        _bpe_cte(merges)
        + f"\nSELECT CAST(rank AS BIGINT) AS rank, l, r, pair_count FROM ({sel})"
    )


_BPE_TRAIN_SQL = _bpe_train_sql(4)


def q_bpe_segment(sf_dir: str):
    """Apply the learned BPE merge table (q_bpe_train's 4 rules) back
    to the corpus and count each document's resulting subword tokens —
    the train→apply composition a tokenizer pipeline runs. One extra
    linear pass after training: per batch, replay the merge replaces on
    the spaced form and count non-boundary symbols. Oracle: the shared
    unrolled CTE's final sp4 column, symbols counted per doc."""
    from commons_codec_ray.stages.text import bpe_segment

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bpe_segment(docs, merges=4)


_BPE_SEGMENT_SQL = (
    _bpe_cte(4)
    + """
SELECT doc_id,
       CAST(len(list_filter(string_split(s, ' '), x -> x <> '' AND x <> '|'))
            AS BIGINT) AS n_tokens
FROM sp4"""
)


def q_mutual_info(sf_dir: str):
    """Mutual information + marginal entropies between event_type and
    weekday — the categorical feature-dependence score (feature
    selection, leakage detection, drift monitoring). Scale shape:
    vectorized per-batch (type, dow) count partials — |X|·7 cells,
    kilobytes — driver-reduced; the float log terms are computed ONCE
    on the tiny cell table in sorted cell order from exact integer
    counts (layout-independent), rounded through duckdb_round(4) to
    match the oracle byte-for-byte (the kl_per_user discipline)."""
    events = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False)
        days = ts.astype("datetime64[D]").astype(np.int64)
        df = pd.DataFrame(
            {
                "x": t["event_type"].to_numpy(zero_copy_only=False),
                "y": (days + 4) % 7,
            }
        )
        g = df.groupby(["x", "y"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "c"}), preserve_index=False
        )

    cells = events.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = (
        cells.groupby(["x", "y"], as_index=False)["c"]
        .sum()
        .sort_values(["x", "y"], kind="mergesort")
    )
    c = g["c"].to_numpy(np.float64)
    n = c.sum()
    cx = g.groupby("x")["c"].sum()
    cy = g.groupby("y")["c"].sum()
    cxv = g["x"].map(cx).to_numpy(np.float64)
    cyv = g["y"].map(cy).to_numpy(np.float64)
    mi = float(np.sum((c / n) * np.log2(c * n / (cxv * cyv))))
    px = cx.to_numpy(np.float64) / n
    py = cy.to_numpy(np.float64) / n
    return pa.table(
        {
            "mi_bits": pa.array(duckdb_round(np.array([mi]), 4), pa.float64()),
            "h_x_bits": pa.array(
                duckdb_round(np.array([-np.sum(px * np.log2(px))]), 4), pa.float64()
            ),
            "h_y_bits": pa.array(
                duckdb_round(np.array([-np.sum(py * np.log2(py))]), 4), pa.float64()
            ),
            "n": pa.array([int(n)], pa.int64()),
        }
    )


_MUTUAL_INFO_SQL = """
WITH c AS MATERIALIZED (
  SELECT event_type AS x, CAST(dayofweek(ts) AS BIGINT) AS y,
         CAST(count(*) AS DOUBLE) AS c
  FROM events GROUP BY 1, 2),
t AS (SELECT sum(c) AS n FROM c),
mx AS MATERIALIZED (SELECT x, sum(c) AS cx FROM c GROUP BY x),
my AS MATERIALIZED (SELECT y, sum(c) AS cy FROM c GROUP BY y)
SELECT
  round((SELECT sum((c.c / t.n) * log2(c.c * t.n / (mx.cx * my.cy)))
         FROM c CROSS JOIN t JOIN mx USING (x) JOIN my USING (y)), 4) AS mi_bits,
  round((SELECT -sum((mx.cx / t.n) * log2(mx.cx / t.n))
         FROM mx CROSS JOIN t), 4) AS h_x_bits,
  round((SELECT -sum((my.cy / t.n) * log2(my.cy / t.n))
         FROM my CROSS JOIN t), 4) AS h_y_bits,
  (SELECT CAST(n AS BIGINT) FROM t) AS n
"""


def q_embed_covariance(sf_dir: str):
    """Distributed covariance / PCA statistics
    (stages/stats.py:embedding_second_moments): ONE linear pass over
    the embeddings; each batch emits a (64×64 XᵀX + sums + count)
    int64 partial — kilobytes — driver-reduced, no shuffle (the
    kmeans partial-reduction shape). Fixed-point quantization makes
    every cell integer-exact, so the upper-triangle second moments
    match the SQL join-aggregate bit-for-bit. Output: (i, j, sxy,
    s_i, s_j, n) — everything a consumer needs to form the exact
    covariance (cov = (sxy − s_i·s_j/n)/n); the d³ eigensolve is
    driver-side (stats.pca_components, pytest-gated)."""
    from commons_codec_ray.stages.stats import embedding_second_moments

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    S, sums, n = embedding_second_moments(emb)
    d = len(sums)
    iu, ju = np.triu_indices(d)
    return pa.table(
        {
            "i": pa.array(iu.astype(np.int64)),
            "j": pa.array(ju.astype(np.int64)),
            "sxy": pa.array(S[iu, ju], pa.int64()),
            "s_i": pa.array(sums[iu], pa.int64()),
            "s_j": pa.array(sums[ju], pa.int64()),
            "n": pa.array(np.full(len(iu), n, np.int64)),
        }
    )


_EMBED_COVARIANCE_SQL = """
WITH pts AS (
  SELECT vec_id, u.i AS dim,
         CAST(floor((CAST(embedding[u.i + 1] AS DOUBLE) + 2.0) * 1000000.0) AS BIGINT) AS qv
  FROM embeddings, (SELECT unnest(range(64)) AS i) u),
m AS (SELECT dim, sum(qv) AS s FROM pts GROUP BY dim),
xx AS (
  SELECT a.dim AS i, b.dim AS j, sum(a.qv * b.qv) AS sxy, count(*) AS n
  FROM pts a JOIN pts b ON a.vec_id = b.vec_id AND a.dim <= b.dim
  GROUP BY a.dim, b.dim)
SELECT CAST(x.i AS BIGINT) AS i, CAST(x.j AS BIGINT) AS j,
       CAST(x.sxy AS BIGINT) AS sxy, CAST(mi.s AS BIGINT) AS s_i,
       CAST(mj.s AS BIGINT) AS s_j, CAST(x.n AS BIGINT) AS n
FROM xx x JOIN m mi ON mi.dim = x.i JOIN m mj ON mj.dim = x.j
"""


def q_kmeans(sf_dir: str):
    """Distributed k-means, full Lloyd iterations (stages/kmeans.py):
    fixed-point int64 coordinates (translation offset keeps everything
    non-negative so numpy floor division and DuckDB's truncating ``//``
    agree), exact integer squared-distance assignments with
    ties → lowest cid, integer-mean updates, empty clusters keep their
    centroid. No shuffle: each iteration is one linear pass emitting a
    k×(dims+1) int64 partial per batch, reduced and re-broadcast by the
    driver. The oracle replays the identical integer iterations with
    unrolled CTEs (same trick as pagerank)."""
    from commons_codec_ray.stages.kmeans import kmeans_lloyd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kmeans_lloyd(emb, k=4, iterations=3)


def _kmeans_cte(k: int, iters: int, dims: int) -> str:
    """Shared unrolled-CTE body replaying kmeans_lloyd's integer
    iterations up through the final centroids ``c{iters}`` (used by
    both the kmeans oracle and the semdedup oracle)."""
    head = f"""
WITH pts AS (
  SELECT vec_id, u.i AS dim,
         CAST(floor((CAST(embedding[u.i + 1] AS DOUBLE) + 2.0) * 1000000.0) AS BIGINT) AS qv
  FROM embeddings, (SELECT unnest(range({dims})) AS i) u),
c0 AS (
  SELECT i.cid, p.dim, p.qv AS cv
  FROM (SELECT vec_id, CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cid
        FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})) i
  JOIN pts p USING (vec_id))"""
    steps = [
        f""",
d{j} AS (
  SELECT p.vec_id, c.cid, sum((p.qv - c.cv) * (p.qv - c.cv)) AS d
  FROM pts p JOIN c{j - 1} c USING (dim) GROUP BY p.vec_id, c.cid),
a{j} AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn
    FROM d{j}) WHERE rn = 1),
s{j} AS (
  SELECT a.cid, p.dim, sum(p.qv) AS s, count(*) AS n
  FROM a{j} a JOIN pts p USING (vec_id) GROUP BY a.cid, p.dim),
c{j} AS (
  SELECT c.cid, c.dim, CAST(COALESCE(s.s // s.n, c.cv) AS BIGINT) AS cv
  FROM c{j - 1} c LEFT JOIN s{j} s ON s.cid = c.cid AND s.dim = c.dim)"""
        for j in range(1, iters + 1)
    ]
    return head + "".join(steps)


def _kmeans_sql(k: int, iters: int, dims: int) -> str:
    return (
        _kmeans_cte(k, iters, dims)
        + f""",
z AS (SELECT cid, CAST(count(*) AS BIGINT) AS size FROM a{iters} GROUP BY cid)
SELECT c.cid, c.dim, c.cv AS cval, COALESCE(z.size, 0) AS size
FROM c{iters} c LEFT JOIN z USING (cid)"""
    )


_KMEANS_SQL = _kmeans_sql(4, 3, 64)


def q_semdedup(sf_dir: str):
    """SemDeDup semantic dedup (stages/dedup.py:semdedup — public
    method, Abbas et al. 2023): fixed-point k-means clusters the
    embeddings (k=4, 3 Lloyd iterations, the oracle-replayable integer
    engine behind `kmeans`), the final assignment is one linear pass
    against the broadcast centroid matrix, and near-duplicates are
    pruned WITHIN each cluster only (cosine ≥ 0.35, drop iff a
    smaller-id same-cluster vector matches). One cid-keyed exchange
    total; the oracle unrolls the identical integer iterations and
    applies the same NOT-EXISTS prune per cluster."""
    from commons_codec_ray.stages.dedup import semdedup

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semdedup(emb, k=4, iterations=3, threshold=0.35)


def _semdedup_sql(k: int, iters: int, dims: int) -> str:
    return (
        _kmeans_cte(k, iters, dims)
        + f""",
df AS (
  SELECT p.vec_id, c.cid, sum((p.qv - c.cv) * (p.qv - c.cv)) AS d
  FROM pts p JOIN c{iters} c USING (dim) GROUP BY p.vec_id, c.cid),
af AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn
    FROM df) WHERE rn = 1)
SELECT CAST(a.cid AS BIGINT) AS cid, v.vec_id
FROM af a JOIN embeddings v USING (vec_id)
WHERE NOT EXISTS (
  SELECT 1 FROM af b JOIN embeddings u ON u.vec_id = b.vec_id
  WHERE b.cid = a.cid AND u.vec_id < v.vec_id
    AND list_cosine_similarity(CAST(u.embedding AS DOUBLE[]),
                               CAST(v.embedding AS DOUBLE[])) >= 0.35)"""
    )


_SEMDEDUP_SQL = _semdedup_sql(4, 3, 64)


def q_kmeans_pp(sf_dir: str):
    """k-means|| seeding quality gate (stages/kmeans.py
    seed_kmeans_parallel): the deterministic k-means|| sweep —
    splitmix-coin sampling with probability ℓ·d²/ψ per round, candidate
    weighting by one assignment pass, weighted farthest-first reduction
    to k — must end (after the same Lloyd iterations) with exact integer
    inertia no worse than 1.05× the lowest-id seeding's. The seeding
    itself is sampling-based and not worth a bit-exact SQL replay, so
    the oracle is a constant gate row (the lsh/ivf recall-gate
    pattern)."""
    from commons_codec_ray.stages.kmeans import kmeans_compare_inits

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    res = kmeans_compare_inits(emb, k=4, iterations=3)
    ok = 20 * res["kmeans_par"] <= 21 * res["low_ids"]
    return pa.table({"init_ok": pa.array([ok], pa.bool_()), "k": pa.array([4], pa.int64())})


_KMEANS_PP_SQL = "SELECT true AS init_ok, CAST(4 AS BIGINT) AS k"


# ---------------------------------------------------------------------------
# Token n-gram family: decontamination, duplicated spans, chunking,
# repetition signals (stages/ngrams.py)
# ---------------------------------------------------------------------------


def q_bm25(sf_dir: str):
    """BM25 relevance top-20 for a fixed query (stages/ranking.py
    bm25_topk): all-integer rational scoring (floor divisions
    everywhere) so the oracle's identical arithmetic ranks and scores
    bit-exactly — no libm log whose last ulp could differ. Two linear
    passes, no shuffle: tiny df/corpus-stat partials reduce driver-side
    and broadcast into a vectorized per-batch scoring pass with local
    top-k."""
    from commons_codec_ray.stages.ranking import bm25_topk

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_topk(docs, query_terms=["table", "row", "key", "scan"], k=20)


_BM25_SQL = """
WITH consts AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS a
  FROM documents),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
dl AS (SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS dl
       FROM documents),
q(term) AS (VALUES ('table'), ('row'), ('key'), ('scan')),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok JOIN q ON tok = term GROUP BY term),
tf AS (SELECT doc_id, tok AS term, CAST(count(*) AS BIGINT) AS tf
       FROM tok JOIN q ON tok = term GROUP BY doc_id, tok),
scores AS (
  SELECT tf.doc_id,
         sum(((2*c.n - 2*df.df + 1) * 1000000 // (2*df.df + 1))
             * (44*tf.tf*c.a)
             // (20*tf.tf*c.a + 6*c.a + 18*dl.dl*c.n)) AS score
  FROM tf
  JOIN df USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN consts c
  GROUP BY tf.doc_id)
SELECT doc_id, CAST(score AS BIGINT) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 20
"""


def q_rrf_fusion(sf_dir: str):
    """Hybrid retrieval via Reciprocal Rank Fusion (Cormack et al.
    2009, the standard public hybrid-search combiner): fuse the BM25
    lexical top-20 (integer-rational scoring, stages/ranking.bm25_topk)
    with the cosine vector top-20 for a fixed query vector into
    RRF = Σ 10⁹ // (60 + rank) — all-integer, so ranks and fused
    scores replay bit-exactly in SQL. Scale shape: the lexical arm is
    the existing two-linear-pass BM25 (no shuffle); the vector arm
    broadcasts ONE query vector (`ray.put`) into a per-batch local
    top-k partial — driver merges 20-row partials, never the corpus;
    the fuse itself touches ≤ 40 rows. doc_id and vec_id share a key
    space in the driver tables, giving the classic hybrid-search
    setup."""
    import ray

    from commons_codec_ray.stages.ranking import bm25_topk

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lex = bm25_topk(docs, query_terms=["table", "row", "key", "scan"], k=20).to_pandas()
    lex = lex.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    lex_rank = {int(d): i + 1 for i, d in enumerate(lex["doc_id"])}

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qrow = emb.map_batches(
        lambda t: t.filter(pc.equal(t["vec_id"], 0)), batch_format="pyarrow"
    ).take(1)
    q = np.asarray(qrow[0]["embedding"], np.float64)
    qref = ray.put(q / np.linalg.norm(q))

    def local_topk(t: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        col = t["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = np.stack(col.to_numpy(zero_copy_only=False)).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        cos = duckdb_round(m @ qv, 4)
        order = np.lexsort((ids, -cos))[:20]
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "cos": pa.array(cos[order], pa.float64()),
            }
        )

    parts = emb.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        ["cos", "vec_id"], ascending=[False, True], kind="mergesort"
    ).head(20)
    vec_rank = {int(d): i + 1 for i, d in enumerate(parts["vec_id"])}

    rows = []
    for d in sorted(set(lex_rank) | set(vec_rank)):
        rl, rv = lex_rank.get(d, 0), vec_rank.get(d, 0)
        rrf = (10**9 // (60 + rl) if rl else 0) + (10**9 // (60 + rv) if rv else 0)
        rows.append((d, rrf, rl, rv))
    rows.sort(key=lambda x: (-x[1], x[0]))
    rows = rows[:10]
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "rrf": pa.array([r[1] for r in rows], pa.int64()),
            "r_lex": pa.array([r[2] for r in rows], pa.int64()),
            "r_vec": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


_RRF_FUSION_SQL = f"""
WITH lex AS ({_BM25_SQL}),
lexr AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r FROM lex),
vec AS (
  SELECT b.vec_id AS doc_id,
         round(list_cosine_similarity(CAST(b.embedding AS DOUBLE[]),
                                      CAST(q.embedding AS DOUBLE[])), 4) AS cos
  FROM embeddings b, (SELECT embedding FROM embeddings WHERE vec_id = 0) q),
vrank AS (
  SELECT doc_id, r FROM (
    SELECT doc_id, row_number() OVER (ORDER BY cos DESC, doc_id) AS r FROM vec)
  WHERE r <= 20),
ids AS (SELECT doc_id FROM lexr UNION SELECT doc_id FROM vrank),
f AS (
  SELECT i.doc_id,
         COALESCE(l.r, 0) AS r_lex,
         COALESCE(v.r, 0) AS r_vec,
         COALESCE(1000000000 // (60 + l.r), 0)
           + COALESCE(1000000000 // (60 + v.r), 0) AS rrf
  FROM ids i LEFT JOIN lexr l USING (doc_id) LEFT JOIN vrank v USING (doc_id))
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(rrf AS BIGINT) AS rrf,
       CAST(r_lex AS BIGINT) AS r_lex, CAST(r_vec AS BIGINT) AS r_vec
FROM f ORDER BY rrf DESC, doc_id LIMIT 10
"""


def q_embed_quantize(sf_dir: str):
    """Symmetric int8 embedding quantization (stages/similarity.py
    ``quantize_int8``): per-vector max-|v| scaling, fixed double-op
    order matching the oracle bit-exactly; one linear pass, flattened
    (vec_id, dim, qv) output."""
    from commons_codec_ray.stages.similarity import quantize_int8

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return quantize_int8(emb)


_EMBED_QUANTIZE_SQL = """
WITH p AS (
  SELECT vec_id, u.i AS dim, CAST(embedding[u.i + 1] AS DOUBLE) AS v
  FROM embeddings, (SELECT unnest(range(64)) AS i) u),
ma AS (SELECT vec_id, max(abs(v)) AS ma FROM p GROUP BY vec_id)
SELECT p.vec_id, p.dim,
       CASE WHEN m.ma = 0 THEN 0
            ELSE CAST(floor((p.v * 127.0) / m.ma) AS BIGINT) END AS qv
FROM p JOIN ma m USING (vec_id)
"""


def q_zorder(sf_dir: str):
    """Z-order layout quality (stages/layout.py ``zorder_stats``): rows
    tagged with the 6-bit Morton-prefix bucket of (user_id, epoch_day)
    — the Delta/Iceberg OPTIMIZE ZORDER BY primitive — and reduced to
    per-bucket (n, min/max of both dims), the bounding rectangles
    file-skipping relies on. Pure integer bit interleaving (vectorized
    magic-number spread), so the oracle's explicit 32-term bit sum
    reproduces every code and stat exactly."""
    from commons_codec_ray.stages.layout import zorder_stats

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    DAY_US = 86_400_000_000

    def xy(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": t["user_id"].cast(pa.int64()),
                "y": pa.array(
                    t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // DAY_US,
                    pa.int64(),
                ),
            }
        )

    return zorder_stats(ev.map_batches(xy, batch_format="pyarrow"), "x", "y")


def _zorder_sql(bits: int = 16, prefix_bits: int = 6) -> str:
    terms = []
    for i in range(bits):
        terms.append(f"(((x >> {i}) & 1) << {2 * i})")
        terms.append(f"(((y >> {i}) & 1) << {2 * i + 1})")
    code = " + ".join(terms)  # disjoint bit positions: + == bitwise OR
    return f"""
WITH p0 AS (
  SELECT user_id AS rx,
         CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS ry
  FROM events),
mm AS (SELECT min(rx) AS x0, max(rx) AS x1, min(ry) AS y0, max(ry) AS y1 FROM p0),
p AS (
  SELECT rx, ry,
         ((rx - m.x0) * 65536) // (m.x1 - m.x0 + 1) AS x,
         ((ry - m.y0) * 65536) // (m.y1 - m.y0 + 1) AS y
  FROM p0, mm m),
z AS (SELECT rx, ry, ({code}) >> {32 - prefix_bits} AS zbucket FROM p)
SELECT zbucket, CAST(count(*) AS BIGINT) AS n,
       min(rx) AS min_x, max(rx) AS max_x, min(ry) AS min_y, max(ry) AS max_y
FROM z GROUP BY zbucket
"""


_ZORDER_SQL = _zorder_sql()


def q_ntile(sf_dir: str):
    """Exact distributed NTILE(4) over the full events table
    (stages/ranking.py ``ntile``, riding the sampled-range-partition
    global_rank machinery — one shuffle, no single-node sort), total
    order (value, event_id)."""
    from commons_codec_ray.stages.ranking import ntile

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    return ntile(ev, value="value", tiebreak="event_id", k=4).select_columns(
        ["event_id", "tile"]
    )


_NTILE_SQL = """
SELECT event_id, CAST(ntile(4) OVER (ORDER BY value, event_id) AS BIGINT) AS tile
FROM events
"""


def q_cdc_feed_enriched(sf_dir: str):
    """Streaming ENRICHMENT composed on the change feed: epoch-2
    row-level changes joined to the customer→nation dimension
    (driver-read once, broadcast via closure — never re-shipped per
    batch) and reduced to change counts per nation. The
    dimension-enrichment consumer every CDC deployment runs; one linear
    pass over the feed, per-batch count partials, kilobyte final
    reduce. Oracle: the feed CTE joined to customer/nation in SQL."""
    import shutil as _shutil
    import tempfile as _tempfile

    import pyarrow.parquet as _pq

    from commons_codec_ray.pipelines.cdc import CDCPipeline

    events = _pq.read_table(f"{sf_dir}/events.parquet")
    n = events.num_rows
    boundary = n // 2
    env = EventsToEnvelopes(duplicates=True)(events)
    e1 = env.filter(pc.less(env["lsn"], boundary))
    e2 = env.filter(pc.greater_equal(env["lsn"], boundary))

    cust = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nat = _pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ckey = cust["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnat = cust["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ckey, kind="stable")
    ckey, cnat = ckey[order], cnat[order]
    nkey = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nname = nat["n_name"].to_numpy(zero_copy_only=False)
    nname_by_key = nname[np.argsort(nkey, kind="stable")]

    lake = _tempfile.mkdtemp(prefix="ccr_enrich_")
    try:
        pipe = CDCPipeline(lake, PipelineConfig(num_partitions=16, emit_changes=True))
        for epoch, part in enumerate((e1, e2)):
            offs = part["source_offset"]
            pipe.run_epoch(
                rd.from_arrow(part),
                epoch=epoch,
                offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
            )
        feed = pipe.read_changes(epoch=1)

        def partial(t: pa.Table) -> pa.Table:
            user = (
                pc.utf8_slice_codeunits(t["conv_id"], 2)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            nation = cnat[np.searchsorted(ckey, user)]
            df = pd.DataFrame(
                {"nk": nation, "change": t["change"].to_numpy(zero_copy_only=False)}
            )
            out = df.groupby(["nk", "change"], as_index=False).size()
            return pa.table(
                {
                    "nk": pa.array(out["nk"].to_numpy(np.int64), pa.int64()),
                    "change": pa.array(out["change"].to_numpy(), pa.string()),
                    "c": pa.array(out["size"].to_numpy(np.int64), pa.int64()),
                }
            )

        parts = feed.map_batches(partial, batch_format="pyarrow").to_pandas()
        final = parts.groupby(["nk", "change"], as_index=False)["c"].sum()
        return pa.table(
            {
                "n_name": pa.array(
                    nname_by_key[final["nk"].to_numpy(np.int64)], pa.string()
                ),
                "change": pa.array(final["change"].to_numpy(), pa.string()),
                "n_changes": pa.array(final["c"].to_numpy(np.int64), pa.int64()),
            }
        )
    finally:
        _shutil.rmtree(lake, ignore_errors=True)


_CDC_FEED_ENRICHED_SQL = f"""
SELECT n.n_name, feed.change, CAST(count(*) AS BIGINT) AS n_changes
FROM ({_CDC_CHANGE_FEED_SQL}) feed
JOIN customer c ON c.c_custkey = CAST(substr(feed.conv_id, 3) AS BIGINT)
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name, feed.change
"""


class PiiScrubber:
    """Stateful map_batches stage: regex PII scrubbing (emails, phone
    shapes) with patterns COMPILED ONCE per actor in __init__ — the
    load-once-per-worker pattern for the most common training-data
    hygiene pass. Patterns are RE2-compatible (no backrefs/lookaround)
    so the DuckDB oracle's regexp_replace matches byte-for-byte."""

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    PHONE = r"\b\d{3}[-.]\d{4}\b"

    def __init__(self):
        import re

        self.email = re.compile(self.EMAIL)
        self.phone = re.compile(self.PHONE)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # plant deterministic PII so the scrub is exercised on every row
        # (the synthetic corpus contains none); the oracle plants the
        # same prefix in SQL
        texts = [
            f"contact u{int(i)}@example.com tel 555-0100 {s}"
            for i, s in zip(ids, t["text"].to_pylist())
        ]
        scrubbed = [
            self.phone.sub("[PHONE]", self.email.sub("[EMAIL]", s)) for s in texts
        ]
        n_email = [s.count("[EMAIL]") for s in scrubbed]
        n_phone = [s.count("[PHONE]") for s in scrubbed]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(scrubbed, pa.string()),
                "n_email": pa.array(n_email, pa.int64()),
                "n_phone": pa.array(n_phone, pa.int64()),
            }
        )


def q_pii_scrub(sf_dir: str):
    """PII scrubbing over the documents corpus: emails and phone shapes
    replaced with typed placeholders, per-doc redaction counts kept for
    audit. Actor-pool stage (patterns compiled once per actor); oracle
    is DuckDB regexp_replace with the identical RE2 patterns."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        PiiScrubber, concurrency=pool_size(4), batch_format="pyarrow"
    )


_PII_SCRUB_SQL = f"""
WITH planted AS (
  SELECT doc_id,
         'contact u' || CAST(doc_id AS VARCHAR) || '@example.com tel 555-0100 '
           || text AS text
  FROM documents),
scrubbed AS (
  SELECT doc_id,
         regexp_replace(
           regexp_replace(text, '{PiiScrubber.EMAIL}', '[EMAIL]', 'g'),
           '{PiiScrubber.PHONE}', '[PHONE]', 'g') AS text
  FROM planted)
SELECT doc_id, text,
       CAST(length(text) - length(replace(text, '[EMAIL]', ''))
            AS BIGINT) // 7 AS n_email,
       CAST(length(text) - length(replace(text, '[PHONE]', ''))
            AS BIGINT) // 7 AS n_phone
FROM scrubbed
"""


def q_normalize_text(sf_dir: str):
    """Canonical text normalization (stages/text.py ``normalize_text``):
    lowercase, non-alphanumerics → space, squeeze, trim — the standard
    pre-dedup/fingerprint pass. Pure zero-copy Arrow RE2 kernels;
    DuckDB's regexp_replace (also RE2) is byte-identical by
    construction."""
    from commons_codec_ray.stages.text import normalize_text

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(normalize_text, batch_format="pyarrow").select_columns(
        ["doc_id", "norm"]
    )


_NORMALIZE_TEXT_SQL = """
SELECT doc_id,
       trim(regexp_replace(regexp_replace(lower(text), '[^a-z0-9 ]', ' ', 'g'),
                           ' +', ' ', 'g'), ' ') AS norm
FROM documents
"""


def q_histogram(sf_dir: str):
    """Global equi-width histogram of events.value (stages/quantiles.py
    ``equi_width_histogram``): one combined min/max aggregate pass plus
    one linear pass of kilobyte count-vector partials; edges evaluated
    in a fixed double-precision order the oracle replicates
    bit-exactly."""
    from commons_codec_ray.stages.quantiles import equi_width_histogram

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return equi_width_histogram(ds, "value", bins=64)


_HISTOGRAM_SQL = """
WITH mm AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
b AS (
  SELECT CAST(least(63.0, greatest(0.0,
           floor(((e.value - m.lo) * 64.0) / (m.hi - m.lo)))) AS BIGINT) AS bucket
  FROM events e, mm m),
c AS (SELECT bucket, CAST(count(*) AS BIGINT) AS c FROM b GROUP BY bucket)
SELECT u.bucket,
       m.lo + (CAST(u.bucket AS DOUBLE) * (m.hi - m.lo)) / 64.0 AS lo_edge,
       m.lo + ((CAST(u.bucket AS DOUBLE) + 1.0) * (m.hi - m.lo)) / 64.0 AS hi_edge,
       COALESCE(c.c, 0) AS c
FROM (SELECT unnest(range(64)) AS bucket) u
LEFT JOIN c USING (bucket) CROSS JOIN mm m
"""


def q_retention(sf_dir: str):
    """Cohort retention matrix (stages/stats.py ``retention_cohorts``):
    users cohorted by first active day, distinct-user counts per
    (cohort_day, day_offset). One hash-bucketed exchange on the user
    key with within-batch (user, day) dedup as the combiner; only
    kilobyte count partials move after that. Integer epoch days end to
    end — no date types to drift between engines."""
    from commons_codec_ray.stages.stats import retention_cohorts

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return retention_cohorts(ev)


_RETENTION_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS d
  FROM events),
c AS (SELECT user_id, min(d) AS cohort_day FROM ud GROUP BY user_id)
SELECT c.cohort_day, ud.d - c.cohort_day AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2
"""


def q_bigrams(sf_dir: str):
    """Exact global top-30 token bigrams (stages/text.py
    ``top_bigrams``): vectorized bigram construction from Arrow split
    offsets, within-batch counting (combiner), one hash-bucketed
    exchange of distinct (bigram, count) partials, exact per-bucket
    top-k merged on the driver. Ties (count desc, bigram asc) match the
    oracle's ORDER BY."""
    from commons_codec_ray.stages.text import top_bigrams

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_bigrams(docs, k=30)


_BIGRAMS_SQL = """
WITH l AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
b AS (SELECT toks[u.i] || ' ' || toks[u.i + 1] AS bg
      FROM l, LATERAL unnest(range(1, len(toks))) AS u(i))
SELECT bg, CAST(count(*) AS BIGINT) AS c
FROM b GROUP BY bg ORDER BY c DESC, bg LIMIT 30
"""


def q_skyline(sf_dir: str):
    """2-D skyline / Pareto frontier over lineitem maximizing
    (price, qty) (stages/ranking.py ``skyline``): vectorized local
    sweep per batch — skyline is idempotent over union, so local
    frontiers compose — then one single-partition final sweep over the
    few survivors. No shuffle. The oracle takes the equivalent
    group-max + running-max formulation (a NOT EXISTS dominance scan
    would be O(n²))."""
    from commons_codec_ray.stages.ranking import skyline

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_quantity"],
    )
    out = skyline(li, x="l_extendedprice", y="l_quantity")
    return out.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "l_linenumber", "price", "qty"]),
        batch_format="pyarrow",
    )


_SKYLINE_SQL = """
WITH t AS (SELECT l_orderkey, l_linenumber, l_extendedprice AS p, l_quantity AS q
           FROM lineitem),
pg AS (SELECT p, max(q) AS gm FROM t GROUP BY p),
pr AS (SELECT p, gm,
         max(gm) OVER (ORDER BY p DESC ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS hb
       FROM pg)
SELECT t.l_orderkey, t.l_linenumber, t.p AS price, t.q AS qty
FROM t JOIN pr USING (p)
WHERE t.q = pr.gm AND (pr.hb IS NULL OR t.q > pr.hb)
"""


def q_decontam(sf_dir: str):
    """Eval-set decontamination (the 13-gram-overlap hygiene step of
    GPT-3/PaLM data cards, here n=5): documents sharing any token
    n-gram with a held-out eval set are dropped. The eval set is tiny
    by construction — its sorted n-gram hash array is built driver-side
    and broadcast ONCE via ray.put; the corpus streams through a
    searchsorted membership filter with NO shuffle. Planted oracle: the
    eval set IS the doc_id % 10 == 0 slice of the disjoint-vocabulary
    corpus, so contamination hits exactly those documents and survivors
    are SQL-predictable."""
    import pyarrow.parquet as _pq
    import ray as _ray

    from commons_codec_ray.stages import ngrams

    N = 5
    ev = _pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    mask = ev["doc_id"].to_numpy() % 10 == 0
    ev = _disjoint_vocab(ev.filter(pa.array(mask)))
    eval_ref = _ray.put(ngrams.eval_ngram_hashes(ev["text"], N))

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(_disjoint_vocab, batch_format="pyarrow")
    clean = ngrams.decontaminate(corpus, eval_ref, n=N)
    return clean.select_columns(["doc_id"])


_DECONTAM_SQL = "SELECT doc_id FROM documents WHERE doc_id % 10 <> 0"


def q_substring_dedup(sf_dir: str):
    """Cross-document duplicated-substring detection (doc-level Lee et
    al.): flag every document sharing a full 8-token span with another
    document. One integer-keyed all-to-all of distinct (span-hash, doc)
    pairs; a hash under ≥2 distinct ids marks its docs. Planted corpus:
    disjoint-vocab originals + a copy (doc_id+1e6) carrying the first
    half of the original's tokens — a pair shares a full span iff
    floor(tokens/2) ≥ 8, which the oracle states directly."""
    from commons_codec_ray.stages import ngrams

    W = 8

    def planted(t: pa.Table) -> pa.Table:
        d = _disjoint_vocab(t)
        ids = d["doc_id"].to_pylist()
        halves = []
        for i, x in zip(ids, d["text"].to_pylist()):
            toks = (x or "").split()
            h = toks[: len(toks) // 2]
            halves.append(" ".join(h) if h else f"__half_{i}")
        copy = pa.table(
            {
                "doc_id": pc.add(d["doc_id"], 1_000_000),
                "text": pa.array(halves, pa.string()),
            }
        )
        return pa.concat_tables([d, copy])

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(planted, batch_format="pyarrow")
    return ngrams.duplicated_span_docs(corpus, window=W).select_columns(["doc_id"])


_SUBSTRING_DEDUP_SQL = """
WITH n AS (SELECT doc_id, len(string_split(text, ' ')) AS nt FROM documents)
SELECT doc_id FROM n WHERE nt // 2 >= 8
UNION ALL
SELECT doc_id + 1000000 AS doc_id FROM n WHERE nt // 2 >= 8
"""


def q_span_removal(sf_dir: str):
    """The full Lee-et-al duplicated-substring REMOVAL (substring_dedup
    only flags): tokens covered by any cross-document duplicated 8-token
    span are cut out and the remainder re-joined. On the planted corpus
    (disjoint originals + first-half copies) the duplicated extent is
    exactly the original's first half, so the surviving token count AND
    the sum of surviving token positions are closed-form — the oracle
    pins the exact cut boundaries, not just how much was cut."""
    from commons_codec_ray.stages import ngrams

    W = 8

    def planted(t: pa.Table) -> pa.Table:
        d = _disjoint_vocab(t)
        ids = d["doc_id"].to_pylist()
        halves = []
        for i, x in zip(ids, d["text"].to_pylist()):
            toks = (x or "").split()
            h = toks[: len(toks) // 2]
            halves.append(" ".join(h) if h else f"__half_{i}")
        copy = pa.table(
            {
                "doc_id": pc.add(d["doc_id"], 1_000_000),
                "text": pa.array(halves, pa.string()),
            }
        )
        return pa.concat_tables([d, copy])

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    corpus = docs.map_batches(planted, batch_format="pyarrow")
    out = ngrams.remove_duplicated_spans(corpus, window=W)
    return out.select_columns(["doc_id", "n_kept", "kept_pos_sum"])


# planted-data note: hl >= 5 at every sf (docs have ≥10 tokens), so the
# hl = 0 sentinel branch of the planting helper never fires here
_SPAN_REMOVAL_SQL = """
WITH t AS (SELECT doc_id, len(string_split(text, ' ')) AS nt FROM documents),
h AS (SELECT doc_id, nt, nt // 2 AS hl FROM t)
SELECT doc_id,
       CAST(CASE WHEN hl >= 8 THEN nt - hl ELSE nt END AS BIGINT) AS n_kept,
       CAST(CASE WHEN hl >= 8 THEN (hl + nt - 1) * (nt - hl) // 2
                 ELSE (nt - 1) * nt // 2 END AS BIGINT) AS kept_pos_sum
FROM h
UNION ALL
SELECT doc_id + 1000000 AS doc_id,
       CAST(CASE WHEN hl >= 8 THEN 0 ELSE hl END AS BIGINT) AS n_kept,
       CAST(CASE WHEN hl >= 8 THEN 0 ELSE (hl - 1) * hl // 2 END AS BIGINT)
         AS kept_pos_sum
FROM h
"""


def q_chunk_overlap(sf_dir: str):
    """Overlapping token chunking (RAG / context-window prep): every
    document becomes chunks of 32 tokens at stride 24 (8-token overlap).
    Embarrassingly parallel — no shuffle; chunk text is carved from the
    original string by precomputed character offsets, one C-level slice
    per chunk. The oracle recomputes every chunk with DuckDB list
    slicing, so text, index and length are all hash-checked."""
    from commons_codec_ray.stages import ngrams

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ngrams.chunk_tokens(docs, chunk=32, stride=24)


_CHUNK_OVERLAP_SQL = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
c AS (SELECT doc_id, toks,
             unnest(generate_series(0, CAST((len(toks) - 1) // 24 AS BIGINT))) AS ci
      FROM t)
SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
       array_to_string(toks[CAST(ci*24 + 1 AS BIGINT):CAST(ci*24 + 32 AS BIGINT)], ' ')
         AS chunk_text,
       CAST(least(len(toks) - ci*24, 32) AS BIGINT) AS n_tokens
FROM c
"""


def q_rep_signals(sf_dir: str):
    """Per-document repetition signals (the Gopher-rule family): token
    count, distinct-token count, the count of the most frequent token
    and of the most frequent bigram. Each document is one row, so the
    whole profile is shuffle-free map_batches; bigrams are counted on
    integer token-code pairs (factorize once per batch, key =
    code_a·V + code_b) — no per-doc loop, no bigram strings built.
    All-integer output ⇒ the oracle comparison is exact."""
    from commons_codec_ray.stages.ngrams import rep_signals_batch

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(rep_signals_batch, batch_format="pyarrow")


_REP_SIGNALS_SQL = """
WITH tk AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
tok AS (SELECT doc_id, toks, unnest(range(1, len(toks) + 1)) AS pos FROM tk),
base AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(DISTINCT toks[pos]) AS BIGINT) AS n_distinct
  FROM tok GROUP BY doc_id),
tcnt AS (SELECT doc_id, toks[pos] AS tk1, count(*) AS c FROM tok GROUP BY doc_id, tk1),
ttop AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_token FROM tcnt GROUP BY doc_id),
bg AS (SELECT doc_id, toks[pos] || ' ' || toks[pos + 1] AS b, count(*) AS c
       FROM tok WHERE pos < len(toks) GROUP BY doc_id, b),
btop AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram FROM bg GROUP BY doc_id)
SELECT base.doc_id, n_tokens, n_distinct, top_token,
       coalesce(top_bigram, 0) AS top_bigram
FROM base JOIN ttop USING (doc_id) LEFT JOIN btop USING (doc_id)
"""


def q_cdc_compaction(sf_dir: str):
    """Offline small-file compaction driver-gated end-to-end
    (``CDCPipeline.compact`` — the maintenance analog of a lakehouse
    rewrite-data-files job): a delta-sink replay with inline
    auto-compaction DISABLED leaves base+delta chains per partition;
    ``compact()`` folds every chained partition into ONE full file in
    a ZERO-WIDTH maintenance epoch through the standard two-phase
    manifest commit (crash-safe, atomic reader flip, resume cursor
    untouched). One Ray merge task per chained partition — cost is
    O(chained partitions), never O(lake). The compacted lake must be
    byte-equal to the merge-on-read view — same oracle as cdc_replay;
    the query itself asserts the maintenance actually folded chains so
    a silent no-op cannot pass."""
    from commons_codec_ray.sink.manifest import entry_files

    def compact_and_assert(pipe):
        before = pipe.checkpoint()
        res = pipe.compact()
        after = pipe.checkpoint()
        if res.get("skipped") or res["files_after"] >= res["files_before"]:
            raise AssertionError(f"compaction was a no-op: {res}")
        if after.next_offset != before.next_offset:
            raise AssertionError("maintenance epoch moved the resume cursor")
        if any(entry_files(e)[1] for e in after.partitions.values()):
            raise AssertionError("delta chains survived compaction")

    return _q_replay_via_pipeline(
        sf_dir,
        post_replay=compact_and_assert,
        # the delta sink writes the first file per partition as a full
        # base, so chains need epochs 2+ to exist at EVERY sf
        epoch_floor=200,
        sink_mode="delta",
        # inline auto-compaction disabled: offline compact() needs chains
        compact_ratio=1e9,
        compact_max_deltas=10**6,
    )


def q_cdc_vacuum(sf_dir: str):
    """Lake VACUUM driver-gated end-to-end (``CDCPipeline.vacuum`` —
    orphan-file GC for the two-phase-commit protocol): after a clean
    replay the query plants every crash artifact the protocol can leave
    — a stray partition file inside a committed epoch (task died before
    the manifest), a FULL uncommitted epoch (file + manifest written,
    checkpoint swap never happened — the commit-point crash), and a
    stranded ``*.tmp`` staging file — then asserts dry-run reports
    exactly those four paths while deleting nothing, real vacuum
    removes exactly them, the checkpoint is untouched, and epoch-0 time
    travel still reads (retain_history keeps every committed manifest's
    files). The lake is then read back through the manifest — same
    oracle as cdc_replay, so a vacuum that deleted a LIVE file cannot
    pass."""

    def sabotage_and_vacuum(pipe):
        import pyarrow.parquet as _pq

        store = pipe.store
        before = pipe.checkpoint()
        junk = pa.table({"conv_id": pa.array(["zz"]), "x": pa.array([1])})
        stray = store.epoch_dir(0) / "part-9999.parquet"
        _pq.write_table(junk, stray)
        e = before.last_epoch + 1
        store.ensure_dirs(e)
        _pq.write_table(junk, store.partition_file(e, 0))
        rel = store.partition_file(e, 0).relative_to(store.root).as_posix()
        store.write_manifest(
            e,
            {
                "offset_range": [0, 0],
                "files": {
                    "transcripts#0": {
                        "path": rel, "rows": 1, "max_lsn": 0, "kind": "full",
                    }
                },
                "registry": {},
                "metrics": {},
            },
        )
        tmp = store.epoch_dir(0) / "manifest.json.tmp-999"
        tmp.write_text("{}")
        dry = pipe.vacuum(dry_run=True)
        if dry["orphans_removed"] != 4:
            raise AssertionError(f"dry-run found wrong orphan set: {dry}")
        if not (stray.exists() and tmp.exists()):
            raise AssertionError("dry-run deleted files")
        res = pipe.vacuum()
        if res["orphans_removed"] != 4 or res["bytes_reclaimed"] <= 0:
            raise AssertionError(f"vacuum removed wrong set: {res}")
        if stray.exists() or tmp.exists() or store.partition_file(e, 0).exists():
            raise AssertionError("orphans survived vacuum")
        if pipe.checkpoint().to_dict() != before.to_dict():
            raise AssertionError("vacuum touched the checkpoint")
        if pipe.read_lake(epoch=0).count() <= 0:
            raise AssertionError("epoch-0 time travel broken after vacuum")

    return _q_replay_via_pipeline(sf_dir, post_replay=sabotage_and_vacuum)


def _bipartite_edges(sf_dir: str):
    """Deterministic bipartite co-engagement graph shared by BOTH
    link-prediction queries and encoded identically in both SQL
    oracles (users 0..599 ↔ hubs 600..696; the q_triangles permutation
    graph has no wedges at all, so a co-engagement shape is used):
    ``src = eid % 600``, ``dst = 600 + eid % 97``. The input follows
    pool placement (``_graph_events``): an Arrow table below the driver
    bound, else a Dataset read in the floor's blocks, not Ray Data's
    default."""
    from commons_codec_ray.stages.graph import map_rows

    events = _graph_events(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"src": pa.array(eid % 600), "dst": pa.array(600 + eid % 97)}
        )

    return map_rows(events, edges)


def q_link_prediction(sf_dir: str):
    """Top-50 link prediction by common-neighbor count + exact integer
    Jaccard (stages/graph.py:link_prediction — the neighborhood-overlap
    predictors of Liben-Nowell & Kleinberg 2003) over the shared
    deterministic bipartite graph (``_bipartite_edges``).
    Symmetric-adjacency wedges are generated on the shard that owns
    their center, pre-reduced per pair and sent once to the owner of
    the pair's smaller end, which drops the pairs that are already
    edges (we predict ABSENT links) and keeps its top-k; then one
    kilobyte driver merge. All-integer scores under a total order ⇒
    the SQL self-join oracle replays the ranking bit-for-bit."""
    from commons_codec_ray.stages.graph import link_prediction

    return link_prediction(_bipartite_edges(sf_dir), top_k=50)


_LINK_PREDICTION_SQL = """
WITH raw AS (
  SELECT event_id % 600 AS a, 600 + event_id % 97 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
sym AS (SELECT u AS x, v AS y FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT x AS n, CAST(count(*) AS BIGINT) AS d FROM sym GROUP BY x),
open_cn AS (
  SELECT s1.y AS a, s2.y AS b, CAST(count(*) AS BIGINT) AS c
  FROM sym s1 JOIN sym s2 ON s1.x = s2.x AND s1.y < s2.y
  WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.u = s1.y AND e.v = s2.y)
  GROUP BY s1.y, s2.y)
SELECT CAST(o.a AS BIGINT) AS a, CAST(o.b AS BIGINT) AS b, o.c AS cn,
       (1000000 * o.c) // (da.d + db.d - o.c) AS jaccard_ppm
FROM open_cn o JOIN deg da ON da.n = o.a JOIN deg db ON db.n = o.b
ORDER BY jaccard_ppm DESC, cn DESC, a, b
LIMIT 50
"""


def q_link_prediction_ra(sf_dir: str):
    """Same top-50 link prediction through the RESOURCE-ALLOCATION
    index (Zhou, Lü & Zhang 2009): each common neighbor c contributes
    the exact integer ``RA_SCALE // deg(c)`` — the hub-discounting
    predictor — attached to the wedge at generation time and summed
    per candidate pair (int64-exact, order-independent, so the SQL
    sum-aggregate oracle replays the ranking bit-for-bit). Same
    bipartite graph (``_bipartite_edges``) and shards as
    q_link_prediction."""
    from commons_codec_ray.stages.graph import link_prediction

    return link_prediction(
        _bipartite_edges(sf_dir), top_k=50, score="resource_allocation"
    )


_LINK_PREDICTION_RA_SQL = """
WITH raw AS (
  SELECT event_id % 600 AS a, 600 + event_id % 97 AS b
  FROM events),
e AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM raw WHERE a <> b),
sym AS (SELECT u AS x, v AS y FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT x AS n, CAST(count(*) AS BIGINT) AS d FROM sym GROUP BY x),
open_ra AS (
  SELECT s1.y AS a, s2.y AS b, CAST(count(*) AS BIGINT) AS c,
         CAST(sum(1000000000 // dc.d) AS BIGINT) AS r
  FROM sym s1 JOIN sym s2 ON s1.x = s2.x AND s1.y < s2.y
  JOIN deg dc ON dc.n = s1.x
  WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.u = s1.y AND e.v = s2.y)
  GROUP BY s1.y, s2.y)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, c AS cn, r AS ra
FROM open_ra
ORDER BY ra DESC, cn DESC, a, b
LIMIT 50
"""


def q_dq_checks(sf_dir: str):
    """Declarative data-quality expectation suite (stages/dq.py — the
    Great-Expectations/Deequ shape re-expressed Ray-Data-first) over
    ``orders``: NULL check, numeric range, domain membership, key
    uniqueness, and referential integrity against a broadcast
    ``customer`` key set (``ray.put`` once, searchsorted per batch).
    All batch-local checks fold into count partials in ONE pruned
    scan; uniqueness rides one hash-keyed exchange of just the key
    column. Only kilobyte count rows ever reach the driver."""
    import ray as _ray

    import pyarrow.parquet as _pq

    from commons_codec_ray.stages.dq import Expectation, run_expectations

    ckeys = np.sort(
        _pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])[
            "c_custkey"
        ]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    ref = _ray.put(ckeys)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=[
            "o_orderkey",
            "o_custkey",
            "o_orderstatus",
            "o_totalprice",
            "o_orderdate",
        ],
    )
    return run_expectations(
        orders,
        [
            Expectation("orderdate_not_null", "o_orderdate", "not_null"),
            Expectation("orderkey_unique", "o_orderkey", "unique"),
            Expectation("custkey_fk", "o_custkey", "fk", ref=ref),
            Expectation(
                "status_domain", "o_orderstatus", "isin", values=("O", "F")
            ),
            Expectation(
                "totalprice_range", "o_totalprice", "range", lo=0.0, hi=250_000.0
            ),
        ],
    )


def q_table_profile(sf_dir: str):
    """Column profiler (stages/dq.py:profile_columns — the Deequ /
    Great-Expectations profiling shape): per-column row/null counts and
    exact numeric min/max from ONE pruned scan of kilobyte partials,
    plus EXACT distinct counts via ONE combined hash-bucketed exchange
    for all columns at once (per-batch distinct ORIGINAL values tagged
    by column index in typed lanes — equal (column, value) pairs
    co-bucket, so the routing hash can't inflate the count). min/max
    involve no arithmetic, so they match SQL bit-for-bit; non-numeric
    columns carry NULL."""
    from commons_codec_ray.stages.dq import profile_columns

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)
    return profile_columns(orders, cols)


_TABLE_PROFILE_SQL = """
SELECT 'o_orderkey' AS col_name, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
       CAST(min(o_orderkey) AS DOUBLE) AS min_num,
       CAST(max(o_orderkey) AS DOUBLE) AS max_num
FROM orders
UNION ALL
SELECT 'o_custkey', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_custkey) AS BIGINT),
       CAST(count(DISTINCT o_custkey) AS BIGINT),
       CAST(min(o_custkey) AS DOUBLE), CAST(max(o_custkey) AS DOUBLE)
FROM orders
UNION ALL
SELECT 'o_orderstatus', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderstatus) AS BIGINT),
       CAST(count(DISTINCT o_orderstatus) AS BIGINT),
       CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE)
FROM orders
UNION ALL
SELECT 'o_totalprice', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_totalprice) AS BIGINT),
       CAST(count(DISTINCT o_totalprice) AS BIGINT),
       CAST(min(o_totalprice) AS DOUBLE), CAST(max(o_totalprice) AS DOUBLE)
FROM orders
"""


_DQ_CHECKS_SQL = """
WITH n AS (SELECT CAST(count(*) AS BIGINT) AS c FROM orders),
checks AS (
  SELECT 'custkey_fk' AS check_name, (SELECT c FROM n) AS checked,
         CAST((SELECT count(*) FROM orders o WHERE o.o_custkey IS NOT NULL
               AND NOT EXISTS (SELECT 1 FROM customer c
                               WHERE c.c_custkey = o.o_custkey)) AS BIGINT)
           AS violations
  UNION ALL
  SELECT 'orderdate_not_null', (SELECT c FROM n),
         CAST((SELECT count(*) FROM orders WHERE o_orderdate IS NULL) AS BIGINT)
  UNION ALL
  SELECT 'orderkey_unique',
         CAST((SELECT count(o_orderkey) FROM orders) AS BIGINT),
         CAST((SELECT count(o_orderkey) - count(DISTINCT o_orderkey)
               FROM orders) AS BIGINT)
  UNION ALL
  SELECT 'status_domain', (SELECT c FROM n),
         CAST((SELECT count(*) FROM orders WHERE o_orderstatus IS NOT NULL
               AND o_orderstatus NOT IN ('O', 'F')) AS BIGINT)
  UNION ALL
  SELECT 'totalprice_range', (SELECT c FROM n),
         CAST((SELECT count(*) FROM orders WHERE o_totalprice IS NOT NULL
               AND (o_totalprice < 0 OR o_totalprice > 250000)) AS BIGINT)
)
SELECT check_name, checked, violations, violations = 0 AS passed
FROM checks ORDER BY check_name
"""


def q_gopher_quality(sf_dir: str):
    """Gopher-style repetition/quality filter signals (Rae et al. 2021
    appendix A1.1) over every document: exact integer word/uniq counts,
    top-2-gram occurrence count, duplicated-trigram excess, stop-word
    hits, and the composed keep gate — the published pre-training
    hygiene rules next to the ratio-based :class:`QualityScorer`.
    One linear pass, no shuffle."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        text_stage.GopherSignals, batch_format="pyarrow", concurrency=pool_size(2)
    )


_GOPHER_QUALITY_SQL = """
WITH toks AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents),
base AS (
  SELECT doc_id, CAST(len(t) AS BIGINT) AS n_words,
         CAST(len(list_distinct(t)) AS BIGINT) AS uniq_words,
         CAST(len(list_intersect(list_distinct(t),
              ['the', 'a', 'and', 'of', 'to'])) AS BIGINT) AS stop_hits
  FROM toks),
bg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(t)),
                               i -> t[i] || ' ' || t[i + 1])) AS g
  FROM toks WHERE len(t) >= 2),
bgc AS (
  SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_count
  FROM (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g)
  GROUP BY doc_id),
tg AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(t) - 1),
                i -> t[i] || ' ' || t[i + 1] || ' ' || t[i + 2])) AS g
  FROM toks WHERE len(t) >= 3),
tgc AS (
  SELECT doc_id, CAST(count(*) - count(DISTINCT g) AS BIGINT) AS dup_trigram_excess
  FROM tg GROUP BY doc_id)
SELECT b.doc_id, b.n_words, b.uniq_words,
       coalesce(bgc.top_bigram_count, 0) AS top_bigram_count,
       coalesce(tgc.dup_trigram_excess, 0) AS dup_trigram_excess,
       b.stop_hits,
       (b.n_words BETWEEN 10 AND 100000
        AND b.stop_hits >= 1
        AND coalesce(bgc.top_bigram_count, 0) * 1000000
            // greatest(b.n_words - 1, 1) <= 100000
        AND coalesce(tgc.dup_trigram_excess, 0) = 0
        AND b.uniq_words * 1000000 // greatest(b.n_words, 1) >= 400000) AS keep
FROM base b
LEFT JOIN bgc USING (doc_id)
LEFT JOIN tgc USING (doc_id)
"""


def q_dpo_pairs(sf_dir: str):
    """Preference-pair construction for reward-model / DPO training:
    per (source, lang) corpus slice, pair the highest-scored document
    (chosen) with the lowest-scored (rejected), deterministic doc_id
    tie-break, groups of one skipped. Score here is the exact n_chars
    column; in production it is any integer quality score.

    Scale shape: each batch emits at most TWO candidate rows plus a
    count partial per group it saw; one bucketed exchange of those
    candidates (O(groups x batches) rows, never the corpus) finishes
    the per-group argmax/argmin and the group-size guard — the
    first_last mergeable-order-statistic pattern."""
    nb = adaptive_buckets()
    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "lang", "n_chars"]
    )

    def candidates(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "lang": t["lang"].to_pylist(),
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
                "n_chars": t["n_chars"].to_numpy(zero_copy_only=False),
            }
        )
        cnt = df.groupby(["source", "lang"], as_index=False).size().rename(columns={"size": "_cnt"})
        hi = df.sort_values(
            ["source", "lang", "n_chars", "doc_id"],
            ascending=[True, True, False, True],
            kind="mergesort",
        ).drop_duplicates(["source", "lang"])
        lo = df.sort_values(
            ["source", "lang", "n_chars", "doc_id"],
            ascending=[True, True, True, False],
            kind="mergesort",
        ).drop_duplicates(["source", "lang"])
        # exactly ONE row per (group, batch) carries the batch's count
        # partial (the hi row; the lo row carries 0) so the merge phase
        # recovers the true group size as a plain sum
        hi = hi.merge(cnt, on=["source", "lang"])
        lo = lo.assign(_cnt=np.int64(0))
        out = pd.concat([hi, lo], ignore_index=True).drop_duplicates(
            ["source", "lang", "doc_id"], keep="first"
        )
        key = pd.util.hash_pandas_object(
            out["source"].astype(str) + "\x1f" + out["lang"].astype(str), index=False
        ).to_numpy(np.uint64)
        out["_gb"] = hash_bucket(key.astype(np.int64), nb)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = (
            df.groupby(["source", "lang"], as_index=False)["_cnt"]
            .sum()
            .rename(columns={"_cnt": "n_docs"})
        )
        hi = df.sort_values(
            ["source", "lang", "n_chars", "doc_id"],
            ascending=[True, True, False, True],
            kind="mergesort",
        ).drop_duplicates(["source", "lang"])
        lo = df.sort_values(
            ["source", "lang", "n_chars", "doc_id"],
            ascending=[True, True, True, False],
            kind="mergesort",
        ).drop_duplicates(["source", "lang"])
        cols = ["source", "lang", "doc_id", "n_chars"]
        m = (
            hi[cols]
            .merge(lo[cols], on=["source", "lang"], suffixes=("_hi", "_lo"))
            .merge(n, on=["source", "lang"])
        )
        m = m[m["n_docs"] >= 2]
        return pd.DataFrame(
            {
                "source": m["source"],
                "lang": m["lang"],
                "chosen_id": m["doc_id_hi"].to_numpy(np.int64),
                "rejected_id": m["doc_id_lo"].to_numpy(np.int64),
                "margin": (m["n_chars_hi"] - m["n_chars_lo"]).to_numpy(np.int64),
            }
        )

    return (
        docs.map_batches(candidates, batch_format="pyarrow")
        .groupby("_gb")
        .map_groups(finish, batch_format="pandas")
    )


_DPO_PAIRS_SQL = """
WITH ranked AS (
  SELECT source, lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY source, lang
                            ORDER BY n_chars DESC, doc_id) AS rmax,
         row_number() OVER (PARTITION BY source, lang
                            ORDER BY n_chars ASC, doc_id DESC) AS rmin,
         count(*) OVER (PARTITION BY source, lang) AS n
  FROM documents),
c AS (SELECT source, lang, doc_id AS chosen_id, n_chars AS chosen_chars
      FROM ranked WHERE rmax = 1 AND n >= 2),
r AS (SELECT source, lang, doc_id AS rejected_id, n_chars AS rejected_chars
      FROM ranked WHERE rmin = 1 AND n >= 2)
SELECT c.source, c.lang, c.chosen_id, r.rejected_id,
       c.chosen_chars - r.rejected_chars AS margin
FROM c JOIN r USING (source, lang)
"""


def q_cdc_late_data(sf_dir: str):
    """Bounded-lateness CDC ingest: the replay stream arrives with
    deterministic stragglers (every lsn % 17 == 3 delayed by 400
    sequence positions, every lsn % 17 == 11 by 2000), the ingest
    admits rows at most 1000 sequence numbers behind the high
    watermark (Flink/Beam allowed-lateness semantics, here on sequence
    numbers so the rule is scale-invariant), and the survivors replay
    to the lake. The 400-class is inside the window and kept; the
    2000-class is dropped except stragglers near the end of stream,
    whose watermark never advances past them.

    The filter runs BEFORE decode (late rows never pay decode cost)
    via :func:`stages.watermark.bounded_lateness_filter` — a
    distributed segmented scan: range-bucket by arrival key, tiny
    per-bucket max pre-pass (over a column-pruned re-read of the
    source, not a recompute of the envelope stream), driver-side
    exclusive prefix max, one keyed exchange for the within-bucket
    vectorized scan."""
    return _apply_via_pipeline(_late_envelopes(sf_dir, emit="kept"))


def _late_envelopes(sf_dir: str, *, emit: str):
    """Shared straggler stream for the bounded-lateness queries: the
    duplicate-delivery envelope stream with deterministic arrival
    delays, split by the watermark rule (see q_cdc_late_data)."""
    from commons_codec_ray.stages.watermark import bounded_lateness_filter

    n_events = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows

    def attach_arrival(t: pa.Table, col: str = "lsn") -> pa.Table:
        lsn = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        mod = lsn % 17
        delay = np.where(mod == 3, 400, np.where(mod == 11, 2000, 0)).astype(np.int64)
        out = t.append_column("_akey", pa.array(lsn + delay, pa.int64()))
        if col != "lsn":
            out = out.append_column("lsn", pa.array(lsn, pa.int64()))
        return out

    ds = _events(sf_dir)
    ds = ds.map_batches(EventsToEnvelopes(duplicates=True), batch_format="pyarrow")
    ds = ds.map_batches(attach_arrival, batch_format="pyarrow")
    seq_src = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"]).map_batches(
        lambda t: attach_arrival(t, col="event_id"), batch_format="pyarrow"
    )
    ds = bounded_lateness_filter(
        ds,
        arrival_col="_akey",
        seq_col="lsn",
        allowed_lag=1000,
        key_lo=0,
        key_hi=n_events + 2000,
        seq_source=seq_src,
        emit=emit,
    )
    return ds.map_batches(lambda t: t.drop_columns(["_akey"]), batch_format="pyarrow")


def q_cdc_late_dropped(sf_dir: str):
    """Observability side of q_cdc_late_data: per-conversation count of
    DISTINCT operations the watermark refused (duplicate deliveries of
    a rejected op collapse — both copies share its lsn). This is the
    per-key lag/lateness metric a production ingest exports next to
    the lake. Every conversation gets a row (zero when nothing was
    late — the metric must exist to alert on, and a small scale factor
    legitimately drops nothing). One conv-bucketed exchange of
    (conv_id, lsn) pairs from the (small) dropped side unioned with
    per-batch-distinct zero-marker rows from a pruned user_id read."""
    nb = adaptive_buckets()
    dropped = _late_envelopes(sf_dir, emit="dropped").map_batches(
        lambda t: t.select(["conv_id", "lsn"]), batch_format="pyarrow"
    )
    universe = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"]).map_batches(
        lambda t: pa.table(
            {
                "conv_id": pa.array(
                    [f"c-{u}" for u in set(t["user_id"].to_pylist())], pa.string()
                ),
            }
        ).append_column(
            "lsn", pa.array([-1] * len(set(t["user_id"].to_pylist())), pa.int64())
        ),
        batch_format="pyarrow",
    )

    def cb(t: pa.Table) -> pa.Table:
        key = pd.util.hash_pandas_object(
            pd.Series(t["conv_id"].to_pylist()), index=False
        ).to_numpy(np.uint64)
        return t.append_column("_cb", hash_bucket(key.astype(np.int64), nb))

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["conv_id", "lsn"])
        g = (
            df.assign(_real=(df["lsn"] >= 0).astype(np.int64))
            .groupby("conv_id", sort=True)["_real"]
            .sum()
        )
        return pd.DataFrame(
            {
                "conv_id": pd.Series(g.index, dtype="string"),
                "n_dropped": g.to_numpy(np.int64),
            }
        )

    return (
        dropped.union(universe)
        .map_batches(cb, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(count_distinct, batch_format="pandas")
    )


_CDC_LATE_DROPPED_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id, event_id AS lsn
  FROM events),
arr AS (
  SELECT *, lsn + CASE WHEN lsn % 17 = 3 THEN 400
                       WHEN lsn % 17 = 11 THEN 2000
                       ELSE 0 END AS akey
  FROM ops),
wm AS (
  SELECT *, max(lsn) OVER (ORDER BY akey, lsn
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS hwm
  FROM arr),
d AS (
  SELECT conv_id, count(*) AS nd
  FROM wm WHERE hwm IS NOT NULL AND lsn + 1000 < hwm
  GROUP BY conv_id),
u AS (SELECT DISTINCT 'c-' || CAST(user_id AS VARCHAR) AS conv_id FROM events)
SELECT u.conv_id, CAST(coalesce(d.nd, 0) AS BIGINT) AS n_dropped
FROM u LEFT JOIN d USING (conv_id)
"""


_CDC_LATE_DATA_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         event_type AS role, props AS text,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         ts, event_id AS lsn
  FROM events),
arr AS (
  SELECT *, lsn + CASE WHEN lsn % 17 = 3 THEN 400
                       WHEN lsn % 17 = 11 THEN 2000
                       ELSE 0 END AS akey
  FROM ops),
wm AS (
  SELECT *, max(lsn) OVER (ORDER BY akey, lsn
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS hwm
  FROM arr),
ok AS (SELECT * FROM wm WHERE hwm IS NULL OR lsn + 1000 >= hwm),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                               ORDER BY lsn DESC) AS rn
  FROM ok)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op = 1
"""


def q_locf_fill(sf_dir: str):
    """Global forward-fill (LOCF gap repair): every event carries the
    integer-cents value of the last 'click' observation at or before it
    in ``(ts, event_id)`` order — ``last_value(x IGNORE NULLS) OVER
    (ORDER BY ts, event_id)`` as a distributed segmented scan
    (:func:`stages.watermark.forward_fill`): quantile range-bucket on
    the timestamp, per-bucket last-observation pre-pass (kilobytes to
    the driver), exclusive prefix carry, ONE keyed exchange. No sort of
    the full table, no window over a single partition — the two ways
    this op is usually ruined at scale."""
    from commons_codec_ray.stages.watermark import forward_fill

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type", "value"]
    )

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64())
        val = t["value"].to_numpy(zero_copy_only=False)
        is_obs = pc.equal(t["event_type"], "click").to_numpy(zero_copy_only=False)
        cents = duck_rint(val * 100.0).astype(np.int64)
        obs = pa.array(np.where(is_obs, cents, 0), pa.int64(), mask=~is_obs)
        return pa.table({"event_id": t["event_id"], "_ts": ts, "obs": obs})

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = forward_fill(
        prepped, order_col="_ts", tiebreak_col="event_id", value_col="obs"
    )
    return out.map_batches(
        lambda df: df[["event_id", "filled"]], batch_format="pandas"
    )


_LOCF_FILL_SQL = """
WITH obs AS (
  SELECT event_id, ts,
         CASE WHEN event_type = 'click'
              THEN CAST(round(value * 100) AS BIGINT) END AS obs
  FROM events)
SELECT event_id,
       last_value(obs IGNORE NULLS) OVER (
         ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS filled
FROM obs
"""


def q_turn_latency(sf_dir: str):
    """Conversational latency by role transition: for consecutive
    turns within a conversation (the events-as-transcripts mapping the
    CDC oracles share: conversation = user, turn order = (ts,
    event_id), role = event_type), each (role_from, role_to)
    transition accumulates count / total / max inter-turn gap in
    microseconds — the responsiveness table an assistant-quality
    dashboard exports. One user-bucketed exchange (a conversation
    never straddles buckets, so no transition is lost), vectorized
    adjacent diffs per bucket, kilobyte (role×role) partials combined
    on the driver."""
    nb = adaptive_buckets()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def cb(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "_ub": hash_bucket(u, nb),
                "user_id": t["user_id"],
                "_tsu": t["ts"].cast(pa.int64()),
                "event_id": t["event_id"],
                "role": t["event_type"],
            }
        )

    def lat(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "_tsu", "event_id"])
        u = d["user_id"].to_numpy(np.int64)
        tsu = d["_tsu"].to_numpy(np.int64)
        role = d["role"].to_numpy()
        if len(u) < 2:
            return pd.DataFrame(
                {"role_from": [], "role_to": [], "n": [], "total_us": [], "max_us": []}
            )
        same = u[1:] == u[:-1]
        g = pd.DataFrame(
            {
                "role_from": role[:-1][same],
                "role_to": role[1:][same],
                "dt": (tsu[1:] - tsu[:-1])[same],
            }
        ).groupby(["role_from", "role_to"], as_index=False).agg(
            n=("dt", "size"), total_us=("dt", "sum"), max_us=("dt", "max")
        )
        return g

    parts = (
        ds.map_batches(cb, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(lat, batch_format="pandas")
        .to_pandas()  # ≤ buckets × |roles|² kilobyte partials
    )
    if not len(parts):
        return pa.table(
            {
                "role_from": pa.array([], pa.string()),
                "role_to": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "total_us": pa.array([], pa.int64()),
                "max_us": pa.array([], pa.int64()),
            }
        )
    out = (
        parts.groupby(["role_from", "role_to"], as_index=False)
        .agg(n=("n", "sum"), total_us=("total_us", "sum"), max_us=("max_us", "max"))
        .sort_values(["role_from", "role_to"])
    )
    return pa.table(
        {
            "role_from": pa.array(out["role_from"], pa.string()),
            "role_to": pa.array(out["role_to"], pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            "total_us": pa.array(out["total_us"].to_numpy(np.int64), pa.int64()),
            "max_us": pa.array(out["max_us"].to_numpy(np.int64), pa.int64()),
        }
    )


_TURN_LATENCY_SQL = """
WITH o AS (
  SELECT user_id, event_type, ts,
         lag(event_type) OVER w AS prev_role,
         lag(ts) OVER w AS prev_ts
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT prev_role AS role_from, event_type AS role_to,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(epoch_us(ts) - epoch_us(prev_ts)) AS BIGINT) AS total_us,
       CAST(max(epoch_us(ts) - epoch_us(prev_ts)) AS BIGINT) AS max_us
FROM o WHERE prev_role IS NOT NULL
GROUP BY 1, 2
"""


def _no_null_value(t: pa.Table, query: str) -> None:
    """Refuse a NULL ``value``: its cents lane would cast NaN to
    INT64_MIN and corrupt every total after it."""
    if t["value"].null_count:
        raise ValueError(f"{query}: events.value holds NULL; this query requires none")


def q_running_total(sf_dir: str):
    """Global running revenue total in (ts, event_id) order — the
    cumulative-metric backfill every analytics lake materializes.
    Distributed as a segmented prefix SUM
    (:func:`stages.watermark.running_sum`): quantile range buckets,
    one tiny per-bucket Sum pre-pass, driver exclusive prefix, ONE
    keyed exchange — never a global sort or single-partition window.
    Exact integer cents end to end. ``events.value`` must hold no NULL:
    one raises ``ValueError`` (SQL's sum would skip it)."""
    from commons_codec_ray.stages.watermark import running_sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        _no_null_value(t, "q_running_total")
        cents = duck_rint(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": t["event_id"],
                "_ts": t["ts"].cast(pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    out = running_sum(
        prepped, order_col="_ts", tiebreak_col="event_id", value_col="cents",
        out_col="run_cents",
    )
    return out.map_batches(
        lambda df: df[["event_id", "run_cents"]], batch_format="pandas"
    )


_RUNNING_TOTAL_SQL = """
SELECT event_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
         AS run_cents
FROM events
"""


def q_activity_gaps(sf_dir: str):
    """Per-user activity-gap analysis over hourly buckets: distinct
    active hours, silent hours inside the user's span, and the longest
    consecutive silent run — the coverage/staleness metrics a feed
    monitor exports. Per-batch DISTINCT (user, epoch-hour) partials
    shrink the exchange to at most users × span rows, then ONE
    user-bucketed exchange and a fully vectorized per-bucket pass
    (reduceat over sorted hour diffs — no per-user Python loop)."""
    nb = adaptive_buckets()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hr = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // 3_600_000_000
        df = pd.DataFrame({"user_id": u, "hr": hr}).drop_duplicates()
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column("_ub", hash_bucket(df["user_id"].to_numpy(np.int64), nb))

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "hr"]).sort_values(["user_id", "hr"])
        u = d["user_id"].to_numpy(np.int64)
        h = d["hr"].to_numpy(np.int64)
        n = len(u)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        counts = np.diff(np.append(starts, n))
        first = h[starts]
        last = h[starts + counts - 1]
        span = last - first + 1
        # pairwise silent runs; zeroed across user boundaries, padded so
        # reduceat segments line up with user starts
        gap = np.zeros(n, np.int64)
        if n > 1:
            gap[:-1] = np.where(u[1:] == u[:-1], np.diff(h) - 1, 0)
        max_gap = np.maximum.reduceat(gap, starts)
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "n_active_hours": counts.astype(np.int64),
                "n_gap_hours": (span - counts).astype(np.int64),
                "max_gap_hours": max_gap,
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(gaps, batch_format="pandas")
    )


_ACTIVITY_GAPS_SQL = """
WITH h AS (
  SELECT DISTINCT user_id, date_trunc('hour', ts) AS hr FROM events),
d AS (
  SELECT user_id, hr,
         lead(hr) OVER (PARTITION BY user_id ORDER BY hr) AS nxt
  FROM h)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_active_hours,
       CAST(datediff('hour', min(hr), max(hr)) + 1 - count(*) AS BIGINT)
         AS n_gap_hours,
       CAST(max(coalesce(datediff('hour', hr, nxt), 1) - 1) AS BIGINT)
         AS max_gap_hours
FROM d GROUP BY user_id
"""


def q_conv_prefix_dedup(sf_dir: str):
    """Prefix-dominated conversation dedup: a conversation is removed
    when another conversation's turn sequence properly extends it (the
    shorter one is a training-set duplicate — the standard transcript
    hygiene rule for resumed/branched chats), or when an identical
    sequence exists under a smaller conv_id. The corpus is the events
    stream as transcripts (one turn per event, ordered by event_id)
    plus a PLANTED truncated copy of each conversation's first half —
    the natural corpus has a ~100-value turn alphabet over 50+-turn
    conversations, so accidental prefixes never occur (same planting
    rationale as ngram_jaccard).

    Scale shape: per conversation a rolling blake2b chain emits one
    hash row per PREFIX length (O(total turns) rows, the substring_
    dedup cost shape) and one full-sequence row; ONE hash-bucketed
    exchange co-locates every conversation's full hash with any other
    conversation's equal prefix hash, so domination is decided locally
    per bucket with no driver materialization and no pairwise join."""
    import hashlib

    nb = adaptive_buckets()
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "props"])

    def ub(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        h_col, cid_col, nt_col, full_col = [], [], [], []
        for uid, g in df.groupby("user_id", sort=False):
            texts = [(p or "") for p in g["props"].tolist()]
            convs = [(f"c-{uid}", texts)]
            half = len(texts) // 2
            if half >= 1:
                convs.append((f"p-{uid}", texts[:half]))
            for cid, seq in convs:
                n = len(seq)
                dig = b""
                for k, text in enumerate(seq, start=1):
                    dig = hashlib.blake2b(
                        dig + text.encode(), digest_size=16
                    ).digest()
                    h_col.append(dig.hex())
                    cid_col.append(cid)
                    nt_col.append(n)
                    full_col.append(k == n)
        out = pd.DataFrame(
            {"h": h_col, "conv_id": cid_col, "n_turns": nt_col, "is_full": full_col}
        )
        hb = np.frombuffer(
            bytes.fromhex("".join(s[:16] for s in h_col)), dtype=">u8"
        ).astype(np.int64) if h_col else np.empty(0, np.int64)
        out["_hb"] = hash_bucket(hb, nb)
        return out

    def judge(df: pd.DataFrame) -> pd.DataFrame:
        pref_h = df.loc[~df["is_full"], "h"].unique()
        fulls = df[df["is_full"]]
        # a prefix row equal to a full hash is necessarily a different,
        # strictly longer conversation (a chain can't collide with its
        # own proper prefix), so its existence alone dominates
        dom = fulls["h"].isin(pref_h)
        # equal sequences: smallest conv_id survives
        dom |= fulls["conv_id"] > fulls.groupby("h")["conv_id"].transform("min")
        keep = fulls[~dom]
        # Arrow table out (typed even when the bucket keeps nothing)
        return pa.table(
            {
                "conv_id": pa.array(keep["conv_id"].tolist(), pa.string()),
                "n_turns": pa.array(keep["n_turns"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        ev.map_batches(ub, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(emit, batch_format="pandas")
        .groupby("_hb")
        .map_groups(judge, batch_format="pandas")
    )


_CONV_PREFIX_DEDUP_SQL = """
WITH turns0 AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id, user_id, event_id,
         coalesce(props, '') AS text,
         row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rk,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
turns AS (
  SELECT conv_id, event_id, text FROM turns0
  UNION ALL
  SELECT 'p-' || CAST(user_id AS VARCHAR), event_id, text
  FROM turns0 WHERE rk <= n // 2),
seqs AS (
  -- length-prefixed turn encoding: unambiguous even if a text ever
  -- contains the chr(31) separator (the engine's fixed-width hash
  -- chain is separator-free, so the oracle must be too)
  SELECT conv_id,
         string_agg(CAST(length(text) AS VARCHAR) || ':' || text,
                    chr(31) ORDER BY event_id) AS seq,
         CAST(count(*) AS BIGINT) AS n_turns
  FROM turns GROUP BY conv_id),
dominated AS (
  SELECT DISTINCT a.conv_id
  FROM seqs a JOIN seqs b ON a.conv_id <> b.conv_id
   AND (starts_with(b.seq, a.seq || chr(31))
        OR (b.seq = a.seq AND b.conv_id < a.conv_id)))
SELECT conv_id, n_turns FROM seqs
WHERE conv_id NOT IN (SELECT conv_id FROM dominated)
"""


def q_sft_masks(sf_dir: str):
    """Chat-template render + loss-mask accounting per conversation
    (the step between transcript prep and sequence packing: SFT loss
    applies only to assistant turns). Per conversation — events as
    transcripts, one turn per event ordered by event_id, role =
    event_type, assistant roles {'click', 'view'} — exact integer
    rendered length (``<|role|>text\\n`` per turn), assistant text
    chars (the unmasked span total), and mask segment count (runs of
    contiguous assistant turns). One user-bucketed exchange; per-group
    work is vectorized numpy."""
    nb = adaptive_buckets()
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "event_type", "props"]
    )

    def ub(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        role_len = df["event_type"].str.len().to_numpy(np.int64)
        text_len = df["props"].fillna("").str.len().to_numpy(np.int64)
        asst = df["event_type"].isin(("click", "view")).to_numpy()
        uid = df["user_id"].to_numpy(np.int64)
        new_user = np.empty(len(df), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        prev_asst = np.empty(len(df), bool)
        prev_asst[0] = False
        prev_asst[1:] = asst[:-1]
        seg_start = asst & (new_user | ~prev_asst)
        g = pd.DataFrame(
            {
                "user_id": uid,
                "n_turns": np.int64(1),
                "rendered_chars": role_len + text_len + 5,
                "assistant_chars": np.where(asst, text_len, 0),
                "mask_segments": seg_start.astype(np.int64),
            }
        ).groupby("user_id", as_index=False).sum()
        return pd.DataFrame(
            {
                "conv_id": ("c-" + g["user_id"].astype(str)).astype("string"),
                "n_turns": g["n_turns"].to_numpy(np.int64),
                "rendered_chars": g["rendered_chars"].to_numpy(np.int64),
                "assistant_chars": g["assistant_chars"].to_numpy(np.int64),
                "mask_segments": g["mask_segments"].to_numpy(np.int64),
            }
        )

    return (
        ev.map_batches(ub, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_conv, batch_format="pandas")
    )


_SFT_MASKS_SQL = """
WITH t AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         event_type AS role, coalesce(props, '') AS text,
         event_type IN ('click', 'view') AS is_asst,
         lag(event_type IN ('click', 'view'), 1, false)
           OVER (PARTITION BY user_id ORDER BY event_id) AS prev_asst
  FROM events)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(length(role) + length(text) + 5) AS BIGINT) AS rendered_chars,
       CAST(sum(CASE WHEN is_asst THEN length(text) ELSE 0 END) AS BIGINT)
         AS assistant_chars,
       CAST(sum(CASE WHEN is_asst AND NOT prev_asst THEN 1 ELSE 0 END) AS BIGINT)
         AS mask_segments
FROM t GROUP BY conv_id
"""


def q_oov_rate(sf_dir: str):
    """Per-document out-of-vocabulary rate against a top-K document-
    frequency vocabulary — the tokenizer-coverage diagnostic run before
    committing to a vocab. Two passes: (1) the vocab_df machinery
    (per-batch (doc, token)-distinct partials, one int-keyed exchange,
    each bucket's exact totals reduced to <= K winners per bucket on
    the driver — kilobytes) builds the global top-20 by (df DESC,
    token ASC); (2) the vocab set is broadcast into a second linear
    scan that counts OOV tokens per document, exact integer ppm."""
    docs_path = f"{sf_dir}/documents.parquet"
    vocab = frozenset(_token_df_topk(sf_dir, 20)["token"])

    def oov(t: pa.Table) -> pa.Table:
        la = pc.split_pattern(t["text"].combine_chunks(), pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        toks = la.flatten().to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(t.num_rows), np.diff(offsets))
        nonempty = toks != ""
        toks, doc_of = toks[nonempty], doc_of[nonempty]
        n_tok = np.bincount(doc_of, minlength=t.num_rows).astype(np.int64)
        is_oov = ~pd.Index(toks).isin(vocab)
        oov_cnt = np.bincount(doc_of, weights=is_oov, minlength=t.num_rows).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "oov_tokens": pa.array(oov_cnt, pa.int64()),
                "oov_ppm": pa.array(
                    oov_cnt * 1_000_000 // np.maximum(n_tok, 1), pa.int64()
                ),
            }
        )

    return rd.read_parquet(docs_path, columns=["doc_id", "text"]).map_batches(
        oov, batch_format="pyarrow"
    )


_OOV_RATE_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS tk
  FROM documents),
tok2 AS (SELECT doc_id, tk FROM tok WHERE tk <> ''),
df AS (SELECT tk, count(DISTINCT doc_id) AS dfc FROM tok2 GROUP BY tk),
vocab AS (SELECT tk FROM df ORDER BY dfc DESC, tk LIMIT 20),
per AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok,
         CAST(sum(CASE WHEN tk NOT IN (SELECT tk FROM vocab)
                       THEN 1 ELSE 0 END) AS BIGINT) AS oov
  FROM tok2 GROUP BY doc_id)
SELECT d.doc_id, coalesce(p.n_tok, 0) AS n_tokens,
       coalesce(p.oov, 0) AS oov_tokens,
       coalesce(p.oov, 0) * 1000000 // greatest(coalesce(p.n_tok, 0), 1) AS oov_ppm
FROM documents d LEFT JOIN per p USING (doc_id)
"""


def q_tool_call_stats(sf_dir: str):
    """Agent-transcript tool-use accounting over the REPLAYED lake (the
    post-ingest analytics an agent-data pipeline runs): per
    conversation, turns, tool-call count, distinct tools used, and the
    first tool-calling turn (NULL when the conversation never calls a
    tool). Composes the cdc_replay lake (decode -> hash split -> LWW
    apply through CDCPipeline's applier pool) with one conv-bucketed
    aggregation exchange; per-group work is vectorized pandas."""
    nb = adaptive_buckets()
    lake = q_cdc_replay(sf_dir)

    def cb(t: pa.Table) -> pa.Table:
        key = pd.util.hash_pandas_object(
            pd.Series(t["conv_id"].to_pylist()), index=False
        ).to_numpy(np.uint64)
        return t.append_column("_cb", hash_bucket(key.astype(np.int64), nb))

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=True)
        n_turns = g.size()
        n_tool = g["tool"].count()
        n_dist = g["tool"].nunique(dropna=True)
        first = (
            df[df["tool"].notna()].groupby("conv_id")["turn_idx"].min().astype("Int64")
        )
        out = pd.DataFrame(
            {
                "conv_id": pd.Series(n_turns.index, dtype="string"),
                "n_turns": n_turns.to_numpy(np.int64),
                "n_tool_calls": n_tool.to_numpy(np.int64),
                "n_distinct_tools": n_dist.to_numpy(np.int64),
            }
        )
        out["first_tool_turn"] = first.reindex(n_turns.index).to_numpy()
        return out

    return (
        lake.map_batches(cb, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(stats, batch_format="pandas")
    )


_TOOL_CALL_STATS_SQL = """
WITH ops AS (
  SELECT 'c-' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % 40 AS INTEGER)   AS turn_idx,
         CASE WHEN event_id % 10 = 7 THEN 0 ELSE 1 END AS op,
         CASE WHEN value >= 50 THEN 'search' ELSE NULL END AS tool,
         event_id AS lsn
  FROM events),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                               ORDER BY lsn DESC) AS rn
  FROM ops),
lake AS (SELECT conv_id, turn_idx, tool FROM ranked WHERE rn = 1 AND op = 1)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(tool) AS BIGINT) AS n_tool_calls,
       CAST(count(DISTINCT tool) AS BIGINT) AS n_distinct_tools,
       CAST(min(CASE WHEN tool IS NOT NULL THEN turn_idx END) AS BIGINT)
         AS first_tool_turn
FROM lake GROUP BY conv_id
"""


def q_context_truncate(sf_dir: str):
    """Context-window truncation for SFT prep: keep each conversation's
    maximal SUFFIX of turns (most recent context) whose total rendered
    length (the sft_masks ``<|role|>text\\n`` accounting) fits a
    512-char budget — always keeping at least the final turn even when
    it alone overflows (the turn-splitting case is the tokenizer's
    problem, not the selector's). Per conversation: kept-turn count and
    kept rendered chars. One user-bucketed exchange; the suffix sum is
    a reversed vectorized cumsum per group."""
    nb = adaptive_buckets()
    BUDGET = 512
    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "event_type", "props"]
    )

    def ub(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ub", hash_bucket(t["user_id"].to_numpy(zero_copy_only=False), nb)
        )

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy(np.int64)
        rlen = (
            df["event_type"].str.len().to_numpy(np.int64)
            + df["props"].fillna("").str.len().to_numpy(np.int64)
            + 5
        )
        n = len(df)
        # reversed per-user cumsum: suffix sum ending at each row
        rev = rlen[::-1]
        uid_rev = uid[::-1]
        cs = np.cumsum(rev)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = uid_rev[1:] != uid_rev[:-1]
        base = np.where(new, cs - rev, 0)
        base = np.maximum.accumulate(np.where(new, base, np.int64(np.iinfo(np.int64).min)))
        sufsum = (cs - base)[::-1]
        last_of_user = np.empty(n, bool)
        last_of_user[-1] = True
        last_of_user[:-1] = uid[1:] != uid[:-1]
        keep = (sufsum <= BUDGET) | last_of_user
        g = pd.DataFrame(
            {"user_id": uid[keep], "rlen": rlen[keep]}
        ).groupby("user_id", as_index=False).agg(
            n_kept=("rlen", "size"), kept_chars=("rlen", "sum")
        )
        return pd.DataFrame(
            {
                "conv_id": ("c-" + g["user_id"].astype(str)).astype("string"),
                "n_kept": g["n_kept"].to_numpy(np.int64),
                "kept_chars": g["kept_chars"].to_numpy(np.int64),
            }
        )

    return (
        ev.map_batches(ub, batch_format="pyarrow")
        .groupby("_ub")
        .map_groups(per_conv, batch_format="pandas")
    )


_CONTEXT_TRUNCATE_SQL = """
WITH t AS (
  SELECT user_id, 'c-' || CAST(user_id AS VARCHAR) AS conv_id, event_id,
         length(event_type) + length(coalesce(props, '')) + 5 AS rlen,
         row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) AS rpos
  FROM events),
s AS (
  SELECT *, sum(rlen) OVER (PARTITION BY user_id ORDER BY event_id DESC
                            ROWS UNBOUNDED PRECEDING) AS sufsum
  FROM t),
k AS (SELECT * FROM s WHERE sufsum <= 512 OR rpos = 1)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_kept,
       CAST(sum(rlen) AS BIGINT) AS kept_chars
FROM k GROUP BY conv_id
"""


def q_c4_clean(sf_dir: str):
    """C4-style line/page cleaning (stages/text.py C4LineRules — the
    Raffel et al. 2020 C4 recipe next to the Gopher gates): pages are
    deterministically re-lined into 8-word pseudo-lines, lines with <5
    words or the blocked word are dropped, pages with a bad word or <3
    surviving lines are gated. Exact integer counts; one linear
    actor-pool pass, no shuffle."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        text_stage.C4LineRules, batch_format="pyarrow", concurrency=pool_size(2)
    )


_C4_CLEAN_SQL = """
WITH toks AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents),
lined AS (
  SELECT doc_id, t,
         list_transform(range(0, CAST((len(t) + 7) // 8 AS INT)),
                        i -> list_slice(t, i * 8 + 1, i * 8 + 8)) AS ls
  FROM toks),
k AS (
  SELECT doc_id, t, ls,
         list_filter(ls, l -> len(l) >= 5
                              AND NOT list_contains(l, 'spark')) AS kept
  FROM lined)
SELECT doc_id,
       CAST(len(ls) AS BIGINT) AS n_lines,
       CAST(len(kept) AS BIGINT) AS n_kept_lines,
       CAST(coalesce(list_sum(list_transform(kept, l -> len(l))), 0) AS BIGINT)
         AS clean_n_words,
       (NOT list_contains(t, 'dup') AND len(kept) >= 3) AS keep
FROM k
"""


def q_mad_outliers(sf_dir: str):
    """Per-user robust outlier summary via the median absolute
    deviation (stages/grouptop.py ``mad_per_key``, Hampel 1974): exact
    doubled/quadrupled integer medians (med2 = 2·median, mad4 = 4·MAD)
    keep the even-count midpoint in the integers, and the outlier test
    ``2·|2x − med2| > 3·mad4`` is the scale-free robust alternative to
    q_outliers' 2-sigma lane (MAD is immune to the outliers inflating
    the sigma they're tested against). One hash-bucket exchange, one
    vectorized two-indexing pass per bucket. ``events.value`` must hold
    no NULL: one raises ``ValueError`` (SQL's median would skip it)."""
    from commons_codec_ray.stages.grouptop import mad_per_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        _no_null_value(t, "q_mad_outliers")
        x = duck_rint(t["value"].to_numpy(zero_copy_only=False) * 100.0)
        return pa.table(
            {"user_id": t["user_id"], "x": pa.array(x.astype(np.int64), pa.int64())}
        )

    return mad_per_key(
        ds.map_batches(cents, batch_format="pyarrow"), key="user_id", column="x"
    )


_MAD_OUTLIERS_SQL = """
WITH c AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS x FROM events),
m AS (
  SELECT user_id, CAST(2 * median(x) AS BIGINT) AS med2
  FROM c GROUP BY user_id),
d AS (
  SELECT c.user_id, abs(2 * x - med2) AS dev2, med2
  FROM c JOIN m USING (user_id)),
m2 AS (
  SELECT user_id, CAST(2 * median(dev2) AS BIGINT) AS mad4
  FROM d GROUP BY user_id)
SELECT d.user_id, CAST(count(*) AS BIGINT) AS n,
       any_value(d.med2) AS med2, any_value(m2.mad4) AS mad4,
       CAST(sum(CASE WHEN 2 * dev2 > 3 * m2.mad4 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_outliers
FROM d JOIN m2 USING (user_id)
GROUP BY d.user_id
"""


def q_seq_gaps(sf_dir: str):
    """Missing-range audit over a filtered global id sequence
    (stages/watermark.py ``sequence_gaps``) — the ``lead() OVER (ORDER
    BY id)`` check a CDC ingest runs on its LSN/offset column to prove
    no change was dropped, distributed as the BACKWARD-carry member of
    the segmented-scan family (quantile range buckets, one tiny Min
    pre-pass, driver exclusive SUFFIX min, ONE keyed exchange — never
    a global sort). The purchase-only filter makes the surviving
    event_id sequence genuinely gappy."""
    from commons_codec_ray.stages.watermark import sequence_gaps

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["event_type"], "purchase")).select(["event_id"])

    return sequence_gaps(
        ds.map_batches(keep, batch_format="pyarrow"), id_col="event_id"
    )


_SEQ_GAPS_SQL = """
WITH f AS (SELECT event_id FROM events WHERE event_type = 'purchase'),
d AS (SELECT event_id, lead(event_id) OVER (ORDER BY event_id) AS nxt FROM f)
SELECT event_id AS gap_after, nxt AS next_present,
       CAST(nxt - event_id - 1 AS BIGINT) AS n_missing
FROM d WHERE nxt - event_id > 1
"""


def q_seq_islands(sf_dir: str):
    """Maximal consecutive-run detection over the same filtered id
    sequence as q_seq_gaps — the ISLANDS half of gaps-and-islands
    (stages/watermark.py ``sequence_islands``). The distributed
    wrinkle: a run can CROSS range-bucket boundaries, so interior runs
    stay distributed while each bucket's two boundary fragments
    (kilobytes total) are stitched on the driver — the runs table is
    materialized once so the two consumers don't re-scan. Oracle: the
    classic ``id − row_number()`` grouping."""
    from commons_codec_ray.stages.watermark import sequence_islands

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["event_type"], "purchase")).select(["event_id"])

    return sequence_islands(
        ds.map_batches(keep, batch_format="pyarrow"), id_col="event_id"
    )


_SEQ_ISLANDS_SQL = """
WITH f AS (SELECT DISTINCT event_id FROM events WHERE event_type = 'purchase'),
g AS (SELECT event_id,
             event_id - CAST(row_number() OVER (ORDER BY event_id) AS BIGINT) AS grp
      FROM f)
SELECT min(event_id) AS start_id, max(event_id) AS end_id,
       CAST(count(*) AS BIGINT) AS n_ids
FROM g GROUP BY grp
"""


def q_profile_drift(sf_dir: str):
    """Snapshot-drift profiling (the Deequ AnomalyDetection shape over
    stages/dq.py ``profile_columns``): profile the SAME columns on the
    early and late halves of the event log (split at max(event_id)//2
    — a deterministic yesterday-vs-today proxy) and emit both profiles
    long-format plus the exact null-rate ppm, so a monitor can diff
    sides. Two one-scan profiles, each with ONE combined distinct
    exchange; kilobyte results on the driver."""
    from commons_codec_ray.stages.dq import profile_columns

    cols = ["user_id", "event_type", "value"]
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id"] + cols
    )
    mid = int(ds.max("event_id")) // 2

    def half(late: bool):
        def pick(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            sel = eid > mid if late else eid <= mid
            return t.filter(pa.array(sel)).select(cols)

        return pick

    out = []
    for side, late in (("early", False), ("late", True)):
        prof = profile_columns(
            ds.map_batches(half(late), batch_format="pyarrow"), cols
        )
        n_rows = prof["n_rows"].to_numpy(zero_copy_only=False)
        n_nulls = prof["n_nulls"].to_numpy(zero_copy_only=False)
        ppm = np.where(
            n_rows > 0, n_nulls * 1_000_000 // np.maximum(n_rows, 1), 0
        )
        out.append(
            prof.add_column(1, "side", pa.array([side] * prof.num_rows))
            .append_column("null_ppm", pa.array(ppm, pa.int64()))
        )
    return pa.concat_tables(out)


_PROFILE_DRIFT_SQL = """
WITH mid AS (SELECT max(event_id) // 2 AS m FROM events),
early AS (SELECT * FROM events WHERE event_id <= (SELECT m FROM mid)),
late AS (SELECT * FROM events WHERE event_id > (SELECT m FROM mid))
SELECT 'user_id' AS col_name, 'early' AS side, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count(user_id) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct,
       CAST(min(user_id) AS DOUBLE) AS min_num, CAST(max(user_id) AS DOUBLE) AS max_num,
       CAST((count(*) - count(user_id)) * 1000000 // count(*) AS BIGINT) AS null_ppm
FROM early
UNION ALL
SELECT 'event_type', 'early', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(event_type) AS BIGINT),
       CAST(count(DISTINCT event_type) AS BIGINT), NULL, NULL,
       CAST((count(*) - count(event_type)) * 1000000 // count(*) AS BIGINT)
FROM early
UNION ALL
SELECT 'value', 'early', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(value) AS BIGINT),
       CAST(count(DISTINCT value) AS BIGINT),
       CAST(min(value) AS DOUBLE), CAST(max(value) AS DOUBLE),
       CAST((count(*) - count(value)) * 1000000 // count(*) AS BIGINT)
FROM early
UNION ALL
SELECT 'user_id', 'late', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(user_id) AS BIGINT),
       CAST(count(DISTINCT user_id) AS BIGINT),
       CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE),
       CAST((count(*) - count(user_id)) * 1000000 // count(*) AS BIGINT)
FROM late
UNION ALL
SELECT 'event_type', 'late', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(event_type) AS BIGINT),
       CAST(count(DISTINCT event_type) AS BIGINT), NULL, NULL,
       CAST((count(*) - count(event_type)) * 1000000 // count(*) AS BIGINT)
FROM late
UNION ALL
SELECT 'value', 'late', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(value) AS BIGINT),
       CAST(count(DISTINCT value) AS BIGINT),
       CAST(min(value) AS DOUBLE), CAST(max(value) AS DOUBLE),
       CAST((count(*) - count(value)) * 1000000 // count(*) AS BIGINT)
FROM late
"""


QUERIES = {
    "cdc_replay": q_cdc_replay,
    "cdc_log_compaction": q_cdc_log_compaction,
    "cdc_replay_shuffled": q_cdc_replay_shuffled,
    "cdc_replay_universal": q_cdc_replay_universal,
    "cdc_decode_debezium": q_decode_debezium,
    "cdc_decode_binlog": q_decode_binlog,
    "cdc_decode_ddbstream": q_decode_ddbstream,
    "cdc_decode_maxwell": q_decode_maxwell,
    "cdc_decode_canal": q_decode_canal,
    "cdc_decode_mongo": q_decode_mongo,
    "cdc_replay_mongo": q_cdc_replay_mongo,
    "lake_audit": q_lake_audit,
    "cdc_decode_dbz_mongo": q_decode_dbz_mongo,
    "embed_dedup": q_embed_dedup,
    "promo_revenue": q_promo_revenue,
    "priority_orders": q_priority_orders,
    "cdc_replay_all_dialects": q_cdc_replay_all_dialects,
    "mongo_full_load": q_mongo_full_load,
    "ddb_full_load": q_ddb_full_load,
    "ddb_decimal_sum": q_ddb_decimal_sum,
    "cdc_decode_connect": q_decode_connect,
    "cdc_dead_letter": q_dead_letter,
    "windowed_agg": q_windowed_agg,
    "session_windows": q_session_windows,
    "sliding_window": q_sliding_window,
    "embed_pairs": q_embed_pairs,
    "exact_dedup": q_exact_dedup,
    "near_dedup": q_near_dedup,
    "token_count": q_token_count,
    "bpe_token_count": q_bpe_token_count,
    "text_stats": q_text_stats,
    "ann_topk": q_ann_topk,
    "json_flatten": q_json_flatten,
    "iot_tasmota": q_iot_tasmota,
    "iot_tasmota_state": q_iot_tasmota_state,
    "iot_sensor_community": q_iot_sensor_community,
    "iot_tts_uplink": q_iot_tts_uplink,
    "ext_json_roundtrip": q_ext_json_roundtrip,
    "bson_roundtrip": q_bson_roundtrip,
    "image_features": q_image_features,
    "treatment_rules": q_treatment_rules,
    "bcast_join_agg": q_bcast_join_agg,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
    "hash_join": q_hash_join,
    "hash_join_left": q_hash_join_left,
    "window_rank": q_window_rank,
    "window_lag": q_window_lag,
    "pivot_event_types": q_pivot_event_types,
    "quantile_filter": q_quantile_filter,
    "top_orders": q_top_orders,
    "pricing_summary": q_pricing_summary,
    "mixture_sample": q_mixture_sample,
    "percent_rank": q_percent_rank,
    "basket_pairs": q_basket_pairs,
    "shipping_priority": q_shipping_priority,
    "revenue_forecast": q_revenue_forecast,
    "top_customers": q_top_customers,
    "big_orders": q_big_orders,
    "brand_nation_revenue": q_brand_nation_revenue,
    "csv_ingest": q_csv_ingest,
    "partition_prune": q_partition_prune,
    "rolling_agg": q_rolling_agg,
    "event_paths": q_event_paths,
    "rolling_distinct": q_rolling_distinct,
    "stickiness": q_stickiness,
    "first_last": q_first_last,
    "debounce": q_debounce,
    "throttle": q_throttle,
    "outliers": q_outliers,
    "chi2": q_chi2,
    "bt_strength": q_bt_strength,
    "zonemap_prune": q_zonemap_prune,
    "minmax_scale": q_minmax_scale,
    "cross_source_dups": q_cross_source_dups,
    "weekday_profile": q_weekday_profile,
    "rollup": q_rollup,
    "cube": q_cube,
    "unpivot": q_unpivot,
    "lm_score": q_lm_score,
    "lm_score_sharded": q_lm_score,
    "typo_pairs": q_typo_pairs,
    "approx_distinct_by_key": q_approx_distinct_by_key,
    "funnel_windowed": q_funnel_windowed,
    "distinct_event_types": q_distinct_event_types,
    "approx_distinct": q_approx_distinct,
    "heavy_hitters": q_heavy_hitters,
    "hash_sample": q_hash_sample,
    "weighted_sample": q_weighted_sample,
    "source_entropy": q_source_entropy,
    "kl_per_user": q_kl_per_user,
    "stratified_sample": q_stratified_sample,
    "minhash_dedup": q_minhash_dedup,
    "minhash_dedup_narrow": q_minhash_dedup_narrow,
    "simhash": q_simhash,
    "simhash_dedup": q_simhash_dedup,
    "langid": q_langid,
    "quality": q_quality,
    "fingerprint": q_fingerprint,
    "lsh_topk": q_lsh_topk,
    "ivf_topk": q_ivf_topk,
    "multimodal_features": q_multimodal_features,
    "frame_sample": q_frame_sample,
    "audio_windows": q_audio_windows,
    "ngram_jaccard": q_ngram_jaccard,
    "cap_per_source": q_cap_per_source,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "semi_join_bloom": q_semi_join,
    "vocab_df": q_vocab_df,
    "tfidf": q_tfidf,
    "quantiles": q_quantiles,
    "quantiles_cont": q_quantiles_cont,
    "approx_quantiles_by_key": q_approx_quantiles_by_key,
    "quantiles_per_key_sketch": q_quantiles_per_key_sketch,
    "approx_quantiles": q_approx_quantiles,
    "pii_scrub": q_pii_scrub,
    "median_per_user": q_median_per_user,
    "cdc_change_feed": q_cdc_change_feed,
    "cdc_ivm": q_cdc_ivm,
    "cdc_multi_table": q_cdc_multi_table,
    "cdc_time_travel": q_cdc_time_travel,
    "cdc_snapshot_diff": q_cdc_snapshot_diff,
    "cdc_replay_partial": q_cdc_replay_partial,
    "cdc_idempotent_replay": q_cdc_idempotent_replay,
    "set_ops": q_set_ops,
    "unnest_tokens": q_unnest_tokens,
    "string_agg": q_string_agg,
    "revenue_by_nation": q_revenue_by_nation,
    "grouped_corr": q_grouped_corr,
    "regex_extract": q_regex_extract,
    "embed_centroid": q_embed_centroid,
    "salted_join": q_salted_join,
    "distinct_per_group": q_distinct_per_group,
    "funnel": q_funnel,
    "outer_join": q_outer_join,
    "near_dedup_best": q_near_dedup_best,
    "corpus_prep": q_corpus_prep,
    "global_rank": q_global_rank,
    "cdc_scd2": q_cdc_scd2,
    "scd2_lookup": q_scd2_lookup,
    "attribution": q_attribution,
    "cdc_merge_sources": q_cdc_merge_sources,
    "string_join": q_string_join,
    "jsonl_ingest": q_jsonl_ingest,
    "orc_ingest": q_orc_ingest,
    "avro_ingest": q_avro_ingest,
    "proto_ingest": q_proto_ingest,
    "cdc_replay_avro": q_cdc_replay_avro,
    "cdc_replay_proto": q_cdc_replay_proto,
    "gzip_ingest": q_gzip_ingest,
    "top_users_per_type": q_top_users_per_type,
    "components": q_components_sharded,
    "components_sharded": q_components_sharded,
    "mode_per_group": q_mode_per_group,
    "sft_pairs": q_sft_pairs,
    "conv_dedup": q_conv_dedup,
    "conv_stats": q_conv_stats,
    "role_transitions": q_role_transitions,
    "cdc_schema_evolution": q_cdc_schema_evolution,
    "cdc_schema_widening": q_cdc_schema_widening,
    "pack_sequences": q_pack_sequences,
    "decontam": q_decontam,
    "substring_dedup": q_substring_dedup,
    "span_removal": q_span_removal,
    "chunk_overlap": q_chunk_overlap,
    "rep_signals": q_rep_signals,
    "pagerank": q_pagerank,
    "cdc_lineage": q_cdc_lineage,
    "cdc_replay_actors": q_cdc_replay_actors,
    "cdc_replay_delta": q_cdc_replay_delta,
    "cdc_alerts": q_cdc_alerts,
    "bm25": q_bm25,
    "kmeans": q_kmeans,
    "semdedup": q_semdedup,
    "kcore": q_kcore_sharded,
    "densest_subgraph": q_densest_subgraph,
    "clustering_coeff": q_clustering_coeff,
    "assortativity": q_assortativity,
    "hits": q_hits,
    "ppr": q_ppr,
    "bfs_levels": q_bfs_levels,
    "sssp": q_sssp,
    "c4_clean": q_c4_clean,
    "mad_outliers": q_mad_outliers,
    "seq_gaps": q_seq_gaps,
    "seq_islands": q_seq_islands,
    "profile_drift": q_profile_drift,
    "kcore_sharded": q_kcore_sharded,
    "embed_covariance": q_embed_covariance,
    "mutual_info": q_mutual_info,
    "rrf_fusion": q_rrf_fusion,
    "near_dedup_incremental": q_near_dedup_incremental,
    "bpe_train": q_bpe_train,
    "bpe_segment": q_bpe_segment,
    "kmeans_pp": q_kmeans_pp,
    "skyline": q_skyline,
    "bigrams": q_bigrams,
    "retention": q_retention,
    "triangles": q_triangles,
    "triangles_exchange": q_triangles,
    "normalize_text": q_normalize_text,
    "histogram": q_histogram,
    "cdc_feed_enriched": q_cdc_feed_enriched,
    "ntile": q_ntile,
    "zorder": q_zorder,
    "embed_quantize": q_embed_quantize,
    "cdc_compaction": q_cdc_compaction,
    "cdc_vacuum": q_cdc_vacuum,
    "link_prediction": q_link_prediction,
    "link_prediction_ra": q_link_prediction_ra,
    "dq_checks": q_dq_checks,
    "table_profile": q_table_profile,
    "gopher_quality": q_gopher_quality,
    "dpo_pairs": q_dpo_pairs,
    "cdc_late_data": q_cdc_late_data,
    "conv_prefix_dedup": q_conv_prefix_dedup,
    "sft_masks": q_sft_masks,
    "oov_rate": q_oov_rate,
    "tool_call_stats": q_tool_call_stats,
    "cdc_late_dropped": q_cdc_late_dropped,
    "context_truncate": q_context_truncate,
    "locf_fill": q_locf_fill,
    "hard_negatives": q_hard_negatives,
    "dataset_split": q_dataset_split,
    "typo_pairs2": q_typo_pairs2,
    "mmr_rerank": q_mmr_rerank,
    "activity_gaps": q_activity_gaps,
    "running_total": q_running_total,
    "turn_latency": q_turn_latency,
}

ORACLE_SQL = {
    "cdc_replay": _CDC_REPLAY_SQL,
    "cdc_log_compaction": _CDC_LOG_COMPACTION_SQL,
    "cdc_replay_shuffled": _CDC_REPLAY_SQL,
    "cdc_replay_universal": _CDC_REPLAY_SQL,
    "cdc_decode_debezium": _DECODE_SQL,
    "cdc_decode_binlog": _DECODE_SQL,
    "cdc_decode_ddbstream": _DECODE_SQL,
    "cdc_decode_maxwell": _DECODE_SQL,
    "cdc_decode_canal": _DECODE_SQL,
    "cdc_decode_mongo": _DECODE_SQL,
    "cdc_replay_mongo": _CDC_REPLAY_SQL,
    "lake_audit": _LAKE_AUDIT_SQL,
    "cdc_decode_dbz_mongo": _DECODE_SQL,
    "embed_dedup": _EMBED_DEDUP_SQL,
    "promo_revenue": _PROMO_REVENUE_SQL,
    "priority_orders": _PRIORITY_ORDERS_SQL,
    "cdc_replay_all_dialects": _CDC_REPLAY_SQL,
    "mongo_full_load": _MONGO_FULL_LOAD_SQL,
    "ddb_full_load": _DDB_FULL_LOAD_SQL,
    "ddb_decimal_sum": _DDB_DECIMAL_SUM_SQL,
    "cdc_decode_connect": _DECODE_SQL,
    "cdc_dead_letter": _DEAD_LETTER_SQL,
    "windowed_agg": _WINDOWED_AGG_SQL,
    "session_windows": _SESSION_WINDOWS_SQL,
    "sliding_window": _SLIDING_WINDOW_SQL,
    "embed_pairs": _EMBED_PAIRS_SQL,
    "exact_dedup": _EXACT_DEDUP_SQL,
    "near_dedup": _NEAR_DEDUP_SQL,
    "token_count": _TOKEN_COUNT_SQL,
    "bpe_token_count": _BPE_TOKEN_SQL,
    "text_stats": _TEXT_STATS_SQL,
    "ann_topk": _ANN_TOPK_SQL,
    "json_flatten": _JSON_FLATTEN_SQL,
    "iot_tasmota": _IOT_TASMOTA_SQL,
    "iot_tasmota_state": _IOT_TASMOTA_STATE_SQL,
    "iot_sensor_community": _IOT_SENSOR_COMMUNITY_SQL,
    "iot_tts_uplink": _IOT_TTS_SQL,
    "ext_json_roundtrip": _EXT_JSON_SQL,
    "bson_roundtrip": _BSON_ROUNDTRIP_SQL,
    "image_features": _IMAGE_FEATURES_SQL,
    "treatment_rules": _TREATMENT_RULES_SQL,
    "bcast_join_agg": _BCAST_JOIN_SQL,
    "asof_join": _ASOF_JOIN_SQL,
    "range_join": _RANGE_JOIN_SQL,
    "hash_join": _HASH_JOIN_SQL,
    "hash_join_left": _HASH_JOIN_LEFT_SQL,
    "window_rank": _WINDOW_RANK_SQL,
    "window_lag": _WINDOW_LAG_SQL,
    "pivot_event_types": _PIVOT_SQL,
    "quantile_filter": _QUANTILE_FILTER_SQL,
    "top_orders": _TOP_ORDERS_SQL,
    "pricing_summary": _PRICING_SUMMARY_SQL,
    "mixture_sample": _MIXTURE_SAMPLE_SQL,
    "percent_rank": _PERCENT_RANK_SQL,
    "basket_pairs": _BASKET_PAIRS_SQL,
    "shipping_priority": _SHIPPING_PRIORITY_SQL,
    "revenue_forecast": _REVENUE_FORECAST_SQL,
    "top_customers": _TOP_CUSTOMERS_SQL,
    "big_orders": _BIG_ORDERS_SQL,
    "brand_nation_revenue": _BRAND_NATION_REVENUE_SQL,
    "csv_ingest": _CSV_INGEST_SQL,
    "partition_prune": _PARTITION_PRUNE_SQL,
    "rolling_agg": _ROLLING_AGG_SQL,
    "event_paths": _EVENT_PATHS_SQL,
    "rolling_distinct": _ROLLING_DISTINCT_SQL,
    "stickiness": _STICKINESS_SQL,
    "first_last": _FIRST_LAST_SQL,
    "debounce": _DEBOUNCE_SQL,
    "throttle": _THROTTLE_SQL,
    "outliers": _OUTLIERS_SQL,
    "chi2": _CHI2_SQL,
    "bt_strength": _BT_STRENGTH_SQL,
    "zonemap_prune": _ZONEMAP_PRUNE_SQL,
    "minmax_scale": _MINMAX_SCALE_SQL,
    "cross_source_dups": _CROSS_SOURCE_DUPS_SQL,
    "weekday_profile": _WEEKDAY_PROFILE_SQL,
    "rollup": _ROLLUP_SQL,
    "cube": _CUBE_SQL,
    "unpivot": _UNPIVOT_SQL,
    "lm_score": _LM_SCORE_SQL,
    "lm_score_sharded": _LM_SCORE_SQL,
    "typo_pairs": _TYPO_PAIRS_SQL,
    "approx_distinct_by_key": _APPROX_DISTINCT_BY_KEY_SQL,
    "funnel_windowed": _FUNNEL_WINDOWED_SQL,
    "distinct_event_types": _DISTINCT_SQL,
    "approx_distinct": _APPROX_DISTINCT_SQL,
    "heavy_hitters": _HEAVY_HITTERS_SQL,
    "hash_sample": _HASH_SAMPLE_SQL,
    "weighted_sample": _WEIGHTED_SAMPLE_SQL,
    "source_entropy": _SOURCE_ENTROPY_SQL,
    "kl_per_user": _KL_PER_USER_SQL,
    "stratified_sample": _STRATIFIED_SAMPLE_SQL,
    "minhash_dedup_narrow": _MINHASH_DEDUP_SQL,
    "minhash_dedup": _MINHASH_DEDUP_SQL,
    "simhash": _SIMHASH_SQL,
    "simhash_dedup": _SIMHASH_DEDUP_SQL,
    "langid": _LANGID_SQL,
    "quality": _QUALITY_SQL,
    "fingerprint": _FINGERPRINT_SQL,
    "lsh_topk": _RECALL_GATE_SQL,
    "ivf_topk": _RECALL_GATE_SQL,
    "multimodal_features": _MULTIMODAL_SQL,
    "frame_sample": _FRAME_SAMPLE_SQL,
    "audio_windows": _AUDIO_WINDOWS_SQL,
    "ngram_jaccard": _NGRAM_JACCARD_SQL,
    "cap_per_source": _CAP_PER_SOURCE_SQL,
    "semi_join": _SEMI_JOIN_SQL,
    "anti_join": _ANTI_JOIN_SQL,
    "semi_join_bloom": _SEMI_JOIN_SQL,
    "vocab_df": _VOCAB_DF_SQL,
    "tfidf": _TFIDF_SQL,
    "quantiles": _QUANTILES_SQL,
    "approx_quantiles_by_key": _APPROX_QUANTILES_BY_KEY_SQL,
    "quantiles_per_key_sketch": _QUANTILES_PER_KEY_SKETCH_SQL,
    "quantiles_cont": _QUANTILES_CONT_SQL,
    "approx_quantiles": _APPROX_QUANTILES_SQL,
    "pii_scrub": _PII_SCRUB_SQL,
    "median_per_user": _MEDIAN_PER_USER_SQL,
    "cdc_change_feed": _CDC_CHANGE_FEED_SQL,
    "cdc_ivm": _CDC_IVM_SQL,
    "cdc_multi_table": _CDC_MULTI_TABLE_SQL,
    "cdc_time_travel": _CDC_TIME_TRAVEL_SQL,
    "cdc_snapshot_diff": _CDC_SNAPSHOT_DIFF_SQL,
    "cdc_replay_partial": _CDC_REPLAY_PARTIAL_SQL,
    "cdc_idempotent_replay": _CDC_REPLAY_SQL,
    "set_ops": _SET_OPS_SQL,
    "unnest_tokens": _UNNEST_SQL,
    "string_agg": _STRING_AGG_SQL,
    "revenue_by_nation": _REVENUE_BY_NATION_SQL,
    "grouped_corr": _GROUPED_CORR_SQL,
    "regex_extract": _REGEX_EXTRACT_SQL,
    "embed_centroid": _EMBED_CENTROID_SQL,
    "salted_join": _SALTED_JOIN_SQL,
    "distinct_per_group": _DISTINCT_PER_GROUP_SQL,
    "funnel": _FUNNEL_SQL,
    "outer_join": _OUTER_JOIN_SQL,
    "near_dedup_best": _NEAR_DEDUP_BEST_SQL,
    "corpus_prep": _CORPUS_PREP_SQL,
    "global_rank": _GLOBAL_RANK_SQL,
    "cdc_scd2": _CDC_SCD2_SQL,
    "scd2_lookup": _SCD2_LOOKUP_SQL,
    "attribution": _ATTRIBUTION_SQL,
    "cdc_merge_sources": _CDC_MERGE_SOURCES_SQL,
    "string_join": _STRING_JOIN_SQL,
    "jsonl_ingest": _JSONL_INGEST_SQL,
    "orc_ingest": _ORC_INGEST_SQL,
    "avro_ingest": _AVRO_INGEST_SQL,
    "proto_ingest": _AVRO_INGEST_SQL,
    "cdc_replay_avro": _CDC_REPLAY_SQL,
    "cdc_replay_proto": _CDC_REPLAY_SQL,
    "gzip_ingest": _GZIP_INGEST_SQL,
    "top_users_per_type": _TOP_USERS_SQL,
    "components": _COMPONENTS_SQL,
    "components_sharded": _COMPONENTS_SQL,
    "mode_per_group": _MODE_PER_GROUP_SQL,
    "sft_pairs": _SFT_PAIRS_SQL,
    "conv_dedup": _CONV_DEDUP_SQL,
    "conv_stats": _CONV_STATS_SQL,
    "role_transitions": _ROLE_TRANSITIONS_SQL,
    "cdc_schema_evolution": _CDC_SCHEMA_EVOLUTION_SQL,
    "cdc_schema_widening": _CDC_SCHEMA_WIDENING_SQL,
    "pack_sequences": _PACK_SEQUENCES_SQL,
    "decontam": _DECONTAM_SQL,
    "substring_dedup": _SUBSTRING_DEDUP_SQL,
    "span_removal": _SPAN_REMOVAL_SQL,
    "chunk_overlap": _CHUNK_OVERLAP_SQL,
    "rep_signals": _REP_SIGNALS_SQL,
    "pagerank": _PAGERANK_SQL,
    "cdc_lineage": _CDC_LINEAGE_SQL,
    "cdc_replay_actors": _CDC_REPLAY_SQL,
    "cdc_replay_delta": _CDC_REPLAY_SQL,
    "cdc_alerts": _CDC_ALERTS_SQL,
    "bm25": _BM25_SQL,
    "kmeans": _KMEANS_SQL,
    "semdedup": _SEMDEDUP_SQL,
    "kcore": _KCORE_SQL,
    "densest_subgraph": _DENSEST_SQL,
    "clustering_coeff": _CLUSTERING_COEFF_SQL,
    "assortativity": _ASSORTATIVITY_SQL,
    "hits": _HITS_SQL,
    "ppr": _PPR_SQL,
    "bfs_levels": _BFS_LEVELS_SQL,
    "sssp": _SSSP_SQL,
    "c4_clean": _C4_CLEAN_SQL,
    "mad_outliers": _MAD_OUTLIERS_SQL,
    "seq_gaps": _SEQ_GAPS_SQL,
    "seq_islands": _SEQ_ISLANDS_SQL,
    "profile_drift": _PROFILE_DRIFT_SQL,
    "kcore_sharded": _KCORE_SQL,
    "embed_covariance": _EMBED_COVARIANCE_SQL,
    "mutual_info": _MUTUAL_INFO_SQL,
    "rrf_fusion": _RRF_FUSION_SQL,
    "near_dedup_incremental": _NEAR_DEDUP_SQL,
    "bpe_train": _BPE_TRAIN_SQL,
    "bpe_segment": _BPE_SEGMENT_SQL,
    "kmeans_pp": _KMEANS_PP_SQL,
    "skyline": _SKYLINE_SQL,
    "bigrams": _BIGRAMS_SQL,
    "retention": _RETENTION_SQL,
    "triangles": _TRIANGLES_SQL,
    "triangles_exchange": _TRIANGLES_SQL,
    "normalize_text": _NORMALIZE_TEXT_SQL,
    "histogram": _HISTOGRAM_SQL,
    "cdc_feed_enriched": _CDC_FEED_ENRICHED_SQL,
    "ntile": _NTILE_SQL,
    "zorder": _ZORDER_SQL,
    "embed_quantize": _EMBED_QUANTIZE_SQL,
    "cdc_compaction": _CDC_REPLAY_SQL,
    "cdc_vacuum": _CDC_REPLAY_SQL,
    "link_prediction": _LINK_PREDICTION_SQL,
    "link_prediction_ra": _LINK_PREDICTION_RA_SQL,
    "dq_checks": _DQ_CHECKS_SQL,
    "table_profile": _TABLE_PROFILE_SQL,
    "gopher_quality": _GOPHER_QUALITY_SQL,
    "dpo_pairs": _DPO_PAIRS_SQL,
    "cdc_late_data": _CDC_LATE_DATA_SQL,
    "conv_prefix_dedup": _CONV_PREFIX_DEDUP_SQL,
    "sft_masks": _SFT_MASKS_SQL,
    "oov_rate": _OOV_RATE_SQL,
    "tool_call_stats": _TOOL_CALL_STATS_SQL,
    "cdc_late_dropped": _CDC_LATE_DROPPED_SQL,
    "context_truncate": _CONTEXT_TRUNCATE_SQL,
    "locf_fill": _LOCF_FILL_SQL,
    "hard_negatives": _HARD_NEGATIVES_SQL,
    "dataset_split": _DATASET_SPLIT_SQL,
    "typo_pairs2": _TYPO_PAIRS2_SQL,
    "mmr_rerank": _MMR_RERANK_SQL,
    "activity_gaps": _ACTIVITY_GAPS_SQL,
    "running_total": _RUNNING_TOTAL_SQL,
    "turn_latency": _TURN_LATENCY_SQL,
}
