"""Schema evolution via in-band control events (pattern: reference
tests/transform/test_aws_dms_universal.py:262-271 create→drop→recreate,
PK harvest at transform/aws_dms.py:140-144)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig, SchemaRegistry, resolve_logical_type
from commons_codec_ray.pipelines.cdc import CDCPipeline


def control_envelope(lsn, columns, pk=("conv_id", "turn_idx"), operation="create-table"):
    payload = {
        "control": {"table-def": {"columns": columns, "primary-key": list(pk)}},
        "metadata": {"operation": operation, "schema-name": "public",
                     "table-name": "transcripts", "record-type": "control"},
    }
    if operation == "drop-table":
        payload.pop("control")
    return {"lsn": lsn, "source_offset": lsn, "dialect": "debezium",
            "payload": json.dumps(payload), "conv_id": None}


def data_envelope(lsn, conv_id, turn_idx, text, extra=None):
    data = {"conv_id": conv_id, "turn_idx": turn_idx, "role": "user",
            "text": text, "tool": None, "ts": "2024-01-01T00:00:00"}
    if extra:
        data.update(extra)
    payload = {"data": data, "before-image": {},
               "metadata": {"operation": "insert", "record-type": "data",
                            "schema-name": "public", "table-name": "transcripts"}}
    return {"lsn": lsn, "source_offset": lsn, "dialect": "debezium",
            "payload": json.dumps(payload), "conv_id": conv_id}


def write_log(path, rows):
    pq.write_table(pa.Table.from_pylist(rows), path)


def test_added_column_materializes_and_backfills_null(tmp_path):
    log = tmp_path / "env.parquet"
    write_log(
        log,
        [
            data_envelope(0, "a", 0, "old-row"),
            # epoch boundary at 2 → control lands in epoch 1
            control_envelope(2, {
                "conv_id": {"type": "STRING"}, "turn_idx": {"type": "INT32"},
                "role": {"type": "STRING"}, "text": {"type": "STRING"},
                "tool": {"type": "STRING"}, "ts": {"type": "TIMESTAMP"},
                "rating": {"type": "INT32"},
            }),
            data_envelope(3, "a", 1, "new-row", extra={"rating": 5}),
        ],
    )
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4, epoch_size=2))
    pipe.replay(str(log), epoch_size=2)
    df = pipe.read_lake().to_pandas().sort_values("turn_idx").reset_index(drop=True)
    assert "rating" in df.columns
    assert df.loc[df.turn_idx == 1, "rating"].iloc[0] == 5
    assert df.loc[df.turn_idx == 0, "rating"].isna().all()  # old rows null-filled


def test_added_column_actor_mode(tmp_path, monkeypatch):
    """Schema evolution must behave identically on spawned applier
    actors (decode tasks return the control → registry →
    set_extra_columns on every actor before the flush)."""
    monkeypatch.setattr(util, "DRIVER_POOL_ROWS", 0)
    log = tmp_path / "env.parquet"
    write_log(
        log,
        [
            data_envelope(0, "a", 0, "old-row"),
            control_envelope(2, {
                "conv_id": {"type": "STRING"}, "turn_idx": {"type": "INT32"},
                "role": {"type": "STRING"}, "text": {"type": "STRING"},
                "tool": {"type": "STRING"}, "ts": {"type": "TIMESTAMP"},
                "rating": {"type": "INT32"},
            }),
            data_envelope(3, "a", 1, "new-row", extra={"rating": 5}),
        ],
    )
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4, epoch_size=2))
    pipe.replay(str(log), epoch_size=2)
    assert {e["appliers"] for e in pipe.metrics()["epochs"]} == {2}
    df = pipe.read_lake().to_pandas().sort_values("turn_idx").reset_index(drop=True)
    assert "rating" in df.columns
    assert df.loc[df.turn_idx == 1, "rating"].iloc[0] == 5
    assert df.loc[df.turn_idx == 0, "rating"].isna().all()


def test_registry_snapshot_survives_restart(tmp_path):
    log = tmp_path / "env.parquet"
    write_log(
        log,
        [
            control_envelope(0, {"rating": {"type": "INT64"}}),
            data_envelope(1, "a", 0, "x", extra={"rating": 1}),
        ],
    )
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4))
    pipe.replay(str(log))
    # fresh process: registry must come back from the checkpoint
    pipe2 = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4))
    assert "rating" in pipe2.config.registry.column_types["transcripts"]
    assert pipe2.config.registry.primary_keys["transcripts"] == ["conv_id", "turn_idx"]


def test_drop_table_resets_to_caller_baseline():
    reg = SchemaRegistry()
    reg.column_types = {"transcripts": {"conv_id": "STRING"}}
    reg.primary_keys = {"transcripts": ["conv_id"]}
    reg.seed()
    reg.apply_create_table("transcripts", {"extra": "INT32"}, ["conv_id", "extra"])
    assert "extra" in reg.column_types["transcripts"]
    assert reg.primary_keys["transcripts"] == ["conv_id", "extra"]
    reg.apply_drop_table("transcripts")
    assert reg.column_types["transcripts"] == {"conv_id": "STRING"}
    assert reg.primary_keys["transcripts"] == ["conv_id"]


def test_type_widening_via_unify():
    reg = SchemaRegistry()
    reg.column_types = {"t": {"x": "INT32"}}
    base = pa.schema([pa.field("x", pa.int32())])
    reg.apply_create_table("t", {"x": "INT64"}, ["x"])
    unified = reg.arrow_schema("t", base)
    assert unified.field("x").type == pa.int64()


@pytest.mark.parametrize(
    "ltype,expected",
    [("INT8", pa.int8()), ("INT16", pa.int16()), ("INT32", pa.int32()),
     ("INT64", pa.int64()), ("STRING", pa.string()), ("WHATEVER", pa.string()),
     ("TIMESTAMP", pa.timestamp("us")), ("BOOLEAN", pa.bool_())],
)
def test_logical_type_resolution(ltype, expected):
    # INT family by width, everything else → string (ref transform/aws_dms.py:226-246)
    assert resolve_logical_type(ltype) == expected


def test_registry_json_roundtrip():
    reg = SchemaRegistry()
    reg.apply_create_table("t", {"a": "INT32"}, ["a"])
    reg2 = SchemaRegistry.from_json(reg.to_json())
    assert reg2.column_types == reg.column_types
    assert reg2.primary_keys == reg.primary_keys
    assert reg2.version == reg.version


def test_added_column_actor_mode_with_spill(tmp_path):
    """Schema evolution must also survive the LRU spill path: the evolved
    column lives only in actor memory between write and evict, so the
    evict→reload round trip must preserve it (reload merges with the
    CURRENT extra_columns)."""
    log = tmp_path / "env.parquet"
    write_log(
        log,
        [
            data_envelope(0, "a", 0, "old-row"),
            control_envelope(2, {
                "conv_id": {"type": "STRING"}, "turn_idx": {"type": "INT32"},
                "role": {"type": "STRING"}, "text": {"type": "STRING"},
                "tool": {"type": "STRING"}, "ts": {"type": "TIMESTAMP"},
                "rating": {"type": "INT32"},
            }),
            data_envelope(3, "a", 1, "new-row", extra={"rating": 5}),
            # third epoch touches the same partition again AFTER eviction
            data_envelope(4, "a", 0, "old-row-updated", extra={"rating": 7}),
        ],
    )
    cfg = PipelineConfig(num_partitions=4, epoch_size=2, applier_state_budget_bytes=1)
    pipe = CDCPipeline(tmp_path / "lake", cfg)
    pipe.replay(str(log), epoch_size=2)
    df = pipe.read_lake().to_pandas().sort_values("turn_idx").reset_index(drop=True)
    assert df["text"].tolist() == ["old-row-updated", "new-row"]
    assert df["rating"].tolist() == [7, 5]


def test_added_column_survives_delta_sink_and_spill(tmp_path, placement):
    """Regression: delta files must CARRY schema-evolved columns
    (materialized from aux) — with an eviction budget, partition state is
    rebuilt purely from base+delta files, and evolved values used to come
    back null after evict/reload."""
    log = tmp_path / "env.parquet"
    write_log(
        log,
        [
            data_envelope(0, "a", 0, "base-row"),
            control_envelope(2, {
                "conv_id": {"type": "STRING"}, "turn_idx": {"type": "INT32"},
                "role": {"type": "STRING"}, "text": {"type": "STRING"},
                "tool": {"type": "STRING"}, "ts": {"type": "TIMESTAMP"},
                "rating": {"type": "INT32"},
            }),
            data_envelope(3, "a", 1, "delta-row", extra={"rating": 5}),
            # another epoch forces an evict/reload round trip before read
            data_envelope(4, "a", 2, "later-row", extra={"rating": 9}),
        ],
    )
    cfg = PipelineConfig(
        num_partitions=4, epoch_size=2, sink_mode="delta", applier_state_budget_bytes=1,
    )
    pipe = CDCPipeline(tmp_path / "lake", cfg)
    pipe.replay(str(log), epoch_size=2)
    df = pipe.read_lake().to_pandas().sort_values("turn_idx").reset_index(drop=True)
    assert df["text"].tolist() == ["base-row", "delta-row", "later-row"]
    assert df.loc[1, "rating"] == 5  # carried by a DELTA file, not a rewrite
    assert df.loc[2, "rating"] == 9


def test_type_widening_replay_never_rewrites_committed_files(tmp_path, ray_session):
    # three-phase widening replay (the q_cdc_schema_widening shape, small):
    # files committed under the INT32 registry must stay int32 on disk
    # while the unified read surfaces float64
    import pyarrow.parquet as pq_

    from commons_codec_ray.envelopes import EventsToEnvelopes
    from commons_codec_ray.pipelines.cdc import CDCPipeline
    from commons_codec_ray.pipelines.queries import _schema_control_payload

    events = pq_.read_table("/root/testdata/sf0.001/events.parquet")
    n = events.num_rows
    b1, b2 = n // 3, 2 * n // 3
    ids = events["event_id"]
    import pyarrow.compute as pc_

    e1 = EventsToEnvelopes(dialect="debezium", duplicates=False)(
        events.filter(pc_.less(ids, b1))
    )
    e2 = EventsToEnvelopes(
        dialect="debezium", duplicates=False, lsn_offset=1, extra_int_field="rating"
    )(events.filter(pc_.and_(pc_.greater_equal(ids, b1), pc_.less(ids, b2))))
    e3 = EventsToEnvelopes(
        dialect="debezium", duplicates=False, lsn_offset=2, extra_real_field="rating"
    )(events.filter(pc_.greater_equal(ids, b2)))

    def control(lsn, rating_type):
        return pa.table(
            {
                "lsn": pa.array([lsn], pa.int64()),
                "source_offset": pa.array([lsn], pa.int64()),
                "dialect": pa.array(["debezium"]),
                "payload": pa.array([_schema_control_payload(rating_type)]),
                "conv_id": pa.array([None], pa.string()),
            }
        )

    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8))
    parts = [e1, pa.concat_tables([control(b1, "INT32"), e2]),
             pa.concat_tables([control(b2 + 1, "REAL8"), e3])]
    for epoch, part in enumerate(parts):
        import ray.data as rd_

        offs = part["source_offset"]
        pipe.run_epoch(
            rd_.from_arrow(part), epoch=epoch,
            offset_range=(pc_.min(offs).as_py(), pc_.max(offs).as_py()),
        )

    # epoch-1 files (committed under INT32) keep int32 rating on disk
    m1 = pipe.store.read_manifest(1)
    e1_types = {
        pq_.read_schema(str(pipe.store.root / info["path"])).field("rating").type
        for info in m1["files"].values()
    }
    assert e1_types == {pa.int32()}
    # epoch-2 files carry the widened type
    m2 = pipe.store.read_manifest(2)
    e2_types = {
        pq_.read_schema(str(pipe.store.root / info["path"])).field("rating").type
        for info in m2["files"].values()
    }
    assert e2_types == {pa.float64()}
    # the unified read surfaces float64 with int-phase values exact
    df = pipe.read_lake().to_pandas()
    assert str(df["rating"].dtype) in ("float64", "Float64")


def _object_column_log(control_epoch_before_data: bool):
    """A create-table control registering ``meta`` as OBJECT on
    ``transcripts``, plus data rows carrying ``meta`` as a JSON string.
    With epoch_size=2 the control shares epoch 1 with the first ``meta``
    row, or (``control_epoch_before_data``) lands one epoch earlier."""
    columns = {
        "conv_id": {"type": "STRING"}, "turn_idx": {"type": "INT32"},
        "role": {"type": "STRING"}, "text": {"type": "STRING"},
        "tool": {"type": "STRING"}, "ts": {"type": "TIMESTAMP"},
        "meta": {"type": "OBJECT"},
    }
    meta = {"meta": '{"score":3,"lang":"en"}'}  # not in canonical form
    rows = [data_envelope(0, "a", 0, "before", extra=meta),
            data_envelope(1, "b", 0, "before", extra=meta),
            control_envelope(2, columns)]
    if control_epoch_before_data:
        rows += [data_envelope(3, "c", 0, "plain"),
                 data_envelope(4, "a", 1, "after", extra=meta),
                 data_envelope(5, "b", 0, "after", extra=meta)]
    else:
        rows += [data_envelope(3, "a", 1, "after", extra=meta),
                 data_envelope(4, "b", 0, "after", extra=meta),
                 data_envelope(5, "c", 0, "plain")]
    return rows


@pytest.mark.parametrize("control_epoch_before_data", [False, True])
def test_object_column_control_same_lake_in_both_modes(tmp_path, control_epoch_before_data):
    """A control event that registers an OBJECT column changes how the
    decoder treats that column (JSON strings are re-parsed). The replay
    learns the epoch's controls from its decode tasks, so when they land
    in the same epoch as the data it must decode that epoch again;
    either way rows before the control keep a null ``meta`` and rows
    after it carry the re-parsed value."""
    log = tmp_path / "env.parquet"
    write_log(log, _object_column_log(control_epoch_before_data))
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4, epoch_size=2))
    results = pipe.replay(str(log), epoch_size=2)
    refs = pipe.read_lake(with_lsn=True).to_arrow_refs()
    lake = pa.concat_tables(ray.get(refs), promote_options="permissive")
    # the lake stores the re-parsed value as canonical JSON text
    canonical = '{"lang": "en", "score": 3}'
    keys = zip(lake["conv_id"].to_pylist(), lake["turn_idx"].to_pylist())
    metas = dict(zip(keys, lake["meta"].to_pylist()))
    want = {("a", 0): None, ("a", 1): canonical, ("b", 0): canonical, ("c", 0): None}
    assert metas == want
    schema_events = [
        pipe.store.read_manifest(r["epoch"])["metrics"]["schema_events"] for r in results
    ]
    assert schema_events == [0, 1, 0]
