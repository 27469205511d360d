"""Multi-table lake routing: envelopes carry table addresses; each table
gets its own partition space and files (reference TableAddress semantics,
model.py:20-29, incl. the awsdms_* → dms-schema diversion,
transform/aws_dms.py:47-55)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.decode.dialects import extract_table
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes


def envelope(lsn, conv, turn, text, table="transcripts", schema="public"):
    payload = {
        "data": {"conv_id": conv, "turn_idx": turn, "role": "user", "text": text,
                 "tool": None, "ts": "2024-01-01T00:00:00"},
        "before-image": {},
        "metadata": {"operation": "insert", "record-type": "data",
                     "schema-name": schema, "table-name": table},
    }
    return {"lsn": lsn, "source_offset": lsn, "dialect": "debezium",
            "payload": json.dumps(payload), "conv_id": conv}


def test_extract_table_rules():
    assert extract_table({"metadata": {"table-name": "t", "schema-name": "public"}}, "d") == "t"
    assert extract_table({"metadata": {"table-name": "t", "schema-name": "s"}}, "d") == "s.t"
    # awsdms_* control tables divert to the dms schema
    assert (
        extract_table({"metadata": {"table-name": "awsdms_status", "schema-name": "public"}}, "d")
        == "dms.awsdms_status"
    )
    assert extract_table({"table": {"name": "t", "schema": "public"}}, "d") == "t"
    assert extract_table({"table": {"name": "t", "schema": "s"}}, "d") == "s.t"
    assert extract_table({}, "default_t") == "default_t"


def test_decode_routes_tables():
    rows = [
        envelope(0, "a", 0, "to-transcripts"),
        envelope(1, "a", 0, "to-notes", table="notes"),
        envelope(2, "a", 0, "to-dms", table="awsdms_status"),
    ]
    env = pa.Table.from_pylist(rows)
    ops = DecodeEnvelopes(PipelineConfig(), combine=False)(env)
    tables = ops["table_name"].to_pylist()
    assert tables == ["transcripts", "notes", "dms.awsdms_status"]


def test_lww_combine_keys_on_table_name():
    """Regression: the within-batch combine runs BEFORE the per-table
    split, so ops for the SAME (conv_id, turn_idx) in DIFFERENT tables
    must both survive — the lower-lsn table's op used to be dropped."""
    from commons_codec_ray.stages.applier import lww_combine_batch

    rows = [
        envelope(0, "a", 0, "t-keep"),
        envelope(1, "a", 0, "n-keep", table="notes"),
    ]
    ops = DecodeEnvelopes(PipelineConfig(), combine=False)(pa.Table.from_pylist(rows))
    combined = lww_combine_batch(ops)
    assert combined.num_rows == 2
    got = dict(zip(combined["table_name"].to_pylist(), combined["text"].to_pylist()))
    assert got == {"transcripts": "t-keep", "notes": "n-keep"}


def test_multi_table_colliding_keys_replay(tmp_path, placement):
    """E2E regression for cross-table key collisions: identical
    (conv_id, turn_idx) exists in both tables within one epoch/batch."""
    rows = [
        envelope(0, "a", 0, "t-row"),
        envelope(1, "a", 0, "n-row", table="notes"),
        envelope(2, "b", 3, "t-other"),
        envelope(3, "b", 3, "n-other", table="notes"),
    ]
    log = tmp_path / "env.parquet"
    pq.write_table(pa.Table.from_pylist(rows), log)
    lake = tmp_path / "lake_collide"
    pipe = CDCPipeline(lake, PipelineConfig(num_partitions=4, epoch_size=100))
    pipe.replay(str(log), epoch_size=100)
    tdf = pipe.read_lake(table="transcripts").to_pandas().sort_values(["conv_id", "turn_idx"])
    ndf = pipe.read_lake(table="notes").to_pandas().sort_values(["conv_id", "turn_idx"])
    assert tdf["text"].tolist() == ["t-row", "t-other"]
    assert ndf["text"].tolist() == ["n-row", "n-other"]


def test_multi_table_replay_and_read(tmp_path, placement):
    rows = [
        envelope(0, "a", 0, "t-row-1"),
        envelope(1, "b", 0, "t-row-2"),
        envelope(2, "a", 0, "n-row-1", table="notes"),
        # epoch boundary
        envelope(3, "a", 1, "t-row-3"),
        envelope(4, "b", 0, "n-row-2", table="notes"),
        envelope(5, "a", 0, "t-row-1-updated"),  # LWW update in transcripts only
    ]
    log = tmp_path / "env.parquet"
    pq.write_table(pa.Table.from_pylist(rows), log)
    lake = tmp_path / "lake"
    pipe = CDCPipeline(lake, PipelineConfig(num_partitions=4, epoch_size=3))
    pipe.replay(str(log), epoch_size=3)

    tdf = pipe.read_lake(table="transcripts").to_pandas().sort_values(["conv_id", "turn_idx"])
    ndf = pipe.read_lake(table="notes").to_pandas().sort_values(["conv_id", "turn_idx"])
    assert tdf["text"].tolist() == ["t-row-1-updated", "t-row-3", "t-row-2"]
    assert ndf["text"].tolist() == ["n-row-1", "n-row-2"]
    # partition files live under per-table directories
    files = {str(p.relative_to(lake)) for p in lake.rglob("part-*.parquet")}
    assert any("/notes/" in f for f in files)
    assert any("/transcripts/" in f for f in files)
    # checkpoint keys are table-scoped
    keys = set(pipe.checkpoint().partitions)
    assert any(k.startswith("notes#") for k in keys)
    assert any(k.startswith("transcripts#") for k in keys)


def test_multi_table_offline_compact_scoped_per_table(tmp_path):
    """compact(table=...) folds ONLY that table's chains; the other
    table's delta chains and state are untouched, and a second call
    compacts the rest."""
    from commons_codec_ray.sink.manifest import entry_files

    rows = []
    lsn = 0
    for wave in range(3):  # 3 epochs → base + 2 deltas per partition
        for conv in ("a", "b", "c"):
            rows.append(envelope(lsn, conv, 0, f"t-{conv}-{wave}"))
            lsn += 1
            rows.append(envelope(lsn, conv, 0, f"n-{conv}-{wave}", table="notes"))
            lsn += 1
    log = tmp_path / "env.parquet"
    pq.write_table(pa.Table.from_pylist(rows), log)
    pipe = CDCPipeline(
        tmp_path / "lake",
        PipelineConfig(num_partitions=4, epoch_size=6, sink_mode="delta",
                       compact_ratio=1e9, compact_max_deltas=10**6),
    )
    pipe.replay(str(log), epoch_size=6)

    def chains(ck, table):
        return {
            k: entry_files(e)[1]
            for k, e in ck.partitions.items()
            if k.startswith(f"{table}#") and entry_files(e)[1]
        }

    before = pipe.checkpoint()
    assert chains(before, "transcripts") and chains(before, "notes")

    res = pipe.compact(table="transcripts")
    assert not res["skipped"] and res["partitions_compacted"] > 0
    mid = pipe.checkpoint()
    assert not chains(mid, "transcripts")        # folded
    assert chains(mid, "notes") == chains(before, "notes")  # untouched

    tdf = pipe.read_lake(table="transcripts").to_pandas().sort_values("conv_id")
    ndf = pipe.read_lake(table="notes").to_pandas().sort_values("conv_id")
    assert tdf["text"].tolist() == ["t-a-2", "t-b-2", "t-c-2"]
    assert ndf["text"].tolist() == ["n-a-2", "n-b-2", "n-c-2"]

    res2 = pipe.compact(table="notes")
    assert not res2["skipped"]
    after = pipe.checkpoint()
    assert not chains(after, "notes")
    ndf2 = pipe.read_lake(table="notes").to_pandas().sort_values("conv_id")
    assert ndf2["text"].tolist() == ["n-a-2", "n-b-2", "n-c-2"]
    # compacted files live under per-table epoch directories
    lake = tmp_path / "lake"
    comp_files = {
        str(p.relative_to(lake))
        for p in lake.rglob("part-*.parquet")
        if f"epoch-{mid.last_epoch:08d}" in str(p)
        or f"epoch-{after.last_epoch:08d}" in str(p)
    }
    assert any("/transcripts/" in f for f in comp_files)
    assert any("/notes/" in f for f in comp_files)
