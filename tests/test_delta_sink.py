"""Delta sink: per-epoch delta files + tombstones, merge-on-read,
automatic compaction — byte-identical to the rewrite sink."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical
from commons_codec_ray.sink.manifest import entry_files

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def env_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("deltalog") / "env.parquet"
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    pq.write_table(env, out, row_group_size=100)
    return str(out), env


def _cfg(**kw):
    base = dict(num_partitions=8, epoch_size=200, sink_mode="delta",
                compact_ratio=0.6, compact_max_deltas=3)
    base.update(kw)
    return PipelineConfig(**base)


def test_delta_matches_rewrite_and_oracle(tmp_path, env_log, placement):
    log, env = env_log
    pd_ = CDCPipeline(tmp_path / "lake_d", _cfg())
    pd_.replay(log)
    pr = CDCPipeline(tmp_path / "lake_r",
                     PipelineConfig(num_partitions=8, epoch_size=200))
    pr.replay(log)

    got_d = sorted_canonical(pa.Table.from_pandas(pd_.read_lake().to_pandas()))
    got_r = sorted_canonical(pa.Table.from_pandas(pr.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got_d.equals(want.cast(got_d.schema))
    assert got_d.equals(got_r)
    # delta files actually exist (the sink isn't silently rewriting)
    deltas = list((tmp_path / "lake_d").rglob("*.delta.parquet"))
    assert deltas, "expected at least one delta file"


def test_compaction_bounds_delta_chains(tmp_path, env_log):
    log, env = env_log
    pipe = CDCPipeline(tmp_path / "lake", _cfg(epoch_size=100, compact_max_deltas=2))
    pipe.replay(log)  # 10 epochs of 100 offsets
    ck = pipe.checkpoint()
    for key, entry in ck.partitions.items():
        _, deltas = entry_files(entry)
        assert len(deltas) <= 2, f"{key} delta chain unbounded: {deltas}"
    # state still exact
    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))


def test_delta_resume_across_modes(tmp_path, env_log):
    log, env = env_log
    lake = tmp_path / "lake"
    p1 = CDCPipeline(lake, _cfg())
    p1.replay(log, max_offset=399)
    p2 = CDCPipeline(lake, _cfg())
    p2.replay(log)
    got = sorted_canonical(pa.Table.from_pandas(p2.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))


def test_delta_time_travel_and_vacuum(tmp_path, env_log):
    log, env = env_log
    pipe = CDCPipeline(tmp_path / "lake", _cfg())
    pipe.replay(log)
    # epoch-0 snapshot == oracle of first 200 offsets
    got0 = sorted_canonical(pa.Table.from_pandas(pipe.read_lake(epoch=0).to_pandas()))
    first = env.filter(pa.compute.less(env["source_offset"], 200))
    want0 = sorted_canonical(replay_envelopes(first))
    assert got0.equals(want0.cast(got0.schema))
    # vacuum keeps the current state readable
    pipe.vacuum(keep_last=0)
    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))


def test_delta_tombstones_delete_across_epochs(tmp_path):
    import json

    def env_row(lsn, op, conv, turn, text=None):
        if op == "delete":
            data = {"conv_id": conv, "turn_idx": turn, "role": None, "text": None,
                    "tool": None, "ts": None}
        else:
            data = {"conv_id": conv, "turn_idx": turn, "role": "user", "text": text,
                    "tool": None, "ts": "2024-01-01T00:00:00"}
        payload = {"data": data, "before-image": {},
                   "metadata": {"operation": op, "record-type": "data",
                                "schema-name": "public", "table-name": "transcripts"}}
        return {"lsn": lsn, "source_offset": lsn, "dialect": "debezium",
                "payload": json.dumps(payload), "conv_id": conv}

    rows = [
        env_row(0, "insert", "a", 0, "keep"),
        env_row(1, "insert", "a", 1, "to-die"),
        # epoch boundary at 2 → the delete arrives in a later DELTA file
        env_row(2, "delete", "a", 1),
    ]
    log = tmp_path / "env.parquet"
    pq.write_table(pa.Table.from_pylist(rows), log)
    pipe = CDCPipeline(tmp_path / "lake", _cfg(num_partitions=2, epoch_size=2))
    pipe.replay(str(log))
    df = pipe.read_lake().to_pandas()
    assert df["text"].tolist() == ["keep"]  # tombstone applied on read
