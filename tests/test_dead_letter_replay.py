"""Dead-letter replay: re-ingest the queue through a fixed decoder."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.decode.dialects import DECODERS
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.pipelines.oracle import replay_envelopes

SF_DIR = "/root/testdata/sf0.001"


def _canonical(df):
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_dead_letter_replay_after_decoder_fix(ray_session, tmp_path, monkeypatch):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events)
    # a slice of the debezium-framed envelopes arrives under an UNKNOWN
    # dialect name (vendor firmware update...) — decode fails, rows
    # dead-letter instead of crashing
    unknown = pc.and_(
        pc.equal(pc.bit_wise_and(env["lsn"], 4), 4),
        pc.equal(env["dialect"], "debezium"),
    )
    dialect = pc.if_else(unknown, pa.scalar("vendor-x"), env["dialect"])
    env = env.set_column(env.schema.get_field_index("dialect"), "dialect", dialect)
    log = tmp_path / "env.parquet"
    pq.write_table(env.sort_by("source_offset"), log, row_group_size=200)

    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8))
    results = pipe.replay(str(log))
    n_dead = sum(r["dead_letters"] for r in results)
    assert n_dead == pc.sum(pc.cast(unknown, pa.int64())).as_py()

    # the queue is self-describing: dialect + raw payload ride each row
    dl = rd.read_parquet(
        sorted(str(f) for f in (tmp_path / "lake" / "dead_letters").glob("epoch-*/*.parquet"))
    ).to_pandas()
    assert len(dl) == n_dead
    import json

    assert json.loads(dl["aux"].iloc[0])["dialect"] == "vendor-x"

    # --- the fix ships: vendor-x speaks debezium framing after all -----
    monkeypatch.setitem(DECODERS, "vendor-x", DECODERS["debezium"])
    before = pipe.checkpoint()
    res = pipe.replay_dead_letters()
    # "events" counts post-LWW-combine ops, not raw envelopes — the
    # strong check is the lake-vs-oracle equality below
    assert res["events"] > 0 and res["dead_letters"] == 0
    # tail position never regresses; queue is consumed
    after = pipe.checkpoint()
    assert after.next_offset == before.next_offset
    assert after.last_epoch == before.last_epoch + 1
    assert not list((tmp_path / "lake" / "dead_letters").glob("epoch-*/*.parquet"))

    # the lake now equals the sequential oracle over the FULL stream
    want = _canonical(replay_envelopes(env).to_pandas())
    got = _canonical(pipe.read_lake().to_pandas())
    assert got.equals(want)


def test_dead_letter_replay_noop_when_queue_empty(ray_session, tmp_path):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("source_offset")
    log = tmp_path / "env.parquet"
    pq.write_table(env, log)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8))
    pipe.replay(str(log))
    res = pipe.replay_dead_letters()
    assert res.get("skipped") and res["events"] == 0


def test_dialect_registered_in_driver_reaches_decode_tasks(ray_session, tmp_path, monkeypatch):
    """A decoder registered in the driver process decodes the replay's
    envelopes, although the decode tasks run in worker processes."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events)
    renamed = pc.equal(env["dialect"], "debezium")
    assert pc.any(renamed).as_py()
    dialect = pc.if_else(renamed, pa.scalar("vendor-x"), env["dialect"])
    env = env.set_column(env.schema.get_field_index("dialect"), "dialect", dialect)
    log = tmp_path / "env.parquet"
    pq.write_table(env.sort_by("source_offset"), log, row_group_size=200)

    monkeypatch.setitem(DECODERS, "vendor-x", DECODERS["debezium"])
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=400))
    results = pipe.replay(str(log))
    assert sum(r["dead_letters"] for r in results) == 0
    want = _canonical(replay_envelopes(env).to_pandas())
    got = _canonical(pipe.read_lake().to_pandas())
    assert got.equals(want)
