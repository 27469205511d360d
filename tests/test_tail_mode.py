"""Continuous-tail ingestion: the log grows between polls; every offset
is ingested exactly once; final state matches a one-shot replay."""

import pyarrow as pa
import pyarrow.parquet as pq

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.decode.dialects import DECODERS
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical

SF_DIR = "/root/testdata/sf0.001"


def test_poll_ingests_appended_files(tmp_path):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    log = tmp_path / "log"
    log.mkdir()

    # stream arrives in three appends of uneven size
    chunks = [(0, 250), (250, 700), (700, 1000)]
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=300))

    assert pipe.poll(str(log)) == 0 if not list(log.glob("*")) else True

    total = 0
    for i, (lo, hi) in enumerate(chunks):
        part = env.filter(
            pa.compute.and_(
                pa.compute.greater_equal(env["source_offset"], lo),
                pa.compute.less(env["source_offset"], hi),
            )
        )
        pq.write_table(part, log / f"append-{i}.parquet", row_group_size=100)
        got = pipe.poll(str(log))
        assert got > 0
        total += got

    # partial-epoch commits clamp to the head: nothing skipped, nothing double
    ck = pipe.checkpoint()
    assert ck.next_offset == 1000
    got_tbl = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got_tbl.equals(want.cast(got_tbl.schema))
    # idle poll finds nothing
    assert pipe.poll(str(log)) == 0


def test_watch_stops_after_idle(tmp_path):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(env, log / "all.parquet", row_group_size=200)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=500))
    res = pipe.watch(str(log), poll_interval_s=0.01, max_idle_polls=2)
    assert res["offsets_ingested"] == 1000
    assert pipe.checkpoint().next_offset == 1000


def test_poll_actors_reuses_warm_pool(tmp_path):
    """Tail mode keeps the applier actor pool warm across polls (actor
    spawn ~1 s otherwise paid per poll); results stay identical and
    close() releases the pool."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    log = tmp_path / "log"
    log.mkdir()
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=300))

    def append(i, lo, hi):
        part = env.filter(
            pa.compute.and_(
                pa.compute.greater_equal(env["source_offset"], lo),
                pa.compute.less(env["source_offset"], hi),
            )
        )
        pq.write_table(part, log / f"append-{i}.parquet", row_group_size=100)

    append(0, 0, 400)
    assert pipe.poll(str(log)) > 0
    runner = pipe._runner
    assert runner is not None  # pool kept warm after the poll

    append(1, 400, 1000)
    assert pipe.poll(str(log)) > 0
    assert pipe._runner is runner  # SAME pool reused, no respawn

    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))

    pipe.close()
    assert pipe._runner is None


def _append(env, log, i, lo, hi):
    """Write the envelopes with offsets in [lo, hi) as the log's i-th file."""
    off = env["source_offset"]
    part = env.filter(pa.compute.and_(pa.compute.greater_equal(off, lo), pa.compute.less(off, hi)))
    pq.write_table(part, log / f"append-{i}.parquet", row_group_size=100)


def _assert_lake_is_oracle(pipe, env):
    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.num_rows == want.num_rows
    assert got.equals(want.cast(got.schema))


def test_poll_after_dead_letter_replay_keeps_replayed_rows(tmp_path, monkeypatch):
    """Dead-letter replay commits an epoch without the pool a poll keeps
    warm; the next poll must not rewrite partitions from the pool's
    older state, which lacks the replayed rows."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    # a slice of the debezium envelopes arrives under a dialect name the
    # decoders do not know yet: those rows dead-letter
    renamed = pa.compute.and_(
        pa.compute.equal(pa.compute.bit_wise_and(env["lsn"], 4), 4),
        pa.compute.equal(env["dialect"], "debezium"),
    )
    dialect = pa.compute.if_else(renamed, pa.scalar("vendor-x"), env["dialect"])
    env = env.set_column(env.schema.get_field_index("dialect"), "dialect", dialect)
    log = tmp_path / "log"
    log.mkdir()
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=300))
    _append(env, log, 0, 0, 500)
    assert pipe.poll(str(log)) > 0
    assert pipe.metrics()["dead_letters_total"] > 0
    monkeypatch.setitem(DECODERS, "vendor-x", DECODERS["debezium"])
    assert pipe.replay_dead_letters()["dead_letters"] == 0
    _append(env, log, 1, 500, 1000)
    assert pipe.poll(str(log)) > 0
    _assert_lake_is_oracle(pipe, env)
    pipe.close()


def test_poll_after_compact_and_vacuum_reads_no_deleted_file(tmp_path):
    """compact() commits an epoch without the warm pool, and vacuum then
    deletes the files the pool would reload its evicted partitions from;
    the next poll must start from the compacted checkpoint."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    log = tmp_path / "log"
    log.mkdir()
    cfg = PipelineConfig(
        num_partitions=8, epoch_size=300, sink_mode="delta", compact_ratio=10.0,
        applier_state_budget_bytes=1,
    )
    pipe = CDCPipeline(tmp_path / "lake", cfg)
    for i, (lo, hi) in enumerate([(0, 400), (400, 700), (700, 1000)]):
        _append(env, log, i, lo, hi)
        if i == 2:
            assert pipe.compact()["partitions_compacted"] > 0
            pipe.vacuum(keep_last=0)
        assert pipe.poll(str(log)) > 0
    _assert_lake_is_oracle(pipe, env)
    pipe.close()
