"""Applier-state LRU spill: with an artificially tiny state budget every
partition is evicted after each apply and reloaded from its
committed/epoch files on the next touch — the final lake must equal the
single-thread oracle's (lake ≫ RAM mode, SURVEY.md §3.4 / TODO #5)."""

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def envelope_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("envlog_spill") / "envelopes.parquet"
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events)
    env = env.sort_by("lsn")
    pq.write_table(env, out, row_group_size=200)
    return str(out)


def canonical(tbl: pa.Table) -> pa.Table:
    return sorted_canonical(tbl.select(["conv_id", "turn_idx", "role", "text", "tool", "ts"]))


def oracle_lake(envelope_log: str) -> pa.Table:
    return canonical(replay_envelopes(pq.read_table(envelope_log)))


@pytest.mark.parametrize("sink_mode", ["rewrite", "delta"])
def test_spilled_actor_replay_matches_groupby(tmp_path, envelope_log, sink_mode):
    want = oracle_lake(envelope_log)

    # a 1-byte budget: every partition evicts after every
    # apply; multi-epoch replay forces reload-from-files on each epoch
    cfg = PipelineConfig(
        num_partitions=16,
        epoch_size=300,
        sink_mode=sink_mode,
        applier_state_budget_bytes=1,
    )
    pipe = CDCPipeline(tmp_path / f"lake_spill_{sink_mode}", cfg)
    results = pipe.replay(envelope_log, epoch_size=300)
    assert len(results) >= 3  # several epochs → evict/reload actually exercised
    got = canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    assert got.num_rows == want.num_rows
    assert got.equals(want.cast(got.schema))


def test_budgeted_actor_lazy_load_and_cap(tmp_path, envelope_log):
    """With a budget: nothing is resident before first touch (lazy load),
    and resident bytes stay under the cap after touching everything."""
    import ray

    from commons_codec_ray.stages.actor_applier import PartitionApplier

    lake = tmp_path / "lake_probe"
    cfg = PipelineConfig(num_partitions=16, epoch_size=300)
    pipe = CDCPipeline(lake, cfg)
    pipe.replay(envelope_log, epoch_size=10**9)  # one epoch

    budget = 64 * 1024
    ckpt = pipe.checkpoint()
    actor = PartitionApplier.options(num_cpus=0.1).remote(
        0, 1, str(lake), ckpt.partitions, "[]", "rewrite", 0.5, 8, budget
    )
    stats = ray.get(actor.state_stats.remote())
    assert stats["known_partitions"] > 0
    assert stats["resident_partitions"] == 0  # lazy: nothing loaded yet

    # unbudgeted actor loads everything eagerly (fast steady-state mode)
    eager = PartitionApplier.options(num_cpus=0.1).remote(
        0, 1, str(lake), ckpt.partitions, "[]", "rewrite", 0.5, 8, None
    )
    estats = ray.get(eager.state_stats.remote())
    assert estats["resident_partitions"] == estats["known_partitions"]
    ray.kill(actor)
    ray.kill(eager)


def test_spill_resume_after_partial_run(tmp_path, envelope_log):
    """Crash-resume composed with the state budget: stop after ~half the
    offsets, resume with a FRESH pipeline (fresh actors, lazy loads from
    the checkpoint), equal to the oracle's lake."""
    want = oracle_lake(envelope_log)

    lake = tmp_path / "lake_resume"
    cfg = PipelineConfig(num_partitions=16, epoch_size=300, applier_state_budget_bytes=1)
    CDCPipeline(lake, cfg).replay(envelope_log, epoch_size=300, max_offset=499)
    # simulated crash: new pipeline object resumes from the checkpoint
    cfg2 = PipelineConfig(num_partitions=16, epoch_size=300, applier_state_budget_bytes=1)
    pipe = CDCPipeline(lake, cfg2)
    assert pipe.checkpoint().next_offset == 500
    pipe.replay(envelope_log, epoch_size=300)
    got = canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    assert got.equals(want.cast(got.schema))
