"""Change-feed emission (CDC output stream) + incremental view
maintenance consuming it."""

import datetime as dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.stages.applier import OP_UPSERT, apply_ops_to_base, change_feed

SF_DIR = "/root/testdata/sf0.001"


def _ops(rows):
    return pa.table(
        {
            "op": pa.array([r[0] for r in rows], pa.int8()),
            "conv_id": pa.array([r[1] for r in rows], pa.string()),
            "turn_idx": pa.array([r[2] for r in rows], pa.int32()),
            "role": pa.array([r[3] for r in rows], pa.string()),
            "text": pa.array([r[4] for r in rows], pa.string()),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([dt.datetime(2024, 1, 1, 0, 0, r[5] % 60) for r in rows], pa.timestamp("us")),
            "lsn": pa.array([r[5] for r in rows], pa.int64()),
        }
    )


def test_change_feed_classification():
    base = apply_ops_to_base(
        None, _ops([(1, "a", 0, "u", "hello", 1), (1, "b", 0, "u", "world", 2), (1, "c", 0, "u", "gone", 3)])
    )
    e2 = _ops(
        [
            (1, "a", 0, "u", "hello2", 10),  # update
            (0, "c", 0, None, None, 11),     # delete (before image)
            (1, "d", 0, "u", "new", 12),     # insert
            (1, "b", 0, "u", "stale", 0),    # stale: lsn <= base lsn → nothing
            (0, "x", 9, None, None, 13),     # delete of absent key → nothing
        ]
    )
    cf = change_feed(base, e2).to_pandas()
    got = {r.conv_id: (r.change, r.text) for r in cf.itertuples()}
    assert got == {"a": ("update", "hello2"), "c": ("delete", "gone"), "d": ("insert", "new")}


def test_change_feed_idempotent_on_replay():
    e1 = _ops([(1, "a", 0, "u", "x", 1)])
    base = apply_ops_to_base(None, e1)
    assert change_feed(base, e1).num_rows == 0  # committed epoch re-applied → empty


def test_change_feed_identical_across_sink_modes_and_apply_modes(ray_session, tmp_path):
    """The feed must be identical across both sink modes, each with and
    without a 1-byte state budget, over a multi-epoch replay whose epoch
    size is small enough to exercise BOTH delta writes and compaction —
    a spilled applier emits from state it reloaded from the files."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events).sort_by("source_offset")
    log = tmp_path / "env.parquet"
    pq.write_table(env, log, row_group_size=100)

    feeds = {}
    for budget in (None, 1):
        for sink in ("rewrite", "delta"):
            pipe = CDCPipeline(
                tmp_path / f"lake_{budget}_{sink}",
                PipelineConfig(
                    num_partitions=8, emit_changes=True, epoch_size=300,
                    sink_mode=sink, compact_max_deltas=3,
                    applier_state_budget_bytes=budget,
                ),
            )
            pipe.replay(str(log), epoch_size=300)
            df = pipe.read_changes().to_pandas()
            feeds[(budget, sink)] = df.sort_values(
                ["lsn", "conv_id", "turn_idx"]
            ).reset_index(drop=True)
    ref = feeds[(None, "rewrite")]
    assert len(ref) > 0
    for key, df in feeds.items():
        pd.testing.assert_frame_equal(df, ref, obj=str(key))
    # the delta legs genuinely exercised delta writes AND (via the small
    # compact_max_deltas) later-epoch full rewrites = compactions
    delta_lake = tmp_path / "lake_None_delta"
    delta_files = list(delta_lake.rglob("part-*.delta.parquet"))
    later_fulls = [
        p
        for p in delta_lake.rglob("part-[0-9]*.parquet")
        if ".delta." not in p.name and "epoch-00000000" not in str(p)
    ]
    assert delta_files, "delta sink never wrote a delta file"
    assert later_fulls, "delta sink never compacted"


def test_incremental_view_maintenance_matches_recompute(ray_session, tmp_path):
    """Downstream IVM: maintain turns-per-conversation from the change
    feed alone (+1 insert, -1 delete, 0 update) across epochs; must
    equal a full recompute from the final lake."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events)
    n = events.num_rows
    thirds = [
        env.filter(pc.less(env["lsn"], n // 3)),
        env.filter(pc.and_(pc.greater_equal(env["lsn"], n // 3), pc.less(env["lsn"], 2 * n // 3))),
        env.filter(pc.greater_equal(env["lsn"], 2 * n // 3)),
    ]
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, emit_changes=True))
    view: dict[str, int] = {}
    for epoch, part in enumerate(thirds):
        offs = part["source_offset"]
        res = pipe.run_epoch(
            rd.from_arrow(part),
            epoch=epoch,
            offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()),
        )
        feed = pipe.read_changes(epoch=epoch).to_pandas()
        assert res["changes"] == len(feed)
        for r in feed.itertuples():
            if r.change == "insert":
                view[r.conv_id] = view.get(r.conv_id, 0) + 1
            elif r.change == "delete":
                view[r.conv_id] = view.get(r.conv_id, 0) - 1
        view = {k: v for k, v in view.items() if v > 0}
    lake = pipe.read_lake().to_pandas()
    truth = lake.groupby("conv_id").size().to_dict()
    assert view == truth


def test_change_feed_actor_mode_matches_groupby_mode(ray_session, tmp_path, monkeypatch):
    """Spawned applier actors under a 1-byte state budget emit the same
    feed (modulo row order) as one unbudgeted applier in the driver
    across a multi-epoch replay."""
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=True)(events).sort_by("source_offset")
    log = tmp_path / "env.parquet"
    pq.write_table(env, log, row_group_size=100)

    feeds = {}
    for name, budget, appliers in (("driver", None, "driver"), ("actors", 1, 2)):
        with monkeypatch.context() as m:
            if name == "actors":
                m.setattr(util, "DRIVER_POOL_ROWS", 0)
            pipe = CDCPipeline(
                tmp_path / f"lake_{name}",
                PipelineConfig(
                    num_partitions=8, emit_changes=True, epoch_size=400,
                    applier_state_budget_bytes=budget,
                ),
            )
            pipe.replay(str(log), epoch_size=400)
        assert {e["appliers"] for e in pipe.metrics()["epochs"]} == {appliers}
        df = pipe.read_changes().to_pandas()
        feeds[name] = df.sort_values(["lsn", "conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(feeds["driver"], feeds["actors"])
    assert len(feeds["actors"]) > 0


def test_change_feed_epoch1_is_all_inserts(ray_session, tmp_path):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=8, emit_changes=True))
    offs = env["source_offset"]
    pipe.run_epoch(rd.from_arrow(env), epoch=0, offset_range=(pc.min(offs).as_py(), pc.max(offs).as_py()))
    feed = pipe.read_changes(epoch=0).to_pandas()
    assert set(feed["change"]) == {"insert"}
    # every inserted key is a live lake row and vice versa
    lake = pipe.read_lake().to_pandas()
    assert sorted(zip(feed.conv_id, feed.turn_idx)) == sorted(zip(lake.conv_id, lake.turn_idx))
