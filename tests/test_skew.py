"""Skew handling: hot conversations and partition balance (SURVEY §4.2).

A hot conversation cannot be salted across partitions (per-key ordering
requires co-location), so the defenses are (1) the within-batch LWW
combiner, which collapses a hot key's updates to at most one row per
(conv_id, turn_idx) per decode batch BEFORE the shuffle, and (2) a fixed
key space far wider than the worker count so non-hot keys spread evenly.
"""

import numpy as np
import pyarrow as pa

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.hashing import partition_ids_for
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes


def _events_table(event_ids, user_ids):
    n = len(event_ids)
    return pa.table(
        {
            "event_id": pa.array(event_ids, pa.int64()),
            "ts": pa.array(np.full(n, 1_700_000_000_000_000), pa.timestamp("us")),
            "user_id": pa.array(user_ids, pa.int64()),
            "event_type": pa.array(["view"] * n, pa.string()),
            "value": pa.array(np.full(n, 1.0), pa.float64()),
            "props": pa.array(['{"k": 1}'] * n, pa.string()),
        }
    )


def test_combiner_collapses_hot_conversation_before_shuffle():
    # 50k updates to ONE conversation (user 7) in a single decode batch:
    # only ≤ 40 distinct (conv, turn) keys may leave the batch
    n_hot = 50_000
    events = _events_table(np.arange(n_hot), np.full(n_hot, 7))
    env = EventsToEnvelopes(duplicates=False)(events)
    ops = DecodeEnvelopes(PipelineConfig(), combine=True)(env)
    assert ops.num_rows <= 40  # turn_idx = event_id % 40
    # without the combiner the full update storm would hit the exchange
    raw = DecodeEnvelopes(PipelineConfig(), combine=False)(env)
    assert raw.num_rows >= n_hot * 0.9  # deletes removed only


def test_partition_balance_many_conversations():
    conv_ids = pa.array([f"c-{i}" for i in range(20_000)])
    pids = partition_ids_for(conv_ids, 64).to_numpy(zero_copy_only=False)
    counts = np.bincount(pids, minlength=64)
    assert counts.min() > 0
    # crc32 spreads uniformly: no partition more than 1.5× the mean
    assert counts.max() < 1.5 * counts.mean()


def test_hot_partition_rows_bounded_by_key_count():
    # mixed: one hot user + many cold users in one batch — the hot
    # partition's post-combine row count is bounded by its distinct keys
    ids = np.arange(30_000)
    users = np.where(ids % 3 == 0, 7, ids % 500)  # a third of traffic is user 7
    env = EventsToEnvelopes(duplicates=False)(_events_table(ids, users))
    ops = DecodeEnvelopes(PipelineConfig(), combine=True)(env)
    df = ops.to_pandas()
    per_key = df.groupby(["conv_id", "turn_idx"]).size()
    assert per_key.max() == 1  # at most one surviving op per key per batch


def test_null_keys_route_to_partition_zero():
    """Null conv_ids (dead letters, keyless ops) must land on partition 0
    deterministically — not on whatever partition the batch's first
    distinct value hashes to."""
    import pyarrow as pa

    from commons_codec_ray.hashing import partition_ids_for

    # different batch compositions, same nulls
    a = partition_ids_for(pa.array(["zzz", None, "c-1", None]), 64).to_pylist()
    b = partition_ids_for(pa.array([None, "c-7", None]), 64).to_pylist()
    assert a[1] == a[3] == 0
    assert b[0] == b[2] == 0
    # non-null keys keep their content-derived partitions
    import zlib

    assert a[0] == zlib.crc32(b"zzz") % 64


def test_keyed_percent_rank_one_hot_key(ray_session):
    """percent_rank skew guard: one key holds ~all rows. The sampled
    composite-range path (keyed_percent_rank) must match the
    single-group reference bit-for-bit — RANK tie semantics, integer
    ppm — while actually SPLITTING the hot key across partitions."""
    import pandas as pd
    import ray.data as rd

    from commons_codec_ray.stages.ranking import keyed_percent_rank

    rng = np.random.default_rng(7)
    n = 20_000
    keys = np.where(np.arange(n) % 100 == 99, "cold", "hot")  # 99% one key
    vals = np.round(rng.normal(0, 10, n), 1)  # heavy ties
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "event_type": pa.array(keys),
            "value": pa.array(vals, pa.float64()),
        }
    )
    out = (
        keyed_percent_rank(
            rd.from_arrow(t).repartition(8),
            key="event_type",
            value="value",
            tiebreak="event_id",
            num_partitions=16,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # single-group reference (the fast path's math, run in one frame)
    ref_rows = []
    df = t.to_pandas()
    for et, g in df.groupby("event_type"):
        v = g["value"].to_numpy(np.float64)
        sv = np.sort(v)
        m = len(v)
        rank = np.searchsorted(sv, v, side="left") + 1
        cle = np.searchsorted(sv, v, side="right")
        ref_rows.append(
            pd.DataFrame(
                {
                    "event_id": g["event_id"].to_numpy(),
                    "pr_ppm": (rank - 1) * 1_000_000 // max(m - 1, 1),
                    "cd_ppm": cle * 1_000_000 // m,
                }
            )
        )
    ref = (
        pd.concat(ref_rows, ignore_index=True)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert (out["pr_ppm"].to_numpy() == ref["pr_ppm"].to_numpy()).all()
    assert (out["cd_ppm"].to_numpy() == ref["cd_ppm"].to_numpy()).all()


def test_percent_rank_guard_switches_paths(ray_session, tmp_path, monkeypatch):
    """q_percent_rank under a tiny guard (forcing the ranged path) must
    equal its own fast-path output on the same input."""
    import pyarrow.parquet as pq

    from commons_codec_ray.pipelines import queries

    rng = np.random.default_rng(3)
    n = 5_000
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(np.arange(n), pa.int64()),
                "event_type": pa.array(
                    np.where(np.arange(n) % 50 == 0, "rare", "dominant")
                ),
                "value": pa.array(np.round(rng.uniform(0, 5, n), 1), pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    def ranks():
        out = queries.q_percent_rank(str(tmp_path)).to_pandas()
        return out.sort_values("event_id").reset_index(drop=True)

    fast = ranks()
    monkeypatch.setattr(queries, "_PERCENT_RANK_GUARD", 100)
    ranged = ranks()
    assert list(ranged.columns) == list(fast.columns)
    for c in ("pr_ppm", "cd_ppm"):
        assert (ranged[c].to_numpy() == fast[c].to_numpy()).all()
