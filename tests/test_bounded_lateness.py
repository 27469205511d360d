"""Bounded-lateness watermark filter (stages/watermark.py), Gopher
quality signals (stages/text.py), and DPO preference-pair construction
(pipelines/queries.py q_dpo_pairs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from commons_codec_ray.stages.text import GopherSignals
from commons_codec_ray.stages.watermark import bounded_lateness_filter


def _stream(rows):
    t = pa.table(
        {
            "akey": pa.array([r[0] for r in rows], pa.int64()),
            "seq": pa.array([r[1] for r in rows], pa.int64()),
            "tag": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    return rd.from_arrow(t).repartition(3)


def _run(rows, lag, **kw):
    ds = bounded_lateness_filter(
        _stream(rows),
        arrival_col="akey",
        seq_col="seq",
        allowed_lag=lag,
        key_lo=0,
        key_hi=max(r[0] for r in rows) + 1,
        **kw,
    )
    df = ds.to_pandas().sort_values("seq")
    return list(df["tag"])


def test_in_order_stream_all_kept(ray_session):
    rows = [(i, i, f"r{i}") for i in range(20)]
    assert _run(rows, lag=0) == [f"r{i}" for i in range(20)]


def test_straggler_beyond_lag_dropped_within_kept(ray_session):
    # seq 5 arrives after seq 30 (25 behind), seq 28 arrives after 30 (2 behind)
    rows = [(i, i, f"r{i}") for i in range(31) if i not in (5, 28)]
    rows += [(35, 5, "late5"), (33, 28, "late28")]
    got = _run(rows, lag=10)
    assert "late5" not in got
    assert "late28" in got
    assert len(got) == 30


def test_first_row_always_kept(ray_session):
    # the very first arrival has no watermark even with lag 0
    rows = [(0, 100, "first"), (1, 1, "old")]
    got = _run(rows, lag=0)
    assert got == ["first"]  # "old" is 99 behind


def test_duplicates_do_not_flip_decisions(ray_session):
    base = [(i, i, f"r{i}") for i in range(31) if i != 5] + [(35, 5, "late5")]
    dup = base + [(r[0], r[1], r[2]) for r in base]  # byte-identical duplicates
    got_base = _run(base, lag=10)
    got_dup = _run(dup, lag=10)
    assert sorted(set(got_base)) == sorted(set(got_dup))
    # each survivor appears exactly twice in the duplicated stream
    assert len(got_dup) == 2 * len(got_base)


def test_cross_bucket_carry(ray_session):
    # with many buckets the straggler and the watermark-setting rows
    # land in different range buckets: the carry must still drop it
    rows = [(i, i, f"r{i}") for i in range(200) if i != 5] + [(190, 5, "late5")]
    got = _run(rows, lag=10, num_buckets=64)
    assert "late5" not in got
    assert len(got) == 199


def test_seq_source_prepass_matches_inline(ray_session):
    rows = [(i, i, f"r{i}") for i in range(50) if i != 7] + [(45, 7, "late7")]
    src = _stream(rows).select_columns(["akey", "seq"])
    got = _run(rows, lag=5, seq_source=src, num_buckets=8)
    assert "late7" not in got and len(got) == 49


def _ffill_stream(obs):
    """obs: list of (order, tiebreak, value-or-None)."""
    t = pa.table(
        {
            "o": pa.array([r[0] for r in obs], pa.int64()),
            "tb": pa.array([r[1] for r in obs], pa.int64()),
            "v": pa.array([r[2] for r in obs], pa.int64()),
        }
    )
    return rd.from_arrow(t).repartition(4)


def _ffill_run(obs, **kw):
    from commons_codec_ray.stages.watermark import forward_fill

    out = forward_fill(
        _ffill_stream(obs), order_col="o", tiebreak_col="tb", value_col="v", **kw
    )
    df = out.to_pandas().sort_values(["o", "tb"]).reset_index(drop=True)
    return [None if pd.isna(x) else int(x) for x in df["filled"]]


def test_forward_fill_matches_pandas_reference(ray_session):
    rng = np.random.RandomState(7)
    n = 500
    orders = rng.permutation(n)  # scrambled physical layout, total order by o
    obs = [
        (int(o), int(o) * 3 + 1, int(o) % 10 if o % 3 == 0 else None) for o in orders
    ]
    got = _ffill_run(obs, num_buckets=16)
    ref = (
        pd.DataFrame(sorted(obs), columns=["o", "tb", "v"])["v"]
        .astype("Int64")
        .ffill()
    )
    want = [None if pd.isna(x) else int(x) for x in ref]
    assert got == want


def test_forward_fill_leading_nulls_stay_null(ray_session):
    obs = [(0, 0, None), (1, 1, None), (2, 2, 7), (3, 3, None)]
    assert _ffill_run(obs, num_buckets=4) == [None, None, 7, 7]


def test_forward_fill_bucket_count_invariant(ray_session):
    obs = [(i, i, i * 11 if i % 7 == 2 else None) for i in range(300)]
    a = _ffill_run(obs, num_buckets=2)
    b = _ffill_run(obs, num_buckets=64)
    assert a == b


def test_forward_fill_tiebreak_within_equal_order_keys(ray_session):
    # equal order keys resolved by tiebreak: (5, 1, 100) precedes (5, 2, None)
    obs = [(5, 2, None), (5, 1, 100), (4, 0, None), (6, 0, None)]
    assert _ffill_run(obs, num_buckets=2) == [None, 100, 100, 100]


def test_forward_fill_carry_is_int64_exact(ray_session):
    # 2^53 + 1 has no float64 form: the carry into later buckets must
    # not pass through a float column on its way
    big = 2**53 + 1
    obs = [(i, i, big if i == 0 else None) for i in range(100)]
    got = _ffill_run(obs, num_buckets=4)
    assert got[50:] == [big] * 50


def test_gopher_signals_exact_counts():
    texts = [
        # keep: 12 words, all-distinct except one stop hit, no dup trigram
        "the quick brown fox jumps over one lazy dog near a river",
        # reject: duplicated trigram ("x y z" twice)
        "the x y z w x y z v u t s",
        # reject: no stop word
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu",
        # reject: too short (< 10 words)
        "the a of to and",
    ]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": pa.array(texts)})
    out = GopherSignals()(t).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_words"] == 12
    assert out.loc[0, "uniq_words"] == 12
    assert out.loc[0, "top_bigram_count"] == 1
    assert out.loc[0, "dup_trigram_excess"] == 0
    assert bool(out.loc[0, "keep"])
    assert out.loc[1, "dup_trigram_excess"] == 1
    assert not bool(out.loc[1, "keep"])
    assert out.loc[2, "stop_hits"] == 0
    assert not bool(out.loc[2, "keep"])
    assert out.loc[3, "n_words"] == 5
    assert not bool(out.loc[3, "keep"])


def test_gopher_repeated_bigram_gate():
    # 20 words, "spam ham" appears 5 times -> 5e6/19 ppm > 100000 -> reject
    text = " ".join(["spam", "ham"] * 5 + ["the"] + [f"w{i}" for i in range(9)])
    t = pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array([text])})
    out = GopherSignals()(t).to_pandas()
    assert out.loc[0, "top_bigram_count"] == 5
    assert not bool(out.loc[0, "keep"])


def test_dpo_pairs_semantics(ray_session, tmp_path):
    from commons_codec_ray.pipelines.queries import q_dpo_pairs

    rows = [
        # group (s1, en): clear max/min
        dict(doc_id=1, source="s1", lang="en", n_chars=10, text="x"),
        dict(doc_id=2, source="s1", lang="en", n_chars=90, text="x"),
        dict(doc_id=3, source="s1", lang="en", n_chars=40, text="x"),
        # group (s1, fr): full tie -> chosen lowest doc_id, rejected highest
        dict(doc_id=4, source="s1", lang="fr", n_chars=50, text="x"),
        dict(doc_id=5, source="s1", lang="fr", n_chars=50, text="x"),
        # singleton group: excluded
        dict(doc_id=6, source="s2", lang="en", n_chars=77, text="x"),
    ]
    pq.write_table(pa.Table.from_pylist(rows), tmp_path / "documents.parquet")
    got = (
        q_dpo_pairs(str(tmp_path))
        .to_pandas()
        .sort_values(["source", "lang"])
        .reset_index(drop=True)
    )
    assert len(got) == 2
    en = got[got.lang == "en"].iloc[0]
    assert (en.chosen_id, en.rejected_id, en.margin) == (2, 1, 80)
    fr = got[got.lang == "fr"].iloc[0]
    assert (fr.chosen_id, fr.rejected_id, fr.margin) == (4, 5, 0)


def test_emit_dropped_partitions_stream(ray_session):
    import pytest

    rows = [(i, i, f"r{i}") for i in range(31) if i not in (5, 28)]
    rows += [(35, 5, "late5"), (33, 28, "late28")]
    kept = set(_run(rows, lag=10))
    ds = bounded_lateness_filter(
        _stream(rows),
        arrival_col="akey",
        seq_col="seq",
        allowed_lag=10,
        key_lo=0,
        key_hi=36,
        emit="dropped",
    )
    dropped = set(ds.to_pandas()["tag"])
    assert dropped == {"late5"}
    assert kept | dropped == {r[2] for r in rows}
    assert kept & dropped == set()

    with pytest.raises(ValueError):
        bounded_lateness_filter(
            _stream(rows),
            arrival_col="akey",
            seq_col="seq",
            allowed_lag=10,
            key_lo=0,
            key_hi=36,
            emit="both",
        )


def test_quantile_bucketing_matches_linear_on_skewed_keys(ray_session):
    # arrival keys clustered in two far-apart bursts: linear widths put
    # everything into 2 hot buckets; quantile cuts stay balanced. The
    # RESULT must be identical either way.
    rows = [(i, i, f"a{i}") for i in range(40)]
    rows += [(1_000_000 + i, 100 + i, f"b{i}") for i in range(40)]
    rows += [(1_000_050, 50, "late50")]  # 89 behind seq 139 at arrival
    lin = set(_run(rows, lag=10, num_buckets=16))
    qnt = set(_run(rows, lag=10, num_buckets=16, bucketing="quantile"))
    assert lin == qnt
    assert "late50" not in lin

    # quantile mode also works without key bounds
    ds = bounded_lateness_filter(
        _stream(rows),
        arrival_col="akey",
        seq_col="seq",
        allowed_lag=10,
        bucketing="quantile",
    )
    assert set(ds.to_pandas()["tag"]) == lin


def test_running_sum_matches_cumsum_reference(ray_session):
    from commons_codec_ray.stages.watermark import running_sum

    rng = np.random.RandomState(11)
    n = 400
    orders = rng.permutation(n)  # scrambled layout, total order by o
    t = pa.table(
        {
            "o": pa.array(orders.astype(np.int64), pa.int64()),
            "tb": pa.array((orders * 7 + 1).astype(np.int64), pa.int64()),
            "v": pa.array(((orders % 13) - 6).astype(np.int64), pa.int64()),
        }
    )
    for nb in (2, 32):
        out = (
            running_sum(
                rd.from_arrow(t).repartition(4),
                order_col="o", tiebreak_col="tb", value_col="v", num_buckets=nb,
            )
            .to_pandas()
            .sort_values("o")
        )
        want = np.cumsum(np.arange(n) % 13 - 6)  # sorted-by-o values
        assert out["running"].to_numpy(np.int64).tolist() == want.tolist()
