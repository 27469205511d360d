"""As-of and range join operators (stages/joins.py) — the custom join
family the task spec calls out, built as map_batches + coarse-bucket
groupby with a documented hash(by)-co-location assumption."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from commons_codec_ray.stages.joins import asof_join, hash_join, range_join_agg


def _ds(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows))


TS = np.datetime64("2024-01-01T00:00:00", "us")


def t(minutes):
    return (TS + np.timedelta64(minutes * 60, "s")).astype("datetime64[us]").item()


def test_asof_backward_with_ties_and_misses():
    left = _ds([
        {"event_id": 0, "user_id": 1, "ts": t(10)},
        {"event_id": 2, "user_id": 1, "ts": t(0)},   # before any right row
        {"event_id": 4, "user_id": 2, "ts": t(10)},  # other key
    ])
    right = _ds([
        {"user_id": 1, "ts": t(5), "r_event_id": 1, "r_value": 1.0},
        {"user_id": 1, "ts": t(5), "r_event_id": 3, "r_value": 3.0},  # tie: max id wins
        {"user_id": 2, "ts": t(10), "r_event_id": 5, "r_value": 5.0},  # exact match
    ])
    out = (
        asof_join(left, right, on="ts", by="user_id", right_columns=["r_event_id", "r_value"])
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, "r_event_id"] == 3  # deterministic tie-break
    assert pd.isna(out.loc[1, "r_event_id"])  # no right row at/before t(0)
    assert out.loc[2, "r_event_id"] == 5  # exact-timestamp match allowed


def test_range_join_counts_and_sums():
    left = _ds([
        {"event_id": 0, "user_id": 1, "ts": t(10)},
        {"event_id": 2, "user_id": 1, "ts": t(60)},  # empty band
        {"event_id": 4, "user_id": 9, "ts": t(10)},  # key with no right rows
    ])
    right = _ds([
        {"user_id": 1, "ts": t(1), "value": 1.0},
        {"user_id": 1, "ts": t(10), "value": 2.0},   # inclusive upper bound
        {"user_id": 1, "ts": t(0), "value": 4.0},    # inclusive lower bound (10m window)
        {"user_id": 2, "ts": t(10), "value": 100.0},  # other key, excluded
    ])
    out = (
        range_join_agg(left, right, on="ts", by="user_id", value="value",
                       window_us=600_000_000)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert out["n_in_range"].tolist() == [3, 0, 0]
    assert out["sum_in_range"].tolist() == [7.0, 0.0, 0.0]


def test_hash_join_inner_many_to_many():
    left = _ds([
        {"k": 1, "lv": 10},
        {"k": 1, "lv": 11},
        {"k": 2, "lv": 20},
        {"k": 3, "lv": 30},  # no right match
    ])
    right = _ds([
        {"k": 1, "rv": 100},
        {"k": 1, "rv": 101},
        {"k": 2, "rv": 200},
        {"k": 9, "rv": 900},  # no left match
    ])
    out = (
        hash_join(left, right, on="k", how="inner")
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    # 2 left x 2 right rows for k=1 (cartesian within key), 1 for k=2
    assert len(out) == 5
    assert out.loc[out["k"] == 1, "rv"].tolist() == [100, 101, 100, 101]
    assert 3 not in out["k"].tolist() and 9 not in out["k"].tolist()


def test_hash_join_left_null_fill_keeps_int_dtype():
    left = _ds([{"k": 1, "lv": 10}, {"k": 3, "lv": 30}])
    right = _ds([{"k": 1, "rv": 100}])
    out = (
        hash_join(left, right, on="k", how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(out) == 2
    assert out.loc[0, "rv"] == 100
    assert pd.isna(out.loc[1, "rv"])
    # the unmatched row must not have degraded matched rv values to float
    assert float(out.loc[0, "rv"]) == 100.0


def test_hash_join_name_collision_gets_suffix():
    left = _ds([{"k": 1, "v": 10}])
    right = _ds([{"k": 1, "v": 99}])
    out = hash_join(left, right, on="k", how="inner").to_pandas()
    assert sorted(out.columns) == ["k", "v", "v_right"]
    assert out.loc[0, "v"] == 10 and out.loc[0, "v_right"] == 99


def test_hash_join_matches_pandas_on_skewed_data():
    """One hot key carries half the probe side: all its matches land in
    one bucket, and the join still equals a plain ``pandas.merge``,
    dtypes included: the left int64 ``lv`` stays int64 in buckets that
    also hold right rows."""
    rng = np.random.default_rng(7)
    keys = np.where(rng.random(4000) < 0.5, 42, rng.integers(0, 200, 4000))
    lt = pa.table({"k": keys.astype("int64"), "lv": np.arange(4000, dtype="int64")})
    rt = pa.table({"k": np.arange(0, 150, dtype="int64"),
                   "rv": np.arange(0, 150, dtype="int64") * 10})
    left, right = rd.from_arrow(lt), rd.from_arrow(rt)
    for how in ("inner", "left"):
        got = hash_join(left, right, on="k", how=how).to_pandas()
        want = lt.to_pandas().merge(rt.to_pandas().astype({"rv": "Int64"}), on="k", how=how)
        a = got.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
        b = want.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
        pd.testing.assert_frame_equal(a, b)


BIG = (1 << 53) + 1  # the first int64 that float64 cannot hold


def test_hash_join_keeps_left_int64_above_2_53():
    # the union null-pads lv on the right row of key 1's bucket; a
    # float64 detour would round BIG to 2^53
    left = _ds([{"k": 1, "lv": BIG}, {"k": 2, "lv": BIG + 2}])
    right = _ds([{"k": 1, "rv": 10}])
    for how in ("inner", "left"):
        out = hash_join(left, right, on="k", how=how).to_pandas().sort_values("k")
        assert str(out["lv"].dtype) == "int64", how
        assert out["lv"].tolist() == [BIG, BIG + 2][: len(out)], how


def test_asof_and_range_joins_keep_left_int64_above_2_53():
    left = _ds([{"event_id": BIG, "user_id": 1, "ts": t(10)}])
    right = _ds([{"user_id": 1, "ts": t(5), "r_event_id": BIG + 2}])
    out = asof_join(left, right, on="ts", by="user_id").to_pandas()
    assert str(out["event_id"].dtype) == "int64"
    assert out["event_id"].tolist() == [BIG] and out["r_event_id"].tolist() == [BIG + 2]
    out = range_join_agg(left, right, on="ts", by="user_id").to_pandas()
    assert str(out["event_id"].dtype) == "int64"
    assert out["event_id"].tolist() == [BIG] and out["n_in_range"].tolist() == [1]


def test_hash_join_outer_pads_both_sides_with_nullable_ints():
    left = _ds([
        {"k": 1, "lv": 10},
        {"k": 2, "lv": 20},
    ])
    right = _ds([
        {"k": 2, "rv": 200},
        {"k": 3, "rv": 300},
    ])
    out = hash_join(left, right, on="k", how="outer").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert list(out["k"]) == [1, 2, 3]
    assert out["lv"].tolist()[:2] == [10, 20] and pd.isna(out["lv"][2])
    assert pd.isna(out["rv"][0]) and out["rv"].tolist()[1:] == [200, 300]
    # unmatched rows must not degrade int columns to float
    assert str(out["lv"].dtype) == "Int64" and str(out["rv"].dtype) == "Int64"


def test_hash_join_string_key():
    left = _ds([
        {"k": "ab", "lv": 1}, {"k": "cd", "lv": 2}, {"k": "ab", "lv": 3},
        {"k": "zz", "lv": 4},
    ])
    right = _ds([{"k": "ab", "rv": 10}, {"k": "cd", "rv": 20}, {"k": "ee", "rv": 30}])
    out = hash_join(left, right, on="k", how="left").to_pandas()
    out = out.sort_values(["k", "lv"]).reset_index(drop=True)
    assert out["rv"].tolist()[:3] == [10, 10, 20] and pd.isna(out["rv"][3])


def test_hash_join_composite_key():
    left = _ds([
        {"a": 1, "b": "x", "lv": 1},
        {"a": 1, "b": "y", "lv": 2},
        {"a": 2, "b": "x", "lv": 3},
    ])
    right = _ds([
        {"a": 1, "b": "x", "rv": 100},
        {"a": 2, "b": "x", "rv": 200},
        {"a": 2, "b": "y", "rv": 300},
    ])
    for how, want_rows in (("inner", 2), ("left", 3), ("outer", 4)):
        out = hash_join(left, right, on=["a", "b"], how=how).to_pandas()
        assert len(out) == want_rows, (how, out)
        inner = out.dropna(subset=["lv", "rv"]).sort_values("lv")
        assert list(zip(inner["lv"].astype(int), inner["rv"].astype(int))) == [
            (1, 100), (3, 200),
        ]


def test_snapshot_diff_classifies_and_nullsafe(ray_session):
    import pandas as pd

    from commons_codec_ray.stages.joins import snapshot_diff

    old = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array(["a", "b", "c", None, "e"]),
            "x": pa.array([1.0, 2.0, None, 4.0, 5.0], pa.float64()),
        }
    )
    new = pa.table(
        {
            # 1 unchanged, 2 value change, 3 null->value, 4 value stays null,
            # 5 deleted, 6 inserted
            "k": pa.array([1, 2, 3, 4, 6], pa.int64()),
            "v": pa.array(["a", "B", "c", None, "f"]),
            "x": pa.array([1.0, 2.0, 3.0, 4.0, 6.0], pa.float64()),
        }
    )
    out = (
        snapshot_diff(
            rd.from_arrow(old).repartition(3),
            rd.from_arrow(new).repartition(2),
            keys=["k"],
            compare=["v", "x"],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [2, 3, 5, 6]
    assert out["change"].tolist() == ["update", "update", "delete", "insert"]
    # update/insert carry the NEW image, delete the BEFORE image
    assert out["v"].tolist() == ["B", "c", "e", "f"]
    assert out["x"].tolist() == [2.0, 3.0, 5.0, 6.0]


def test_snapshot_diff_preserves_int64_exactness(ray_session):
    from commons_codec_ray.stages.joins import snapshot_diff

    # values above 2^53 are NOT representable in float64 — a merge that
    # upcast the compare column to float64 would corrupt them
    big = 2**53 + 1
    old = pa.table(
        {
            "k": pa.array([1, 2, 3], pa.int64()),
            "n": pa.array([big, 10, 20], pa.int64()),
        }
    )
    new = pa.table(
        {
            # 1 unchanged (huge value must survive the diff untouched),
            # 2 updated to another >2^53 value, 3 deleted, 4 inserted
            "k": pa.array([1, 2, 4], pa.int64()),
            "n": pa.array([big, big + 2, big + 4], pa.int64()),
        }
    )
    out = (
        snapshot_diff(
            rd.from_arrow(old).repartition(2),
            rd.from_arrow(new).repartition(2),
            keys=["k"],
            compare=["n"],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [2, 3, 4]
    assert out["change"].tolist() == ["update", "delete", "insert"]
    assert out["n"].dtype.kind == "i"
    assert out["n"].tolist() == [big + 2, 20, big + 4]
