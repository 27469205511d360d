"""Round-5 session-8 operators: exact-integer HITS, sequence-gap audit
(backward-carry segmented scan), per-key MAD outliers, C4 line rules."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd


def _hits_expected(edges, iterations=2):
    """Brute-force unnormalized HITS on distinct edges via dense mats."""
    e = sorted(set(edges))
    nodes = sorted({u for u, _ in e} | {v for _, v in e})
    idx = {n: i for i, n in enumerate(nodes)}
    a_mat = np.zeros((len(nodes), len(nodes)), np.int64)
    for u, v in e:
        a_mat[idx[u], idx[v]] = 1
    h = np.ones(len(nodes), np.int64)
    for _ in range(iterations):
        a = a_mat.T @ h
        h = a_mat @ a
    return {n: (int(a[idx[n]]), int(h[idx[n]])) for n in nodes}


def test_hits_matches_dense_power_iteration(ray_session):
    from commons_codec_ray.stages.graph import hits

    rng = np.random.RandomState(17)
    src = rng.randint(0, 40, 600).astype(np.int64)
    dst = rng.randint(0, 40, 600).astype(np.int64)  # self-loops + dups likely
    # a dangling sink (in-edges only) and a pure source (out-edges only)
    src = np.append(src, [41, 43])
    dst = np.append(dst, [42, 42])
    ds = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    got = hits(ds, iterations=2).to_pandas()
    want = _hits_expected(list(zip(src.tolist(), dst.tolist())))
    assert len(got) == 2 * len(want)  # auth + hub row per node
    for _, r in got.iterrows():
        exp_a, exp_h = want[int(r["node"])]
        assert r["score"] == (exp_a if r["kind"] == "auth" else exp_h), r


def test_hits_overflow_guard(ray_session):
    import pytest

    from commons_codec_ray.stages.graph import hits

    # complete digraph on 200 nodes: scores explode past 2^44 fast
    n = 200
    u, v = np.meshgrid(np.arange(n), np.arange(n))
    ds = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(u.ravel().astype(np.int64)),
                "dst": pa.array(v.ravel().astype(np.int64)),
            }
        )
    )
    with pytest.raises(Exception, match="2\\^44|OverflowError"):
        hits(ds, iterations=6).to_pandas()


def test_sequence_gaps_matches_pandas_lead(ray_session, tmp_path):
    from commons_codec_ray.stages.watermark import sequence_gaps

    rng = np.random.RandomState(3)
    ids = np.unique(rng.randint(0, 200_000, 30_000)).astype(np.int64)
    # duplicate deliveries must collapse
    dup = np.concatenate([ids, ids[:500]])
    rng.shuffle(dup)
    pq.write_table(pa.table({"seq": pa.array(dup)}), tmp_path / "s.parquet")
    ds = rd.read_parquet(str(tmp_path / "s.parquet"))
    got = (
        sequence_gaps(ds, id_col="seq")
        .to_pandas()
        .sort_values("gap_after")
        .reset_index(drop=True)
    )
    s = np.sort(ids)
    d = np.diff(s)
    sel = d > 1
    want = pd.DataFrame(
        {
            "gap_after": s[:-1][sel],
            "next_present": s[1:][sel],
            "n_missing": (d - 1)[sel],
        }
    )
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))
    # no phantom gap after the global max
    assert got["gap_after"].max() < s[-1]


def test_sequence_gaps_dense_sequence_has_none(ray_session):
    from commons_codec_ray.stages.watermark import sequence_gaps

    ds = rd.from_arrow(pa.table({"seq": pa.array(np.arange(5000, dtype=np.int64))}))
    assert sequence_gaps(ds, id_col="seq").count() == 0


def test_mad_per_key_matches_duckdb(ray_session, tmp_path):
    import duckdb

    from commons_codec_ray.stages.grouptop import mad_per_key

    rng = np.random.RandomState(9)
    n = 20_000
    tbl = pa.table(
        {
            "k": pa.array(rng.randint(0, 150, n).astype(np.int64)),
            "x": pa.array(
                np.where(
                    rng.rand(n) < 0.02,
                    rng.randint(5_000, 50_000, n),
                    rng.randint(-50, 50, n),
                ).astype(np.int64)
            ),
        }
    )
    pq.write_table(tbl, tmp_path / "m.parquet")
    ds = rd.read_parquet(str(tmp_path / "m.parquet"))
    got = (
        mad_per_key(ds, key="k", column="x")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{tmp_path}/m.parquet')")
    want = con.execute(
        """
        WITH m AS (SELECT k, CAST(2*median(x) AS BIGINT) med2 FROM t GROUP BY k),
        d AS (SELECT t.k, abs(2*x - med2) dev2, med2 FROM t JOIN m USING (k)),
        m2 AS (SELECT k, CAST(2*median(dev2) AS BIGINT) mad4 FROM d GROUP BY k)
        SELECT d.k, CAST(count(*) AS BIGINT) n, any_value(d.med2) med2,
               any_value(m2.mad4) mad4,
               CAST(sum(CASE WHEN 2*dev2 > 3*m2.mad4 THEN 1 ELSE 0 END) AS BIGINT)
                 n_outliers
        FROM d JOIN m2 USING (k) GROUP BY d.k ORDER BY d.k
        """
    ).df()
    for c in ["n", "med2", "mad4", "n_outliers"]:
        want[c] = want[c].astype(np.int64)
    pd.testing.assert_frame_equal(got, want)


def test_mad_per_key_constant_group_flags_nothing(ray_session):
    from commons_codec_ray.stages.grouptop import mad_per_key

    ds = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(np.zeros(11, np.int64)),
                "x": pa.array(np.full(11, 7, np.int64)),
            }
        )
    )
    got = mad_per_key(ds, key="k", column="x").to_pandas()
    assert got.iloc[0]["mad4"] == 0 and got.iloc[0]["n_outliers"] == 0


def _mad_reference(xs, k_num=3):
    """(n, med2, mad4, n_outliers) of one key in Python integers."""
    xs = sorted(xs)
    n = len(xs)
    med2 = xs[(n - 1) // 2] + xs[n // 2]
    dev2 = sorted(abs(2 * x - med2) for x in xs)
    mad4 = dev2[(n - 1) // 2] + dev2[n // 2]
    return n, med2, mad4, sum(2 * d > k_num * mad4 for d in dev2)


def test_mad_per_key_exact_near_the_int64_bound(ray_session):
    from commons_codec_ray.stages.grouptop import mad_per_key

    top, bottom = (1 << 62) - 1, -(1 << 62) + 1
    groups = {
        0: [top, top - 1, top - 2, top - 40],
        1: [bottom, bottom + 3, bottom + 1, bottom + 1000],
    }
    keys = [k for k, xs in groups.items() for _ in xs]
    xs = [x for v in groups.values() for x in v]
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64()), "x": pa.array(xs, pa.int64())}))
    got = mad_per_key(ds, key="k", column="x").to_pandas().sort_values("k")
    for row in got.itertuples():
        want = _mad_reference(groups[row.k])
        assert (int(row.n), int(row.med2), int(row.mad4), int(row.n_outliers)) == want


@pytest.mark.parametrize(
    "xs",
    [[1 << 62, 0], [-(1 << 62), 0], [1 << 61, -(1 << 61)]],
    ids=["above-2^62", "below-minus-2^62", "spread-2^62"],
)
def test_mad_per_key_raises_instead_of_wrapping(ray_session, xs):
    from commons_codec_ray.stages.grouptop import mad_per_key

    ds = rd.from_arrow(pa.table({"k": pa.array([7] * len(xs), pa.int64()), "x": pa.array(xs, pa.int64())}))
    with pytest.raises(Exception, match="OverflowError"):
        mad_per_key(ds, key="k", column="x").to_pandas()


@pytest.mark.parametrize("query", ["running_total", "mad_outliers"])
def test_cents_queries_refuse_a_null_value(ray_session, tmp_path, sf_dir, query):
    """On a table with one NULL value the oracle's sum/median skip it;
    the query raises instead of turning it into INT64_MIN. Without the
    NULL it matches the oracle exactly."""
    import duckdb

    from commons_codec_ray.pipelines.queries import ORACLE_SQL, QUERIES

    def normalize(df):
        return df[sorted(df.columns)].sort_values(sorted(df.columns)).reset_index(drop=True)

    events = pq.read_table(f"{sf_dir}/events.parquet").slice(0, 60)
    value = events["value"].to_pylist()
    value[17] = None
    (tmp_path / "null").mkdir()
    (tmp_path / "clean").mkdir()
    pq.write_table(events.set_column(4, "value", pa.array(value, pa.float64())),
                   tmp_path / "null" / "events.parquet")
    pq.write_table(events.filter(pa.array([i != 17 for i in range(60)])),
                   tmp_path / "clean" / "events.parquet")
    fn, sql = QUERIES[query], ORACLE_SQL[query]

    def oracle(d):
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
        return normalize(con.execute(sql).df())

    assert len(oracle(tmp_path / "null")) > 0  # the oracle skips the NULL
    with pytest.raises(Exception, match="events.value holds NULL"):
        fn(str(tmp_path / "null")).to_pandas()
    got = normalize(fn(str(tmp_path / "clean")).to_pandas())
    want = oracle(tmp_path / "clean")
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()), check_dtype=False, check_exact=True)


def test_c4_line_rules_semantics():
    import pyarrow as pa

    from commons_codec_ray.stages.text import C4LineRules

    stage = C4LineRules(chunk_words=4, min_words=3, min_kept_lines=2)
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    # 2 full lines + trailing fragment (dropped: <3 words)
                    "a b c d e f g h i j",
                    # line 1 blocked by 'spark'; only 1 kept line -> gated
                    "spark w x y p q r s",
                    # page bad word 'dup' anywhere -> gated, counts still exact
                    "a b c dup e f g h",
                    "",  # one 1-word pseudo-line, everything zero/gated
                ]
            ),
        }
    )
    out = stage(batch).to_pandas().set_index("doc_id")
    assert out.loc[1].tolist() == [3, 2, 8, True]
    assert out.loc[2].tolist() == [2, 1, 4, False]
    assert out.loc[3].tolist() == [2, 2, 8, False]
    assert out.loc[4].tolist() == [1, 0, 0, False]


def test_c4_line_rules_newline_and_punct_mode():
    import pyarrow as pa

    from commons_codec_ray.stages.text import C4LineRules

    stage = C4LineRules(
        chunk_words=None,
        min_words=3,
        min_kept_lines=1,
        require_terminal_punct=True,
        line_block_words=("javascript",),
        page_bad_words=("lorem",),
    )
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                [
                    "good sentence here.\nno punct line\nenable javascript now.",
                    "lorem ipsum filler text.",
                ]
            ),
        }
    )
    out = stage(batch).to_pandas().set_index("doc_id")
    # doc 1: 3 real lines, only the first passes (punct + no blocked word)
    assert out.loc[1].tolist() == [3, 1, 3, True]
    # doc 2: line passes but the page bad word gates it
    assert out.loc[2].tolist() == [1, 1, 4, False]
