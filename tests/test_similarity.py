"""ANN variants: brute force is the exactness baseline (oracle-checked in
queries); LSH and IVF are approximate scale paths — assert recall here."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from commons_codec_ray.stages.similarity import ann_topk, ivf_topk, lsh_topk

SF_DIR = "/root/testdata/sf0.01"
QUERIES = [0, 1, 2]


def _topk_sets(df, k=10):
    out = {}
    for qid, g in df.groupby("query_id"):
        out[qid] = set(g.nlargest(k, "score")["vec_id"])
    return out


def test_ivf_recall_vs_brute_force():
    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = _topk_sets(ann_topk(ds, QUERIES, k=10, round_to=None).to_pandas())
    approx = _topk_sets(ivf_topk(ds, QUERIES, k=10, n_clusters=16, nprobe=6).to_pandas())
    recalls = [len(exact[q] & approx.get(q, set())) / 10 for q in exact]
    # nprobe=6/16 clusters: expect high but not perfect recall
    assert np.mean(recalls) >= 0.6, recalls


def test_ivf_deterministic():
    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    a = _topk_sets(ivf_topk(ds, QUERIES, k=10).to_pandas())
    b = _topk_sets(ivf_topk(ds, QUERIES, k=10).to_pandas())
    assert a == b  # seeded k-means + deterministic scan


def test_lsh_returns_reasonable_neighbors():
    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = _topk_sets(ann_topk(ds, QUERIES, k=10, round_to=None).to_pandas())
    lsh = _topk_sets(lsh_topk(ds, QUERIES, k=10, bits=4).to_pandas())
    # single-probe LSH on RANDOM vectors has genuinely weak recall (no
    # cluster structure to exploit) — assert the structural properties:
    # each query finds itself (identical vector → identical bucket) and
    # some true neighbors surface overall
    for q in QUERIES:
        assert q in lsh.get(q, set())
    recalls = [len(exact[q] & lsh.get(q, set())) / 10 for q in exact]
    assert np.mean(recalls) >= 0.1, recalls


def _clustered_ordered_table(tmp_path, n_clusters=4, per_cluster=400, dim=8, seed=9):
    """Embedding table SORTED by cluster — the adversarial lake layout
    where a prefix sample (ds.limit) sees only one region of the space."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.RandomState(seed)
    centers = np.eye(dim)[:n_clusters] * 10.0
    vecs, cluster_of = [], []
    for c in range(n_clusters):
        vecs.append(centers[c] + rng.standard_normal((per_cluster, dim)) * 0.3)
        cluster_of.extend([c] * per_cluster)
    mat = np.concatenate(vecs)  # file order == cluster order
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(mat)), pa.int64()),
            "embedding": pa.array(mat.astype(np.float32).tolist(), pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet", row_group_size=200)
    return np.array(cluster_of)


def test_ivf_recall_on_cluster_ordered_corpus(tmp_path):
    """VERDICT r2 #2: the quantizer sample must be unbiased under source
    ordering. Queries live in the LAST cluster — the region a
    first-blocks (ds.limit) sample never sees."""
    _clustered_ordered_table(tmp_path)
    ds = rd.read_parquet(str(tmp_path / "embeddings.parquet"))
    last_cluster_queries = [1500, 1501, 1502]  # cluster 3 rows
    exact = _topk_sets(ann_topk(ds, last_cluster_queries, k=10, round_to=None).to_pandas())
    approx = _topk_sets(
        ivf_topk(ds, last_cluster_queries, k=10, n_clusters=8, nprobe=3, sample_n=256).to_pandas()
    )
    recalls = [len(exact[q] & approx.get(q, set())) / 10 for q in exact]
    # with an unbiased sample the quantizer covers every cluster, so a
    # query's own cluster is always probed → near-perfect recall
    assert np.mean(recalls) >= 0.9, recalls


def test_hash_sample_uniform_and_deterministic(tmp_path):
    from commons_codec_ray.stages.similarity import _hash_sample

    cluster_of = _clustered_ordered_table(tmp_path)
    ds = rd.read_parquet(str(tmp_path / "embeddings.parquet"))
    s1 = _hash_sample(ds, "vec_id", 256)
    s2 = _hash_sample(ds, "vec_id", 256)
    assert list(s1["vec_id"]) == list(s2["vec_id"])  # reproducible
    assert len(s1) == 256
    # every cluster represented despite the file being cluster-ordered
    seen = set(cluster_of[s1["vec_id"].to_numpy()])
    assert seen == {0, 1, 2, 3}
    # small input short-circuits to the full table
    assert len(_hash_sample(ds.limit(100), "vec_id", 256)) == 100


def test_embed_pairs_empty_bucket_no_duplicates(tmp_path):
    """Regression: an off-diagonal bucket-pair group whose second bucket
    is EMPTY must not re-emit the non-empty bucket's intra pairs (all
    vec_ids below share residue 0 mod 8, leaving 7 buckets empty)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from commons_codec_ray.pipelines.queries import q_embed_pairs

    vec = [1.0, 0.0, 0.0, 0.0]
    tbl = pa.table(
        {
            "vec_id": pa.array([0, 8, 16], pa.int64()),
            "embedding": pa.array([vec, vec, vec], pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    out = q_embed_pairs(str(tmp_path)).to_pandas()
    pairs = sorted(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    assert pairs == [(0, 8), (0, 16), (8, 16)]  # each exactly once


def test_quantize_int8_bounds_and_zero_vector(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.stages.similarity import quantize_int8

    vecs = [
        [0.5, -1.0, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0],   # all-zero → zeros, no div-by-zero
        [2.0, 2.0, -2.0, 1.0],
    ]
    t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    out = (
        quantize_int8(rd.from_arrow(t).repartition(2))
        .to_pandas()
        .sort_values(["vec_id", "dim"])
    )
    q = out["qv"].to_numpy().reshape(3, 4)
    assert q[0].tolist() == [63, -127, 31, 0]   # floor(0.5*127)=63, floor(0.25*127)=31
    assert q[1].tolist() == [0, 0, 0, 0]
    assert q[2].tolist() == [127, 127, -127, 63]
    assert q.max() <= 127 and q.min() >= -127


def test_hard_negatives_excludes_query_label(ray_session):
    from commons_codec_ray.stages.similarity import hard_negatives

    ds = rd.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    labels = (
        rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "label"])
        .to_pandas()
        .set_index("vec_id")["label"]
    )
    out = hard_negatives(ds, query_ids=QUERIES, k=5, round_to=None).to_pandas()
    for qid, g in out.groupby("query_id"):
        assert len(g) == 5
        assert qid not in set(g["vec_id"])  # self shares its own label
        assert all(labels[v] != labels[qid] for v in g["vec_id"])


def test_hard_negatives_are_hardest_cross_label(ray_session):
    # brute-force reference: for each query, the mined negatives must be
    # exactly the top-5 cosine among different-label vectors
    from commons_codec_ray.stages.similarity import hard_negatives

    ds = rd.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    df = ds.to_pandas()
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    got = hard_negatives(ds, query_ids=QUERIES, k=5, round_to=None).to_pandas()
    for q in QUERIES:
        qi = df.index[df["vec_id"] == q][0]
        s = m @ m[qi]
        mask = (df["label"] != df["label"].iloc[qi]).to_numpy()
        pool = np.flatnonzero(mask)
        order = pool[np.lexsort((df["vec_id"].to_numpy()[pool], -s[pool]))][:5]
        want = list(df["vec_id"].to_numpy()[order])
        have = list(got[got["query_id"] == q].sort_values(
            ["score", "vec_id"], ascending=[False, True])["vec_id"])
        assert have == want


def _mmr_reference(df, query_id, pool_k, k):
    """Independent MMR reference: the full corpus in memory, the same
    ppm objective, the pool as the oracle's ORDER BY rp DESC, vec_id."""
    from commons_codec_ray.util import duck_rint

    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    ids = df["vec_id"].to_numpy()
    qi = int(np.flatnonzero(ids == query_id)[0])
    rel = duck_rint((m @ m[qi]) * 1e6).astype(np.int64)
    sims = duck_rint((m @ m.T) * 1e6).astype(np.int64)
    cand = [i for i in range(len(df)) if ids[i] != query_id]
    cand.sort(key=lambda i: (-rel[i], ids[i]))
    pool = cand[:pool_k]
    sel, want = [], []
    for _ in range(min(k, len(pool))):
        best = min(
            (i for i in pool if i not in sel),
            key=lambda i: (
                -(int(rel[i]) - (max(int(sims[i][j]) for j in sel) if sel else 0)),
                ids[i],
            ),
        )
        sel.append(best)
        want.append(int(ids[best]))
    return want


def test_mmr_select_matches_naive_reference(ray_session):
    from commons_codec_ray.stages.similarity import mmr_select

    ds = rd.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    got = mmr_select(ds, query_id=0, pool_k=20, k=5)
    want = _mmr_reference(ds.to_pandas(), 0, 20, 5)
    assert list(got["vec_id"]) == want
    assert list(got["rank"]) == [1, 2, 3, 4, 5]
    assert len(set(got["vec_id"])) == 5


def test_mmr_select_pool_boundary_tie_beyond_the_first_pull(ray_session):
    # 40 candidates tie at one ppm relevance right at the pool boundary,
    # their raw scores rising with the id: the first pull by raw score
    # holds only the highest ids, but the pool wants the lowest
    from commons_codec_ray.stages.similarity import mmr_select

    leaders = [(0.9, 0.0), (0.8, 0.3), (0.7, 0.6)]  # (cos to q, spread)
    tied = [(0.5 + i * 1e-10, 1.0) for i in range(40)]
    vecs = [[1.0, 0.0, 0.0]]
    for c, t in leaders + tied:
        r = np.sqrt(1.0 - c * c)
        vecs.append([c, r * np.cos(t), r * np.sin(t)])
    df = pd.DataFrame({"vec_id": np.arange(len(vecs), dtype=np.int64), "embedding": vecs})
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(df["vec_id"]),
                "embedding": pa.array([list(map(float, v)) for v in vecs]),
            }
        )
    )
    pool_k = 5
    got = list(mmr_select(ds, query_id=0, pool_k=pool_k, k=pool_k)["vec_id"])
    want = _mmr_reference(df, 0, pool_k, pool_k)
    assert sorted(want) == [1, 2, 3, 4, 5]  # the two lowest tied ids
    assert got == want


def test_mmr_select_diversifies_duplicate_leaders(ray_session):
    # a corpus whose top relevance hits are copies of one vector: plain
    # top-k returns the copies; MMR must pick one copy then diversify
    from commons_codec_ray.stages.similarity import mmr_select

    rng = np.random.RandomState(3)
    base = rng.randn(6, 8)
    q = base[0]
    near = q + 0.01 * rng.randn(3, 8)  # three near-duplicates of q
    other = rng.randn(4, 8)
    vecs = np.vstack([q[None, :], near, other])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    ds = rd.from_arrow(t)
    got = mmr_select(ds, query_id=0, pool_k=7, k=3)
    picked = list(got["vec_id"])
    # rank 1 is a near-duplicate of q; ranks 2-3 must NOT both be the
    # remaining near-duplicates (similarity penalty pushes them out)
    assert picked[0] in (1, 2, 3)
    assert not set(picked[1:]).issubset({1, 2, 3})
