"""Near-duplicate removal invariants (clustering is data-dependent, so
these are property checks rather than a SQL oracle)."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from commons_codec_ray.stages.dedup import near_dedup
from commons_codec_ray.stages.graph import components_sharded

SF_DIR = "/root/testdata/sf0.001"


def _union_find(pairs: pd.DataFrame) -> dict:
    """Reference clusters: node -> min id of its component."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _labels(out) -> dict:
    """node -> cluster_id of a components_sharded result (table or Dataset)."""
    df = out.to_pandas()
    return dict(zip(df["node"].astype(int), df["cluster_id"].astype(int)))


def test_dedup_clusters_union_find(ray_session):
    # near_dedup's clusters: a pair table, one driver shard, a table back
    pairs = pd.DataFrame({"id_a": [1, 2, 10, 11], "id_b": [2, 3, 11, 12]})
    out = components_sharded(pa.Table.from_pandas(pairs))
    assert isinstance(out, pa.Table)
    by_doc = _labels(out)
    assert by_doc[1] == by_doc[2] == by_doc[3] == 1
    assert by_doc[10] == by_doc[11] == by_doc[12] == 10
    assert by_doc == _union_find(pairs)


def test_distributed_clusters_match_union_find(ray_session):
    # duplicate and reversed pairs, on a table and on spawned shards
    pairs = pd.DataFrame(
        {"id_a": [1, 2, 10, 11, 20, 1, 3, 21], "id_b": [2, 3, 11, 12, 21, 3, 1, 20]}
    )
    want = _union_find(pairs)
    assert _labels(components_sharded(pa.Table.from_pandas(pairs))) == want
    assert _labels(components_sharded(rd.from_pandas(pairs), num_shards=3)) == want


def test_minhasher_nondefault_k_no_neighbor_leakage():
    """Regression (r3 review): the batch shingle combine must fold
    exactly shingle_k tokens for ANY k — with k=2 the old code folded 3,
    reading the NEXT document's first token, so signatures depended on
    batch neighbors."""
    import pyarrow as pa

    from commons_codec_ray.stages.dedup import MinHasher

    for k in (1, 2, 3, 4, 5):
        h = MinHasher(shingle_k=k)
        # same doc, different neighbors and batch positions
        s1 = h.signatures(pa.array(["alpha beta gamma delta", "xxx yyy zzz qqq rrr"]))[0]
        s2 = h.signatures(pa.array(["completely other words here now", "alpha beta gamma delta"]))[1]
        assert (s1 == s2).all(), f"k={k}: signature depends on neighbors"
        # and a doc shorter than k must not absorb its neighbor either
        s3 = h.signatures(pa.array(["lone", "alpha beta gamma delta"]))[0]
        s4 = h.signatures(pa.array(["lone", "totally different neighbor text"]))[0]
        assert (s3 == s4).all(), f"k={k}: short-doc signature depends on neighbors"
        # different token ORDER must hash differently for k >= 2
        if k >= 2:
            a = h.signatures(pa.array(["one two three four five six"]))[0]
            b = h.signatures(pa.array(["six five four three two one"]))[0]
            assert not (a == b).all(), f"k={k}: order-insensitive shingles"


def test_distributed_clusters_path_graph_converges_log_rounds(ray_session):
    """Pointer-jumping (VERDICT r2 #6): a 1000-node PATH graph (diameter
    999 — the worst case for one-hop propagation) must converge within a
    logarithmic round budget, proving label <- label[label] doubling."""
    import numpy as np

    n = 1000
    pairs = pd.DataFrame({"id_a": np.arange(n - 1), "id_b": np.arange(1, n)})
    got = components_sharded(rd.from_pandas(pairs), max_rounds=12).to_pandas()
    assert len(got) == n
    assert (got["cluster_id"] == 0).all()  # fully converged in <=12 rounds


def test_near_dedup_distributed_path_matches_driver_path():
    """Pathological guard: max_driver_pairs=0 forces the distributed
    clustering + bucketed anti-join; survivors must be identical to the
    driver path."""
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).limit(120)

    def perturb(t: pa.Table) -> pa.Table:
        ids = pc.add(t["doc_id"], 1_000_000)
        return pa.table({"doc_id": ids, "text": t["text"]})

    corpus = docs.union(docs.map_batches(perturb, batch_format="pyarrow"))
    driver = near_dedup(corpus, threshold=0.7).to_pandas()
    dist = near_dedup(corpus, threshold=0.7, max_driver_pairs=0).to_pandas()
    assert sorted(dist.doc_id) == sorted(driver.doc_id)
    assert set(dist.columns) == set(driver.columns)


def test_near_dedup_removes_planted_copies():
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])

    def perturb(t: pa.Table) -> pa.Table:
        ids = pc.add(t["doc_id"], 1_000_000)
        texts = pa.array([f"{x} PERTURBED COPY" for x in t["text"].to_pylist()])
        return pa.table({"doc_id": ids, "text": texts})

    n_orig = docs.count()
    corpus = docs.union(docs.map_batches(perturb, batch_format="pyarrow"))
    survivors = near_dedup(corpus, threshold=0.7).to_pandas()
    ids = set(survivors.doc_id)
    # planted copies sit at shingle Jaccard ≈ 0.9; with 8 bands × 8 rows
    # the per-copy banding-miss probability is (1 - J^8)^8 ≈ 1-2%, so a
    # small hash-realization-dependent tail of copies legitimately
    # escapes LSH (this bound is about the operator, not the estimator:
    # a broken pipeline loses ~all copies, not a few)
    surviving_copies = sum(1 for i in ids if i >= 1_000_000)
    assert surviving_copies <= 0.04 * n_orig
    # most originals survive (a few are genuine near-dups of each other —
    # merging those is correct behavior, not a bug)
    originals = [i for i in ids if i < 1_000_000]
    assert len(originals) > 0.85 * n_orig


def _scored_corpus():
    """Three near-dup clusters (identical texts => Jaccard 1.0) with a
    quality score; distinct vocab across clusters; one singleton."""
    rows = []
    for c, base in enumerate(["alpha beta gamma delta", "epsilon zeta eta theta",
                              "iota kappa lam mu"]):
        for j in range(3):
            rows.append({"doc_id": c * 10 + j, "text": base,
                         "quality": float(j if c != 1 else 2 - j)})
    rows.append({"doc_id": 99, "text": "nu xi omicron pi", "quality": 0.0})
    return rd.from_arrow(pa.Table.from_pylist(rows))


def test_near_dedup_keep_best_driver_and_distributed():
    # best quality in cluster 0/2 is doc *2 (ascending scores), in
    # cluster 1 it's doc 10 (descending scores); singleton 99 survives
    want = {2, 10, 22, 99}
    for max_driver in (2_000_000, 0):  # driver path, then forced distributed
        got = near_dedup(
            _scored_corpus(), threshold=0.7,
            max_driver_pairs=max_driver, keep_by=("quality", "max"),
        ).to_pandas()
        assert set(got["doc_id"]) == want, (max_driver, sorted(got["doc_id"]))


def test_near_dedup_keep_min_score():
    got = near_dedup(
        _scored_corpus(), threshold=0.7, keep_by=("quality", "min")
    ).to_pandas()
    assert set(got["doc_id"]) == {0, 12, 20, 99}


def test_near_dedup_without_pairs_keeps_every_doc(ray_session):
    # distinct vocab, so LSH yields no pair: every doc survives under each
    # policy, on the driver path and above max_driver_pairs alike
    want = [0, 10, 20, 99]

    def distinct():
        return _scored_corpus().map_batches(
            lambda t: t.filter(pc.is_in(t["doc_id"], value_set=pa.array(want))),
            batch_format="pyarrow",
        )

    for max_driver in (2_000_000, -1):
        for keep_by in (None, ("quality", "max")):
            got = near_dedup(
                distinct(), threshold=0.7, keep_by=keep_by, max_driver_pairs=max_driver,
            ).to_pandas()
            assert sorted(got["doc_id"]) == want, (max_driver, keep_by)


def test_narrow_transport_matches_wide(ray_session):
    """jaccard_pairs_narrow must produce the IDENTICAL pair set to
    jaccard_pairs — same candidates, same threshold and band-equality
    semantics, only the transport differs."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.stages.dedup import jaccard_pairs, jaccard_pairs_narrow

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(300)]
    texts, ids = [], []
    for i in range(120):
        toks = [vocab[rng.randint(300)] for _ in range(30)]
        texts.append(" ".join(toks))
        ids.append(i)
        if i % 3 == 0:  # plant a near-dup: perturb one token
            toks2 = list(toks)
            toks2[rng.randint(30)] = vocab[rng.randint(300)]
            texts.append(" ".join(toks2))
            ids.append(i + 10_000)
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ).repartition(7)

    def norm(res):
        df = res.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        df["jaccard"] = df["jaccard"].round(9)
        return df

    wide = norm(jaccard_pairs(ds, threshold=0.7))
    narrow = norm(jaccard_pairs_narrow(ds, threshold=0.7))
    assert len(wide) > 0  # the corpus must actually exercise the path
    pd.testing.assert_frame_equal(wide, narrow)


def test_narrow_matches_wide_on_cliques(ray_session):
    """Clique-heavy corpus (many identical docs): every band of a clique
    pair collides, so the minimal-matching-band rule must still emit
    each pair exactly once across buckets."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.stages.dedup import jaccard_pairs, jaccard_pairs_narrow

    texts, ids = [], []
    for c in range(4):  # four cliques of 7 identical docs
        base = " ".join(f"c{c}tok{k}" for k in range(25))
        for m in range(7):
            texts.append(base)
            ids.append(c * 100 + m)
    for i in range(40):  # unique background docs
        texts.append(" ".join(f"u{i}x{k}" for k in range(25)))
        ids.append(10_000 + i)
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ).repartition(5)

    def norm(res):
        df = res.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        df["jaccard"] = df["jaccard"].round(9)
        return df

    wide = norm(jaccard_pairs(ds, threshold=0.7))
    narrow = norm(jaccard_pairs_narrow(ds, threshold=0.7))
    assert len(wide) == 4 * (7 * 6 // 2)  # full cliques, nothing else
    pd.testing.assert_frame_equal(wide, narrow)


def test_lsh_params_tuning():
    from commons_codec_ray.stages.dedup import MinHasher, lsh_params

    b, r = lsh_params(0.7, 64)
    assert b * r == 64
    # the S-curve midpoint (1/b)^(1/r) must sit near the threshold
    mid = (1.0 / b) ** (1.0 / r)
    assert abs(mid - 0.7) < 0.2
    # higher thresholds want FEWER, LONGER bands (collisions harder)
    b_hi, r_hi = lsh_params(0.9, 64)
    assert b_hi <= b and r_hi >= r
    # lower thresholds want MORE, SHORTER bands
    b_lo, r_lo = lsh_params(0.4, 64)
    assert b_lo >= b and r_lo <= r
    # the tuned split drops straight into the hasher
    h = MinHasher(num_perm=64, bands=b)
    assert h.rows_per_band == r


class TestIncrementalNearDedup:
    """The ``near_dedup_incremental`` catalog entry."""

    @staticmethod
    def _corpus(n=120, blocks=5):
        # disjoint-vocab originals + perturbed copies (the planted shape)
        rows_id, rows_text = [], []
        for i in range(n):
            toks = [f"w{i}_{j}" for j in range(30)]
            rows_id.append(i)
            rows_text.append(" ".join(toks))
            if i % 3 == 0:  # copy with a case perturbation
                rows_id.append(10_000 + i)
                rows_text.append(" ".join(t.upper() for t in toks))
        t = pa.table(
            {
                "doc_id": pa.array(rows_id, pa.int64()),
                "text": pa.array(rows_text, pa.string()),
            }
        )
        import ray.data as rd

        return rd.from_arrow(t).repartition(blocks)

    def test_matches_batch_near_dedup(self, ray_session):
        """The ``near_dedup_incremental`` entry IS batch ``near_dedup``,
        which removes every copy of a corpus spread over several blocks."""
        from commons_codec_ray.pipelines.queries import QUERIES
        from commons_codec_ray.stages.dedup import near_dedup

        assert QUERIES["near_dedup_incremental"] is QUERIES["near_dedup"]
        kept = sorted(near_dedup(self._corpus(), threshold=0.7).to_pandas()["doc_id"])
        assert kept == list(range(120))


_ONE_CPU_SCRIPT = """
import pyarrow as pa
import ray
import ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
try:
    from commons_codec_ray.stages.dedup import near_dedup

    ids, texts = [], []
    for i in range(60):
        toks = [f"w{i}_{j}" for j in range(30)]
        ids.append(i)
        texts.append(" ".join(toks))
        if i % 3 == 0:  # a copy that differs only in case
            ids.append(10_000 + i)
            texts.append(" ".join(t.upper() for t in toks))
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    kept = sorted(near_dedup(ds, threshold=0.7).to_pandas()["doc_id"])
    assert kept == list(range(60)), kept
    print("DEDUP-OK")
finally:
    ray.shutdown()
"""


def test_near_dedup_on_one_logical_cpu():
    """``near_dedup`` (and so the ``near_dedup_incremental`` entry)
    finishes on a one-CPU cluster. The session fixture pins 4 CPUs, so
    the call runs in a subprocess with its own ``ray.init``, in its own
    process group so a hung run's Ray processes die with it."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    timeout_s = 120
    root = str(Path(__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"near_dedup at num_cpus=1 still running after {timeout_s} s")
    assert proc.returncode == 0, err[-3000:]
    assert "DEDUP-OK" in out
