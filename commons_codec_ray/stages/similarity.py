"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast ONCE
via ``ray.put`` and read in each actor's ``__init__`` (never re-shipped
per batch); each batch is a single float64 matmul. Partial top-k per
batch → tiny per-query reduce.

Scale path: LSH-bucketed search — random-hyperplane signs bucket both
corpus and queries; only matching buckets are scanned (multi-probe by
flipping low-confidence bits would raise recall; documented knob).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from commons_codec_ray.util import pool_size


def _matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BruteForceTopK:
    """map_batches stage: per-batch cosine scores vs broadcast queries,
    keeping the batch-local top-k per query (partial reduce)."""

    def __init__(
        self,
        queries_ref,
        k: int = 10,
        id_column: str = "vec_id",
        label_column: str | None = None,
    ):
        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
        self.qids = np.asarray(q["ids"])
        self.qmat = _normalize(np.asarray(q["vectors"], dtype=np.float64))
        # hard-negative mode: per-query label; candidates sharing it are
        # masked out (contrastive-mining semantics)
        self.qlabels = np.asarray(q["labels"]) if label_column else None
        self.k = k
        self.id_column = id_column
        self.label_column = label_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column].to_numpy(zero_copy_only=False)
        m = _normalize(_matrix(batch["embedding"]))
        scores = self.qmat @ m.T  # (nq, nb)
        labels = (
            batch[self.label_column].to_numpy(zero_copy_only=False)
            if self.label_column
            else None
        )
        out_q, out_v, out_s = [], [], []
        for qi in range(scores.shape[0]):
            # deterministic boundary: (score desc, id asc), matching the
            # oracle's ORDER BY score DESC, vec_id. argpartition finds the
            # k-th score, candidates = everything scoring >= it (ties at
            # the boundary stay in), then one small lexsort — O(n + c log
            # c) instead of a full-batch sort per query
            s = scores[qi]
            pool = (
                np.flatnonzero(labels != self.qlabels[qi])
                if labels is not None
                else np.arange(len(s))
            )
            if len(pool) == 0:
                continue
            k = min(self.k, len(pool))
            sp = s[pool]
            if k < len(sp):
                kth = sp[np.argpartition(-sp, k - 1)[k - 1]]
                cand = pool[sp >= kth]
            else:
                cand = pool
            order = cand[np.lexsort((ids[cand], -s[cand]))[:k]]
            out_q.append(np.full(k, self.qids[qi], dtype=np.int64))
            out_v.append(ids[order])
            out_s.append(s[order])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    self.id_column: pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_column: pa.array(np.concatenate(out_v)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )


def ann_topk(ds, query_ids, k: int = 10, id_column: str = "vec_id", round_to: int | None = 4):
    """Top-k cosine neighbors for each query id (queries drawn from ``ds``).

    The query matrix is materialized once (small side), broadcast via
    ``ray.put``; the corpus streams through the scorer; the final reduce
    is a per-query sort+head over ≤ k·num_batches partial rows.
    """
    qtbl = (
        ds.map_batches(
            lambda t: t.filter(pa.compute.is_in(t[id_column], value_set=pa.array(query_ids))),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    qref = ray.put(
        {"ids": qtbl[id_column].to_numpy(), "vectors": np.stack(qtbl["embedding"].to_numpy())}
    )

    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"queries_ref": qref, "k": k, "id_column": id_column},
        batch_format="pyarrow",
        batch_size=4096,
        # autoscaling from one actor: a corpus of one block gets one
        concurrency=(1, pool_size(4)),
    )

    def head_k(group: pd.DataFrame) -> pd.DataFrame:
        from commons_codec_ray.util import duckdb_round

        g = (
            group.sort_values(["score", id_column], ascending=[False, True], kind="mergesort")
            .head(k)
            .copy()
        )
        if round_to is not None:
            g["score"] = duckdb_round(g["score"].to_numpy(), round_to)
        return g

    return partials.groupby("query_id").map_groups(head_k, batch_format="pandas")


def hard_negatives(
    ds,
    query_ids,
    k: int = 5,
    id_column: str = "vec_id",
    label_column: str = "label",
    round_to: int | None = 4,
):
    """Hard-negative mining for contrastive training: for each query
    vector, the ``k`` most-similar corpus vectors with a DIFFERENT
    label — the near-misses a contrastive loss learns most from
    (in-batch negatives are mostly easy; mined hard negatives dominate
    retrieval-model quality).

    Same broadcast-queries / streaming-corpus / partial-top-k shape as
    :func:`ann_topk`; the label constraint is a per-batch mask inside
    the scorer, so the corpus still streams once with no shuffle."""
    qtbl = (
        ds.map_batches(
            lambda t: t.filter(
                pa.compute.is_in(t[id_column], value_set=pa.array(query_ids))
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    qref = ray.put(
        {
            "ids": qtbl[id_column].to_numpy(),
            "vectors": np.stack(qtbl["embedding"].to_numpy()),
            "labels": qtbl[label_column].to_numpy(),
        }
    )

    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={
            "queries_ref": qref,
            "k": k,
            "id_column": id_column,
            "label_column": label_column,
        },
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, pool_size(4)),
    )

    def head_k(group: pd.DataFrame) -> pd.DataFrame:
        from commons_codec_ray.util import duckdb_round

        g = (
            group.sort_values(["score", id_column], ascending=[False, True], kind="mergesort")
            .head(k)
            .copy()
        )
        if round_to is not None:
            g["score"] = duckdb_round(g["score"].to_numpy(), round_to)
        return g

    return partials.groupby("query_id").map_groups(head_k, batch_format="pandas")


def mmr_select(
    ds,
    query_id: int,
    pool_k: int = 20,
    k: int = 5,
    id_column: str = "vec_id",
):
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998) diverse
    top-k with λ=0.5: greedily pick the candidate maximizing
    ``rel(c) - max_{s in selected} sim(c, s)`` (the λ=0.5 objective
    scaled by 2, which preserves the argmax).

    Scale shape: the DISTRIBUTED stage is the relevance pool — a
    streaming brute-force top-``pool_k`` over the corpus (same
    broadcast/partial-reduce as :func:`ann_topk`); the greedy loop is
    inherently sequential but runs on the driver over the BOUNDED pool
    (pool_k × pool_k sims — bytes), never the corpus.

    Determinism: every similarity is quantized to integer ppm
    (``duck_rint(cos * 1e6)``) BEFORE any comparison — selection on
    raw floats is not replayable across engines because amplified
    corpora contain exact duplicate vectors whose objective values tie
    at math level and order by accumulated-ulp noise (observed: numpy
    vs DuckDB swapped ranks 2/3 on a duplicated corpus). Integer
    scores tie-break by id ascending. The pool is pulled by raw score,
    so candidates it leaves out score at most its lowest ``rp``; while
    the last kept ``rp`` equals that lowest one (a ppm tie cut at the
    boundary, where a left-out candidate with a smaller id belongs in
    the pool) and the corpus has more rows, it is re-pulled with twice
    the ``k``."""
    import pandas as pd

    from commons_codec_ray.util import duck_rint

    fetch = pool_k + 16  # slack that makes a re-pull rare
    while True:
        partials = (
            ann_topk(ds, [query_id], k=fetch, id_column=id_column, round_to=None)
            .to_pandas()
        )
        more = len(partials) == fetch
        partials = partials[partials[id_column] != query_id].copy()
        partials["rp"] = duck_rint(
            partials["score"].to_numpy(np.float64) * 1e6
        ).astype(np.int64)
        pool = partials.sort_values(
            ["rp", id_column], ascending=[False, True], kind="mergesort"
        ).head(pool_k)
        if not (more and len(pool) and pool["rp"].iloc[-1] == partials["rp"].min()):
            break
        fetch *= 2
    ids = pool[id_column].to_numpy()
    rel_ppm = pool["rp"].to_numpy(np.int64)

    want = set(ids.tolist())
    vec = (
        ds.map_batches(
            lambda t: t.filter(
                pa.compute.is_in(t[id_column], value_set=pa.array(sorted(want)))
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index(id_column)["embedding"]
    )
    m = _normalize(np.stack([np.asarray(vec[i], np.float64) for i in ids]))
    sims_ppm = duck_rint((m @ m.T) * 1e6).astype(np.int64)

    selected: list[int] = []
    out_rank, out_id, out_score = [], [], []
    remaining = list(range(len(ids)))
    for rank in range(1, min(k, len(ids)) + 1):
        best = None
        for i in remaining:
            pen = max(sims_ppm[i][j] for j in selected) if selected else 0
            score = int(rel_ppm[i]) - int(pen)
            key = (-score, ids[i])
            if best is None or key < best[0]:
                best = (key, i, score)
        _, i, score = best
        selected.append(i)
        remaining.remove(i)
        out_rank.append(rank)
        out_id.append(int(ids[i]))
        out_score.append(score)
    return pd.DataFrame(
        {
            "rank": np.array(out_rank, np.int64),
            id_column: np.array(out_id, np.int64),
            "m2_ppm": np.array(out_score, np.int64),
        }
    )


class IVFIndex:
    """IVF coarse quantizer: seeded k-means (numpy Lloyd, few rounds) on
    a corpus sample; search probes the ``nprobe`` nearest centroids.

    Built once on the driver from a SAMPLE (never the full corpus) and
    broadcast; cluster assignment is one matmul per batch. Recall/cost
    knobs: ``n_clusters`` ~ sqrt(corpus), ``nprobe`` raises recall
    linearly in scan cost.
    """

    def __init__(self, sample: np.ndarray, n_clusters: int = 16, iters: int = 8, seed: int = 3):
        rng = np.random.RandomState(seed)
        sample = _normalize(np.asarray(sample, dtype=np.float64))
        n_clusters = min(n_clusters, len(sample))
        centroids = sample[rng.choice(len(sample), n_clusters, replace=False)]
        for _ in range(iters):
            assign = np.argmax(sample @ centroids.T, axis=1)
            for c in range(n_clusters):
                members = sample[assign == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
            centroids = _normalize(centroids)
        self.centroids = centroids

    def assign(self, m: np.ndarray) -> np.ndarray:
        return np.argmax(_normalize(m) @ self.centroids.T, axis=1)

    def probe(self, q: np.ndarray, nprobe: int) -> np.ndarray:
        scores = _normalize(np.atleast_2d(q)) @ self.centroids.T
        return np.argsort(-scores, axis=1)[:, :nprobe]

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _matrix(batch["embedding"])
        return batch.append_column("ivf_cluster", pa.array(self.assign(m).astype(np.int64)))


def _hash_sample(ds, id_column: str, sample_n: int, seed: int = 11) -> pd.DataFrame:
    """Deterministic ~``sample_n``-row sample: membership is a splitmix
    hash of the id column, so the sample is uniform under ANY corpus
    ordering (``ds.limit`` takes the FIRST blocks — on data sorted by
    source/topic that sees one region of the space), and reproducible
    across runs and cluster sizes. ``ds.count()`` on parquet is
    metadata-only."""
    total = ds.count()
    if total <= sample_n:
        return ds.to_pandas()
    # 2x headroom so hash variance can't under-fill; trimmed below
    threshold = np.uint64(min(1.0, 2.0 * sample_n / total) * (1 << 32))

    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids + np.uint64(seed)) + np.uint64(0x9E3779B97F4A7C15)
            h = h * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(31)
            h = h * np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(29)
        mask = (h >> np.uint64(32)) < threshold
        return t.filter(pa.array(mask)).append_column("_sample_h", pa.array(h[mask]))

    picked = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    # deterministic trim regardless of block arrival order — by HASH, not
    # by id (an id-ordered trim would reintroduce the prefix bias)
    picked = picked.sort_values(["_sample_h", id_column], kind="mergesort").head(sample_n)
    return picked.drop(columns=["_sample_h"])


def ivf_topk(ds, query_ids, k: int = 10, id_column: str = "vec_id",
             n_clusters: int = 16, nprobe: int = 4, sample_n: int = 2048):
    """IVF-bucketed approximate top-k: scan only the probed clusters.

    At 100 TB this turns a full-corpus matmul into an ``nprobe /
    n_clusters`` fraction scan; single-digit recall loss at sane knobs.
    The quantizer is built from a HASH sample (``_hash_sample``), not
    ``ds.limit`` — limit takes the first blocks, which on source-ordered
    lakes biases the k-means toward one region of the embedding space.
    """
    sample = _hash_sample(ds, id_column, sample_n)
    index = IVFIndex(np.stack(sample["embedding"].to_numpy()), n_clusters=n_clusters)

    qtbl = ds.map_batches(
        lambda t: t.filter(pa.compute.is_in(t[id_column], value_set=pa.array(query_ids))),
        batch_format="pyarrow",
    ).to_pandas()
    qmat = _normalize(np.stack(qtbl["embedding"].to_numpy()).astype(np.float64))
    probed = index.probe(qmat, nprobe)  # (nq, nprobe)
    wanted = pa.array(np.unique(probed))
    qref = ray.put({"ids": qtbl[id_column].to_numpy(), "vectors": qmat, "probed": probed})

    bucketed = ds.map_batches(index, batch_format="pyarrow", batch_size=4096)
    candidates = bucketed.map_batches(
        lambda t: t.filter(pa.compute.is_in(t["ivf_cluster"], value_set=wanted)),
        batch_format="pyarrow",
    )

    class ScoreProbed:
        def __init__(self):
            q = ray.get(qref)
            self.qids, self.qmat, self.probed = q["ids"], q["vectors"], q["probed"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[id_column].to_numpy(zero_copy_only=False)
            clusters = batch["ivf_cluster"].to_numpy(zero_copy_only=False)
            m = _normalize(_matrix(batch["embedding"]))
            rows = {"query_id": [], id_column: [], "score": []}
            for qi in range(len(self.qids)):
                mask = np.isin(clusters, self.probed[qi])
                if not mask.any():
                    continue
                s = m[mask] @ self.qmat[qi]
                rows["query_id"].append(np.full(mask.sum(), self.qids[qi], dtype=np.int64))
                rows[id_column].append(ids[mask])
                rows["score"].append(s)
            if not rows["query_id"]:
                return pa.table(
                    {"query_id": pa.array([], pa.int64()), id_column: pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64())}
                )
            return pa.table({c: pa.array(np.concatenate(v)) for c, v in rows.items()})

    scored = candidates.map_batches(ScoreProbed, batch_format="pyarrow", concurrency=pool_size(2))

    def head_k(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["score", id_column], ascending=[False, True], kind="mergesort"
        ).head(k)

    return scored.groupby("query_id").map_groups(head_k, batch_format="pandas")


class LSHIndexer:
    """Multi-table random-hyperplane LSH (sign bits → int64 bucket/table).

    ``tables`` independent hash tables are the standard recall lever for
    hyperplane LSH (per-table collision probability compounds as
    1-(1-p)^L); ``probe_buckets`` adds multi-probe within each table
    (lowest-|margin| bit flips). Bucket ids pack the table index in the
    high bits so one int64 column per table suffices.
    """

    def __init__(self, dim: int, bits: int = 12, seed: int = 5, tables: int = 1):
        rng = np.random.RandomState(seed)
        self.planes = [rng.standard_normal((dim, bits)) for _ in range(tables)]
        self.bits = bits
        self.tables = tables

    def _bucket_one(self, m: np.ndarray, t: int) -> np.ndarray:
        signs = (m @ self.planes[t]) > 0
        b = (signs.astype(np.int64) << np.arange(self.bits, dtype=np.int64)).sum(axis=1)
        return b | (np.int64(t) << 48)

    def bucket(self, m: np.ndarray) -> np.ndarray:
        return self._bucket_one(m, 0)

    def probe_buckets(self, m: np.ndarray, nprobe: int) -> np.ndarray:
        """(nq, tables*nprobe) bucket ids: per table, the query's own
        bucket plus the buckets reached by flipping the lowest-|margin|
        hyperplane bits (the bits most likely to differ for a true
        neighbor)."""
        outs = []
        for t in range(self.tables):
            proj = m @ self.planes[t]  # (nq, bits)
            base = ((proj > 0).astype(np.int64) << np.arange(self.bits, dtype=np.int64)).sum(
                axis=1
            ) | (np.int64(t) << 48)
            flip_order = np.argsort(np.abs(proj), axis=1)  # least-confident first
            out = np.empty((len(m), nprobe), dtype=np.int64)
            out[:, 0] = base
            for p in range(1, nprobe):
                out[:, p] = base ^ (np.int64(1) << flip_order[:, p - 1].astype(np.int64))
            outs.append(out)
        return np.concatenate(outs, axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix(batch["embedding"]))
        out = batch
        for t in range(self.tables):
            out = out.append_column(
                f"lsh_bucket_{t}" if self.tables > 1 else "lsh_bucket",
                pa.array(self._bucket_one(m, t)),
            )
        return out


def lsh_topk(ds, query_ids, k: int = 10, id_column: str = "vec_id", bits: int = 8,
             nprobe: int = 4, tables: int = 1):
    """Approximate top-k: scan only the corpus buckets the queries probe.

    Two recall levers, both standard: multi-probe within a table (query
    bucket + lowest-margin bit flips) and ``tables`` independent hash
    tables (candidate = match in ANY table). At 100 TB this turns a
    full-corpus matmul into a ``tables*nprobe / 2^bits``-ish fraction
    scan. Bucket count 2^bits should be sized ≪ corpus/k so buckets stay
    non-empty.
    """
    first = ds.take(1)[0]
    dim = len(first["embedding"])
    indexer = LSHIndexer(dim, bits=bits, tables=tables)
    nprobe = min(nprobe, bits + 1)
    bucket_cols = [f"lsh_bucket_{t}" for t in range(tables)] if tables > 1 else ["lsh_bucket"]

    qtbl = (
        ds.map_batches(
            lambda t: t.filter(pa.compute.is_in(t[id_column], value_set=pa.array(query_ids))),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    qmat = _normalize(np.stack(qtbl["embedding"].to_numpy()).astype(np.float64))
    qprobes = indexer.probe_buckets(qmat, nprobe)  # (nq, tables*nprobe)
    wanted = pa.array(np.unique(qprobes))
    qref = ray.put({"ids": qtbl[id_column].to_numpy(), "vectors": qmat, "probes": qprobes})

    def any_table_match(t: pa.Table) -> pa.Table:
        mask = None
        for c in bucket_cols:
            m = pa.compute.is_in(t[c], value_set=wanted)
            mask = m if mask is None else pa.compute.or_(mask, m)
        return t.filter(mask)

    bucketed = ds.map_batches(indexer, batch_format="pyarrow", batch_size=4096)
    candidates = bucketed.map_batches(any_table_match, batch_format="pyarrow")

    class ScoreInBucket:
        def __init__(self):
            q = ray.get(qref)
            self.qids, self.qmat, self.qprobes = q["ids"], q["vectors"], q["probes"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[id_column].to_numpy(zero_copy_only=False)
            buckets = np.stack(
                [batch[c].to_numpy(zero_copy_only=False) for c in bucket_cols]
            )  # (tables, n)
            m = _normalize(_matrix(batch["embedding"]))
            rows = {"query_id": [], id_column: [], "score": []}
            for qi in range(len(self.qids)):
                mask = np.isin(buckets, self.qprobes[qi]).any(axis=0)
                if not mask.any():
                    continue
                s = m[mask] @ self.qmat[qi]
                rows["query_id"].append(np.full(mask.sum(), self.qids[qi], dtype=np.int64))
                rows[id_column].append(ids[mask])
                rows["score"].append(s)
            if not rows["query_id"]:
                return pa.table(
                    {"query_id": pa.array([], pa.int64()), id_column: pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64())}
                )
            return pa.table({c: pa.array(np.concatenate(v)) for c, v in rows.items()})

    scored = candidates.map_batches(ScoreInBucket, batch_format="pyarrow", concurrency=pool_size(2))

    def head_k(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["score", id_column], ascending=[False, True], kind="mergesort"
        ).head(k)

    return scored.groupby("query_id").map_groups(head_k, batch_format="pandas")


def quantize_int8(ds, id_column: str = "vec_id", column: str = "embedding"):
    """Per-vector symmetric int8 quantization (the storage/serving
    compression step of every embedding pipeline): each vector scales by
    its own max-|v| to [−127, 127] via ``floor((v · 127) / max_abs)`` —
    double-precision expressions in a fixed order, so a SQL oracle
    evaluating the identical arithmetic matches bit-exactly.  All-zero
    vectors quantize to zeros.  One vectorized linear pass, no shuffle;
    output is flattened (id, dim, qv) rows (Arrow list columns don't
    survive the driver's sorted-column compare)."""
    import numpy as np

    def q(t: pa.Table) -> pa.Table:
        emb = t[column]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        m = np.stack(emb.to_numpy(zero_copy_only=False)).astype(np.float64)
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        n, d = m.shape
        ma = np.abs(m).max(axis=1, keepdims=True)
        qv = np.where(ma == 0, 0.0, np.floor((m * 127.0) / ma)).astype(np.int64)
        return pa.table(
            {
                id_column: pa.array(np.repeat(ids, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n), pa.int64()),
                "qv": pa.array(qv.reshape(-1), pa.int64()),
            }
        )

    return ds.map_batches(q, batch_format="pyarrow")
