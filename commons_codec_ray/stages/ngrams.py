"""Vectorized token n-gram operators for training-data hygiene.

Three corpus-scale operators built on ONE shared kernel (flat 64-bit
hashes of every length-n token window, computed for a whole Arrow batch
with offset arithmetic — no Python loop over documents):

- :func:`decontaminate` — eval-set decontamination: drop every corpus
  document that shares any token n-gram with a (small, broadcast-once)
  held-out evaluation set.  The standard pre-training hygiene step
  (13-gram overlap in GPT-3/PaLM data cards); eval sets are tiny by
  construction, so the n-gram set is a driver-built sorted uint64 array
  shipped ONCE via ``ray.put`` and the corpus streams through a
  searchsorted membership filter — no shuffle at all.
- :func:`duplicated_span_docs` — cross-document duplicated-substring
  detection (the doc-level form of Lee et al., "Deduplicating Training
  Data Makes Language Models Better"): flag every document that shares a
  full ``window``-token span with ANOTHER document.  One integer-keyed
  all-to-all carrying one row per distinct (window-hash, doc) pair;
  a hash seen under ≥2 distinct doc ids inside its bucket marks all its
  documents.
- :func:`chunk_tokens` — overlapping fixed-size token chunking (the
  RAG / context-window prep step): each document becomes
  ``ceil(n_tokens / stride)`` chunks of ``chunk`` tokens starting at
  every multiple of ``stride``; embarrassingly parallel per batch.

Hashes are 64-bit (splitmix-finalized positional combine).  Unlike the
MinHash shingle path (32-bit, collisions tolerated by its verify stage)
membership tests here have no re-check, so the full 64 bits are kept:
at 10^9 corpus grams vs 10^7 eval grams the expected false-hit count is
~10^16 / 2^64 ≈ 5·10^-4.  Documents with fewer than ``n`` tokens
contribute ONE hash over the tokens they have (mirroring
``MinHasher._shingle_hashes``), so a short eval document still matches
its own occurrence in the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from commons_codec_ray.util import adaptive_buckets, hash_bucket, pool_size

_R1 = np.uint64(0x9E3779B97F4A7C15)
_R2 = np.uint64(0xBF58476D1CE4E5B9)
_R3 = np.uint64(0x94D049BB133111EB)


def _flat_tokens(col) -> tuple[np.ndarray, np.ndarray]:
    """Lowercased whitespace tokens of every document in an Arrow string
    column, as (flat 64-bit token hashes, per-doc token counts).  Empty
    edge tokens from ``utf8_split_whitespace`` are dropped with a prefix
    sum (same construction as ``MinHasher._shingle_hashes``)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    la = pc.utf8_split_whitespace(pc.utf8_lower(col))
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    offsets = la.offsets.to_numpy().astype(np.int64)
    flat = la.flatten()
    nonempty = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    th_all = pd.util.hash_array(flat.to_numpy(zero_copy_only=False))
    cum = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
    cnt = cum[offsets[1:]] - cum[offsets[:-1]]
    return th_all[nonempty], cnt


def ngram_hashes(col, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """64-bit hashes of every length-``n`` token window of every document.

    Returns ``(H, starts, m)``: the flat uint64 hash array, each
    document's start offset into it, and each document's window count
    (``max(tokens - n + 1, 1)`` — short docs emit one hash over the
    tokens they have, never folding in a neighbor's tokens).
    """
    H_tok, cnt = _flat_tokens(col)
    ndocs = len(cnt)
    starts_tok = np.concatenate([[0], np.cumsum(cnt)])[:-1]
    N = len(H_tok)
    # distinct odd multiplier per window position so permuted token
    # orders hash differently (same scheme as the MinHash shingler)
    muls = [np.uint64(1)]
    with np.errstate(over="ignore"):
        cur = np.uint64(1)
        for _ in range(n - 1):
            cur = cur * _R1 + _R2
            muls.append(cur | np.uint64(1))
        comb = np.zeros(N, dtype=np.uint64)
        for j in range(n):
            shifted = (
                np.concatenate([H_tok[j:], np.zeros(min(j, N), np.uint64)])
                if j
                else H_tok
            )
            comb = comb + muls[j] * shifted
    m = np.maximum(cnt - (n - 1), 1)
    out_starts = np.concatenate([[0], np.cumsum(m)])
    total = int(out_starts[-1])
    doc_of = np.repeat(np.arange(ndocs), m)
    j = np.arange(total) - out_starts[doc_of]
    src = starts_tok[doc_of] + j
    if N:
        H = comb[np.minimum(src, N - 1)]
    else:
        H = np.zeros(total, np.uint64)
    # short docs: one window over the c < n tokens the doc has
    sp = cnt < n
    if sp.any():
        sidx = out_starts[:-1][sp]
        s0 = starts_tok[sp]
        c = cnt[sp]
        with np.errstate(over="ignore"):
            v = np.zeros(int(sp.sum()), dtype=np.uint64)
            for j in range(n - 1):
                has = c >= j + 1
                v[has] = v[has] + muls[j] * H_tok[s0[has] + j]
        H[sidx] = v
    # full-width splitmix finalizer — all 64 bits kept (see module doc)
    with np.errstate(over="ignore"):
        H = (H + _R1) * _R1
        H ^= H >> np.uint64(30)
        H = H * _R3
        H ^= H >> np.uint64(27)
        H = H * _R2
        H ^= H >> np.uint64(31)
    return H, out_starts[:-1], m


def eval_ngram_hashes(texts, n: int) -> np.ndarray:
    """Driver-side helper: the SORTED distinct n-gram hash set of an
    evaluation corpus (a list of strings or an Arrow string array),
    ready to ``ray.put`` for the broadcast membership filter."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    H, _, _ = ngram_hashes(texts, n)
    return np.unique(H)  # unique() also sorts


def decontaminate(
    ds,
    eval_hashes_ref,
    n: int = 13,
    column: str = "text",
    invert: bool = False,
):
    """Stream the corpus through an eval-set n-gram membership filter.

    ``eval_hashes_ref`` is a ``ray.put`` ObjectRef of the SORTED uint64
    array from :func:`eval_ngram_hashes` — fetched once per actor in
    ``__init__`` (never re-shipped per batch).  Keeps documents with NO
    n-gram in the eval set; ``invert=True`` returns the contaminated
    side instead (for contamination-rate reports).
    """
    import ray as _ray

    class ContaminationFilter:
        def __init__(self):
            self.ev = _ray.get(eval_hashes_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            H, starts, _ = ngram_hashes(t[column], n)
            ev = self.ev
            if len(ev) and len(H):
                idx = np.searchsorted(ev, H)
                hit = ev[np.minimum(idx, len(ev) - 1)] == H
                doc_hit = np.logical_or.reduceat(hit, starts)
            else:
                doc_hit = np.zeros(t.num_rows, dtype=bool)
            keep = doc_hit if invert else ~doc_hit
            return t.filter(pa.array(keep))

    return ds.map_batches(
        ContaminationFilter, batch_format="pyarrow", concurrency=(1, pool_size(4))
    )


def duplicated_span_docs(
    ds,
    window: int = 50,
    id_column: str = "doc_id",
    column: str = "text",
    num_buckets: int | None = None,
):
    """Distinct ids of documents sharing a full ``window``-token span
    with at least one OTHER document.

    Per-batch map emits one row per distinct (window-hash, doc) pair —
    within-document repeats collapse before the exchange, so the
    all-to-all carries at most one row per token of the corpus.  The
    single shuffle keys on the hash's own low bits (already
    splitmix-mixed); inside a bucket a hash under ≥2 distinct ids marks
    all its documents.  A second, tiny shuffle over the flagged ids
    (output ≪ corpus) makes the result globally distinct.
    """
    nb = num_buckets or adaptive_buckets()

    def explode(t: pa.Table) -> pa.Table:
        H, _, m = ngram_hashes(t[column], window)
        doc = np.repeat(t[id_column].to_numpy(zero_copy_only=False), m)
        df = pd.DataFrame({"h": H.view(np.int64), id_column: doc}).drop_duplicates()
        return pa.table(
            {
                "_b": pa.array(
                    (df["h"].to_numpy().view(np.uint64) & np.uint64(nb - 1)).astype(
                        np.int64
                    )
                ),
                "h": pa.array(df["h"].to_numpy()),
                id_column: pa.array(df[id_column].to_numpy()),
            }
        )

    def dup_docs(g: pd.DataFrame) -> pd.DataFrame:
        dup = g["h"].duplicated(keep=False)  # rows are distinct (h, doc) pairs
        return g.loc[dup, [id_column]].drop_duplicates()

    flagged = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(dup_docs, batch_format="pandas")
    )

    # global distinct over the (small) flagged set: coarse-bucketed, not
    # per-id groups — the same id can surface from several hash buckets
    def rebucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_db", hash_bucket(t[id_column].to_numpy(zero_copy_only=False), nb)
        )

    return (
        flagged.map_batches(rebucket, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(
            lambda df: df.drop_duplicates(id_column)[[id_column]],
            batch_format="pandas",
        )
    )


def chunk_tokens(
    ds,
    chunk: int = 32,
    stride: int = 24,
    id_column: str = "doc_id",
    column: str = "text",
):
    """Overlapping token chunks: ``(id, chunk_idx, chunk_text, n_tokens)``.

    Tokenization is a single-space split (matching the SQL oracle's
    ``string_split(text, ' ')`` exactly); chunks start at every multiple
    of ``stride`` below the doc's token count, the last chunk may be
    short.  Chunk text is carved out of the ORIGINAL string by
    precomputed character offsets (split + join round-trips a
    single-space join, so the slice equals the token join) — one C-level
    slice per output row instead of re-joining token lists.
    """

    def chunker(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_column: pa.array([], t.schema.field(id_column).type),
                    "chunk_idx": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                }
            )
        col = t[column].combine_chunks() if isinstance(t[column], pa.ChunkedArray) else t[column]
        la = pc.split_pattern(col, pattern=" ")
        offsets = la.offsets.to_numpy().astype(np.int64)
        flat = la.flatten()
        tok_chars = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.diff(offsets)  # tokens per doc (≥ 1: split of "" is [""])
        # char end offset of each token within its own document:
        # cumsum(len + 1) (the +1 is the separator space), rebased per doc
        g = np.cumsum(tok_chars + 1)
        base = np.concatenate([[0], g])[offsets[:-1]]
        tok_end = g - 1 - np.repeat(base, cnt)  # char AFTER token i
        nchunks = (cnt - 1) // stride + 1
        doc_of = np.repeat(np.arange(t.num_rows), nchunks)
        cstart = np.concatenate([[0], np.cumsum(nchunks)])
        cidx = np.arange(int(cstart[-1])) - cstart[doc_of]
        first_tok = cidx * stride
        last_tok = np.minimum(first_tok + chunk, cnt[doc_of]) - 1
        # char range [a, b) of the chunk inside the original text
        a = np.where(
            first_tok == 0,
            0,
            tok_end[offsets[:-1][doc_of] + np.maximum(first_tok - 1, 0)] + 1,
        )
        b = tok_end[offsets[:-1][doc_of] + last_tok]
        texts = col.to_numpy(zero_copy_only=False)
        out_text = [
            texts[d][ca:cb] for d, ca, cb in zip(doc_of, a, b)
        ]
        ids = t[id_column].to_numpy(zero_copy_only=False)[doc_of]
        return pa.table(
            {
                id_column: pa.array(ids, t.schema.field(id_column).type),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "chunk_text": pa.array(out_text, pa.string()),
                "n_tokens": pa.array(last_tok - first_tok + 1, pa.int64()),
            }
        )

    return ds.map_batches(chunker, batch_format="pyarrow")


def remove_duplicated_spans(
    ds,
    window: int = 50,
    id_column: str = "doc_id",
    column: str = "text",
    num_buckets: int | None = None,
):
    """Cut cross-document duplicated spans OUT of every document (the
    full Lee et al. operator — :func:`duplicated_span_docs` only flags).

    Tokens covered by any ``window``-token span whose hash occurs under
    ≥2 distinct documents are removed; the survivors are re-joined with
    single spaces.  Output: ``(id, clean_text, n_kept, kept_pos_sum)``
    — the integer columns (surviving token count + sum of surviving
    token positions) pin the exact span extents for oracle comparison
    without the oracle having to rebuild the text.

    Two exchanges, both integer-keyed and linear in corpus tokens:
    window rows (hash, doc, pos) shuffle to hash buckets where dup
    hashes are identified and their (doc, pos) rows emitted; those
    shuffle to document buckets where they meet the corpus rows
    (tagged union) and per-document masks are built with difference
    arrays over the bucket's flat token array — no Python loop except
    the final surviving-token join (the output work itself).
    """
    nb = num_buckets or adaptive_buckets()

    def explode_pos(t: pa.Table) -> pa.Table:
        H, starts, m = ngram_hashes(t[column], window)
        ids = t[id_column].to_numpy(zero_copy_only=False)
        doc = np.repeat(ids, m)
        total = len(H)
        pos = np.arange(total) - np.repeat(starts, m)
        return pa.table(
            {
                "_b": pa.array((H & np.uint64(nb - 1)).astype(np.int64)),
                "h": pa.array(H.view(np.int64)),
                id_column: pa.array(doc),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["h", id_column]].drop_duplicates()
        dup_h = d.loc[d["h"].duplicated(keep=False), "h"].unique()
        out = g[g["h"].isin(dup_h)]
        return out[[id_column, "pos"]]

    dup_pos = (
        ds.map_batches(explode_pos, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(dup_positions, batch_format="pandas")
    )

    # tagged union into document buckets: corpus rows carry text,
    # dup-position rows carry pos
    def tag_corpus(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table(
            {
                "_db": hash_bucket(ids, nb),
                id_column: pa.array(ids),
                column: t[column].cast(pa.string()),
                "pos": pa.array(np.full(n, -1, np.int64)),
            }
        )

    def tag_dups(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_db": hash_bucket(ids, nb),
                id_column: pa.array(ids),
                column: pa.nulls(t.num_rows, pa.string()),
                "pos": t["pos"],
            }
        )

    def cut_bucket(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["pos"] < 0]
        if not len(docs):
            return pd.DataFrame(
                {id_column: [], "clean_text": [], "n_kept": [], "kept_pos_sum": []}
            ).astype({id_column: "int64", "clean_text": "string",
                      "n_kept": "int64", "kept_pos_sum": "int64"})
        docs = docs.sort_values(id_column, kind="mergesort")
        texts = pa.array(docs[column].to_numpy(), pa.string())
        # same tokenization as the hashing pass (whitespace, empties
        # dropped) but ORIGINAL case kept for the output text
        la = pc.utf8_split_whitespace(texts)
        offsets = la.offsets.to_numpy().astype(np.int64)
        flat = la.flatten()
        nonempty = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        toks = flat.to_numpy(zero_copy_only=False)[nonempty]
        cum = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        cnt = cum[offsets[1:]] - cum[offsets[:-1]]
        starts = np.concatenate([[0], np.cumsum(cnt)])
        order = docs[id_column].to_numpy()
        # map dup (doc, pos) rows onto the flat token array
        dups = g[g["pos"] >= 0]
        diff = np.zeros(int(starts[-1]) + 1, np.int64)
        if len(dups):
            di = np.searchsorted(order, dups[id_column].to_numpy())
            p = dups["pos"].to_numpy()
            s = starts[di] + np.minimum(p, np.maximum(cnt[di] - 1, 0))
            e = starts[di] + np.minimum(p + window, cnt[di])
            np.add.at(diff, s, 1)
            np.add.at(diff, e, -1)
        masked = np.cumsum(diff[:-1]) > 0
        keep = ~masked
        # per-doc integer summaries via segment reduction
        local_pos = np.arange(int(starts[-1])) - np.repeat(starts[:-1], cnt)
        kinz = keep.astype(np.int64)
        # clip: a zero-token doc at the tail would index one past the
        # array end (its bogus read is zeroed by the empty fixup below)
        seg = np.minimum(starts[:-1], max(int(starts[-1]) - 1, 0))
        n_kept = (
            np.add.reduceat(kinz, seg) if len(toks) else np.zeros(len(cnt), np.int64)
        )
        pos_sum = (
            np.add.reduceat(kinz * local_pos, seg)
            if len(toks)
            else np.zeros(len(cnt), np.int64)
        )
        # empty-segment fixups: reduceat on zero-length segments reads
        # the next segment — zero them explicitly
        empty = cnt == 0
        n_kept[empty] = 0
        pos_sum[empty] = 0
        clean = [
            " ".join(toks[s : s + c][keep[s : s + c]])
            for s, c in zip(starts[:-1], cnt)
        ]
        return pd.DataFrame(
            {
                id_column: order,
                "clean_text": pd.array(clean, dtype="string"),
                "n_kept": n_kept,
                "kept_pos_sum": pos_sum,
            }
        )

    tagged = ds.map_batches(tag_corpus, batch_format="pyarrow").union(
        dup_pos.map_batches(tag_dups, batch_format="pyarrow")
    )
    return tagged.groupby("_db").map_groups(cut_bucket, batch_format="pandas")


def rep_signals_batch(
    t: pa.Table, id_column: str = "doc_id", column: str = "text"
) -> pa.Table:
    """Per-document repetition signals (Gopher-rule family), one batch:
    ``(id, n_tokens, n_distinct, top_token, top_bigram)`` — all int64.

    Tokenization is a single-space split with empties KEPT (matching
    ``string_split(text, ' ')`` in the SQL oracle byte-for-byte).
    Tokens are factorized once per batch; bigram counting runs on
    integer code pairs (``code_a · V + code_b``) so no bigram strings
    are ever built and everything is a pandas C groupby.
    """
    n = t.num_rows
    if n == 0:
        return pa.table(
            {
                id_column: pa.array([], t.schema.field(id_column).type),
                "n_tokens": pa.array([], pa.int64()),
                "n_distinct": pa.array([], pa.int64()),
                "top_token": pa.array([], pa.int64()),
                "top_bigram": pa.array([], pa.int64()),
            }
        )
    col = t[column].combine_chunks() if isinstance(t[column], pa.ChunkedArray) else t[column]
    la = pc.split_pattern(col, pattern=" ")
    offsets = la.offsets.to_numpy().astype(np.int64)
    cnt = np.diff(offsets)
    toks = la.flatten().to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(n), cnt)
    codes, uniques = pd.factorize(toks)
    V = np.int64(len(uniques))
    df = pd.DataFrame({"d": doc_of, "c": codes})
    n_distinct = df.groupby("d", sort=True)["c"].nunique().reindex(
        np.arange(n), fill_value=0
    )
    tok_counts = df.groupby(["d", "c"], sort=False).size()
    top_token = (
        tok_counts.groupby(level=0).max().reindex(np.arange(n), fill_value=0)
    )
    # bigram codes: pairs (codes[i], codes[i+1]) within the same doc
    same_doc = doc_of[:-1] == doc_of[1:] if len(doc_of) else np.zeros(0, bool)
    bg_key = codes[:-1].astype(np.int64) * V + codes[1:]
    bdf = pd.DataFrame({"d": doc_of[:-1][same_doc], "k": bg_key[same_doc]})
    if len(bdf):
        bg_counts = bdf.groupby(["d", "k"], sort=False).size()
        top_bigram = (
            bg_counts.groupby(level=0).max().reindex(np.arange(n), fill_value=0)
        )
    else:
        top_bigram = pd.Series(np.zeros(n, np.int64))
    return pa.table(
        {
            id_column: t[id_column],
            "n_tokens": pa.array(cnt, pa.int64()),
            "n_distinct": pa.array(n_distinct.to_numpy(np.int64), pa.int64()),
            "top_token": pa.array(top_token.to_numpy(np.int64), pa.int64()),
            "top_bigram": pa.array(top_bigram.to_numpy(np.int64), pa.int64()),
        }
    )
