"""Deduplication operators for the transcript/document lake.

Exact dedup: content-hash partition + per-group keep-first — one shuffle
on a fixed-width hash column (never on raw document text; the hash is
computed vectorized per batch so only int64s drive the exchange).

Near-dup families (MinHash+LSH, SimHash, n-gram Jaccard, embedding
cosine) live here too: shingle → minhash → band → bucket groupby is the
scale path (candidates only within identical LSH buckets; no all-pairs).
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from commons_codec_ray.util import adaptive_buckets, hash_bucket


def _crc32_column(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized 64-bit content hash (pandas' C siphash kernel — no
    Python loop over rows; deterministic across processes with the fixed
    default hash key). Name kept for history; only used to BUCKET rows
    for dedup, where the actual content is compared, so the hash function
    only affects locality, never correctness."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    h = pd.util.hash_array(texts.to_numpy(zero_copy_only=False))
    return pa.array(h.view(np.int64) & 0x7FFFFFFFFFFFFFFF)


def exact_dedup(ds, column: str = "text", order_by: str = "doc_id", num_buckets: int | None = None):
    """Exact dedup: keep the min-``order_by`` row per distinct ``column``.

    The shuffle key is a COARSE bucket of the content hash
    (``crc32(content) % num_buckets``), not the raw hash: rows with equal
    content land in the same bucket, and the per-group UDF runs once per
    bucket (vectorized pandas dedup inside) instead of once per distinct
    document — per-group invocation overhead is what kills a
    groupby-on-raw-hash at scale. Dedup compares the actual content, so
    crc collisions stay correct.
    """
    num_buckets = num_buckets or adaptive_buckets()

    def _bucketed_hash(t: pa.Table) -> pa.Table:
        h = _crc32_column(t[column])
        bucket = pc.bit_wise_and(h, num_buckets - 1) if (num_buckets & (num_buckets - 1)) == 0 else None
        if bucket is None:
            import numpy as np

            bucket = pa.array(h.to_numpy(zero_copy_only=False) % num_buckets)
        return t.append_column("_b", bucket)

    def _first(group: pa.Table) -> pa.Table:
        # Arrow-native group body (was pandas): rows — including the
        # wide text column — stay Arrow; only the order/key columns
        # materialize to numpy for the stable first-per-key pick
        ob = group[order_by].to_numpy(zero_copy_only=False)
        order = np.argsort(ob, kind="stable")
        key = group[column].to_numpy(zero_copy_only=False)[order]
        _, first = np.unique(key, return_index=True)
        return group.drop_columns(["_b"]).take(pa.array(np.sort(order[first])))

    return (
        ds.map_batches(_bucketed_hash, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(_first, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-duplicate detection
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")

_MERSENNE = (1 << 61) - 1


_R1 = np.uint64(0x9E3779B97F4A7C15)
_R2 = np.uint64(0xBF58476D1CE4E5B9)


class MinHasher:
    """Stateful map_batches stage: text → minhash signature + LSH band keys.

    Permutation parameters are built once per actor (``__init__``).
    The whole batch is vectorized end to end (VERDICT r2 #4 — measured
    2.1× over the per-doc loop at 50k docs, PERF.md): Arrow kernels
    lowercase + whitespace-tokenize every document at once, pandas'
    C siphash hashes the flat token array, k-gram shingle hashes are
    combined by offset arithmetic over that flat array (no per-doc
    string building), and the permutation minima are segment-reduced
    with ``np.minimum.reduceat`` — no Python loop over documents
    anywhere. Output adds ``band_{i}`` int64 columns (hash of each
    band) for the LSH bucket groupby.
    """

    def __init__(self, num_perm: int = 64, bands: int = 8, shingle_k: int = 3, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        # a < 2^31 keeps a*x + b < 2^63 + 2^61 for 32-bit shingle hashes,
        # so the affine hash never wraps uint64 before the % Mersenne —
        # wrapping silently breaks the universal-hash family guarantee
        self.a = rng.randint(1, 2**31, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)

    def _shingle_hashes(self, col) -> tuple[np.ndarray, np.ndarray]:
        """32-bit shingle hashes for every document in the column, flat,
        plus the start offset of each document's segment (every document
        owns ≥1 shingle, so ``np.minimum.reduceat`` segments are never
        empty). Shingle semantics match the old per-doc path: k
        consecutive whitespace tokens of the lowercased text; documents
        with < k tokens contribute one shingle over what they have."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        la = pc.utf8_split_whitespace(pc.utf8_lower(col))
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        offsets = la.offsets.to_numpy().astype(np.int64)
        flat = la.flatten()
        n = len(col)
        # split_whitespace emits empty strings at text edges — drop them
        # while keeping per-doc counts via a prefix sum over the mask
        nonempty = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        th_all = pd.util.hash_array(flat.to_numpy(zero_copy_only=False))
        cum = np.concatenate([[0], np.cumsum(nonempty.astype(np.int64))])
        cnt = cum[offsets[1:]] - cum[offsets[:-1]]
        H = th_all[nonempty]
        starts = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        N = len(H)
        k = self.shingle_k
        # distinct odd multiplier per shingle position (position 0 gets
        # weight 1) so permuted token orders hash differently; computed
        # for ANY k, not just the default 3
        muls = [np.uint64(1)]
        with np.errstate(over="ignore"):
            cur = np.uint64(1)
            for _ in range(k - 1):
                cur = cur * _R1 + _R2
                muls.append(cur | np.uint64(1))
            comb = np.zeros(N, dtype=np.uint64)
            for j_off in range(k):
                shifted = np.concatenate(
                    [H[j_off:], np.zeros(min(j_off, N), np.uint64)]
                ) if j_off else H
                comb = comb + muls[j_off] * shifted
        m = np.maximum(cnt - (k - 1), 1)
        out_starts = np.concatenate([[0], np.cumsum(m)])
        total = int(out_starts[-1])
        doc_of = np.repeat(np.arange(n), m)
        j = np.arange(total) - out_starts[doc_of]
        src = starts[doc_of] + j
        if N:
            S = comb[np.minimum(src, N - 1)]
        else:
            S = np.zeros(total, np.uint64)
        # < k tokens: ONE shingle over the tokens the doc has. Built
        # per-count (c tokens -> sum of the first c weighted hashes), so
        # a short doc can never fold in a NEIGHBOR document's tokens —
        # the full-width comb above would read past the doc's segment.
        sp = cnt < k
        if sp.any():
            sidx = out_starts[:-1][sp]
            s0 = starts[sp]
            c = cnt[sp]
            with np.errstate(over="ignore"):
                v = np.zeros(int(sp.sum()), dtype=np.uint64)
                for j_off in range(k - 1):
                    has = c >= j_off + 1
                    v[has] = v[has] + muls[j_off] * H[s0[has] + j_off]
            S[sidx] = v
        with np.errstate(over="ignore"):
            S = (S + _R1) * _R1
            S ^= S >> np.uint64(31)
            S = S * _R2
            S ^= S >> np.uint64(29)
        S &= np.uint64(0xFFFFFFFF)  # 32-bit bound for the affine hash
        return S, out_starts[:-1]

    def signatures(self, col) -> np.ndarray:
        """(n_docs, num_perm) minhash signatures for a string column."""
        return self.signatures_from(*self._shingle_hashes(col))

    def signatures_from(self, S: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Signatures from precomputed flat shingle hashes + segment
        starts (lets callers that also need the raw shingle sets — e.g.
        exact_jaccard_pairs — hash each document once)."""
        n = len(seg)
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        # perm-chunked so the (chunk, total_shingles) matrix stays small
        CH = 8
        for p0 in range(0, self.num_perm, CH):
            a = self.a[p0 : p0 + CH][:, None]
            b = self.b[p0 : p0 + CH][:, None]
            with np.errstate(over="ignore"):
                vals = (a * S[None, :] + b) % np.uint64(_MERSENNE)
            sigs[:, p0 : p0 + CH] = np.minimum.reduceat(vals, seg, axis=1).T
        return sigs

    def signature(self, text: str) -> np.ndarray:
        """Single-document convenience wrapper over the batch path."""
        return self.signatures(pa.array([text or ""]))[0]

    def band_keys(self, sigs: np.ndarray, b: int) -> np.ndarray:
        """Stable per-band bucket key, fully vectorized: a weighted fold
        of the band's minima, splitmix-finalized and truncated to 32 bits
        (low half) with the band index packed above — equal bands always
        collide, unequal bands collide with ~2^-32 probability, which the
        verify stage's real equality check already tolerates."""
        r = self.rows_per_band
        band = sigs[:, b * r : (b + 1) * r]
        with np.errstate(over="ignore"):
            k = np.zeros(band.shape[0], dtype=np.uint64)
            for c in range(r):
                k = (k + band[:, c]) * _R1
            k ^= k >> np.uint64(31)
            k = k * _R2
            k ^= k >> np.uint64(29)
        return (k & np.uint64(0xFFFFFFFF)).astype(np.int64) + (b << 32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.signatures(batch["text"])  # (n, num_perm)
        out = batch
        for b in range(self.bands):
            out = out.append_column(f"band_{b}", pa.array(self.band_keys(sigs, b)))
        # fixed-width binary, not list<uint64>: a hashable schema
        # (the list column's metadata made Ray's schema dedup warn) and
        # zero-copy from the contiguous sig matrix — no per-row tobytes.
        # Minima are TRUNCATED to uint32 for transport: equality of equal
        # minima is preserved exactly; unequal minima falsely match with
        # prob 2^-32 per permutation (can only nudge an estimate UP by
        # 1/num_perm with negligible probability) — and the verify stage
        # is memory-bandwidth-bound, so halving signature bytes halves
        # both the band-replicated shuffle and the verify gathers.
        sigs32 = (sigs & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        width = self.num_perm * 4
        sig_buf = pa.py_buffer(np.ascontiguousarray(sigs32).tobytes())
        out = out.append_column(
            "_sig",
            pa.Array.from_buffers(pa.binary(width), sigs.shape[0], [None, sig_buf]),
        )
        return out


def jaccard_pairs(
    ds,
    threshold: float = 0.7,
    hasher: MinHasher | None = None,
    id_column: str = "doc_id",
    num_buckets: int | None = None,
):
    """Near-dup pairs with estimated Jaccard ≥ threshold.

    LSH candidates → verify with the full minhash signatures. Signatures
    ride the candidate rows (broadcasting the signature table would not
    scale). The shuffle key is a COARSE bucket of the band key: the
    per-group UDF runs once per bucket and iterates only the bands with
    ≥2 members inside it — one groupby execution instead of one UDF call
    per LSH bucket.

    Pairs matched by several bands are emitted exactly once — at their
    MINIMAL matching band (the signatures needed for the check already
    ride the rows), so no second dedup shuffle is needed: ONE all-to-all
    total. A pair qualifies iff its signature bands are equal at the
    current band and at no earlier band (crc-collision candidates whose
    actual sig bands never match are dropped — banding is the contract).
    """
    num_buckets = num_buckets or adaptive_buckets()
    hasher = hasher or MinHasher()

    def explode_with_sig(batch: pa.Table) -> pa.Table:
        parts = []
        for b in range(hasher.bands):
            key = batch[f"band_{b}"]
            parts.append(
                pa.table(
                    {
                        "band_key": key,
                        "_b": pc.bit_wise_and(key, num_buckets - 1),
                        id_column: batch[id_column],
                        "_sig": batch["_sig"],
                    }
                )
            )
        return pa.concat_tables(parts)

    rows_per_band = hasher.rows_per_band
    n_bands = hasher.bands

    sig_width = hasher.num_perm * 4  # uint32-truncated minima, see MinHasher.__call__

    def verified_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
        n = group.num_rows
        if n < 2:
            return empty
        # Arrow-native on purpose: a pandas group would materialize every
        # 512-byte signature as a Python bytes object (measured: the
        # conversion + b"".join dominated the whole verify stage). The
        # fixed-width binary column's data buffer IS the (n, num_perm)
        # uint32 matrix — one zero-copy view, then ONE lexsort finds
        # every band bucket as a run.
        keys0 = group["band_key"].to_numpy(zero_copy_only=False)
        ids0 = group[id_column].to_numpy(zero_copy_only=False)
        sigs0 = _sig_matrix(group["_sig"], n, hasher.num_perm, sig_width)
        order = np.lexsort((ids0, keys0))
        keys, ids, sigs = keys0[order], ids0[order], sigs0[order]
        ia, ib = _run_pairs(keys)
        if len(ia) == 0:
            return empty
        est, band_eq = _sig_pair_stats(sigs[ia], sigs[ib], n_bands, rows_per_band)
        cur_b = (keys[ia] >> 32).astype(np.int64)  # band index packed in the key
        # minimal-matching-band rule: emit only where the sig bands are
        # equal at THIS band and at no earlier band
        keep = (est >= threshold) & band_eq[np.arange(len(ia)), cur_b]
        prior = np.arange(n_bands)[None, :] < cur_b[:, None]
        keep &= ~(band_eq & prior).any(axis=1)
        # ids ascend within a run, so ia < ib ⇒ id_a < id_b
        return pa.table(
            {"id_a": pa.array(ids[ia][keep]), "id_b": pa.array(ids[ib][keep]),
             "jaccard": pa.array(est[keep])}
        )

    sigs = ds.map_batches(hasher, batch_format="pyarrow", batch_size=4096)
    exploded = sigs.map_batches(explode_with_sig, batch_format="pyarrow")
    return exploded.groupby("_b").map_groups(verified_pairs, batch_format="pyarrow")


def lsh_params(
    threshold: float,
    num_perm: int = 64,
    fp_weight: float = 0.5,
    fn_weight: float = 0.5,
) -> tuple[int, int]:
    """Pick the (bands, rows_per_band) split of ``num_perm`` minhashes
    that minimizes the weighted false-positive + false-negative
    probability integrals of the LSH S-curve P(s) = 1 − (1 − s^r)^b
    around ``threshold`` — the standard tuning rule from the MinHash
    literature (as popularized by Mining of Massive Datasets / the
    datasketch library; numerical integration, no closed form).

    Returns ``(bands, rows_per_band)`` with ``bands · rows == num_perm``.
    Feed into ``MinHasher(num_perm=..., bands=...)``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    xs = np.linspace(0.0, 1.0, 501)
    best, best_err = None, float("inf")
    for b in range(1, num_perm + 1):
        if num_perm % b:
            continue
        r = num_perm // b
        p = 1.0 - (1.0 - xs**r) ** b
        below = xs < threshold
        # np.trapz was renamed np.trapezoid in NumPy 2.0
        _trapz = getattr(np, "trapezoid", getattr(np, "trapz", None))
        fp = _trapz(p[below], xs[below])  # collides though dissimilar
        fn = _trapz(1.0 - p[~below], xs[~below])  # misses though similar
        err = fp_weight * fp + fn_weight * fn
        if err < best_err:
            best, best_err = (b, r), err
    return best


def _fixed_binary(mat: np.ndarray, width: int) -> pa.Array:
    """(n, width/itemsize) contiguous matrix → fixed-width binary array,
    one buffer copy, no per-row tobytes."""
    buf = pa.py_buffer(np.ascontiguousarray(mat).tobytes())
    return pa.Array.from_buffers(pa.binary(width), mat.shape[0] if mat.ndim > 1 else len(mat), [None, buf])


def _sig_matrix(col, n: int, num_perm: int, sig_width: int) -> np.ndarray:
    """Zero-copy view of a fixed-width binary signature column as an
    (n, num_perm) uint32 matrix."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    buf = col.buffers()[-1]
    return np.frombuffer(
        buf, dtype=np.uint32, count=n * num_perm, offset=col.offset * sig_width
    ).reshape(n, -1)


def _run_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-run index pairs (ia < ib) of a sorted key array."""
    n = len(keys)
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    brk[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(brk)
    lens = np.diff(np.append(starts, n))
    ia_parts = [np.empty(0, dtype=np.int64)]
    ib_parts = [np.empty(0, dtype=np.int64)]
    two = starts[lens == 2]  # the dominant case, fully vectorized
    ia_parts.append(two)
    ib_parts.append(two + 1)
    for s, L in zip(starts[lens > 2], lens[lens > 2]):  # rare big buckets
        ti, tj = np.triu_indices(int(L), k=1)
        ia_parts.append(s + ti)
        ib_parts.append(s + tj)
    return np.concatenate(ia_parts), np.concatenate(ib_parts)


def _sig_pair_stats(sa: np.ndarray, sb: np.ndarray, n_bands: int, rows_per_band: int):
    """THE near-dup verification statistics, shared by the wide and
    narrow transports: per aligned pair row, the minhash
    component-agreement fraction (the Jaccard estimate) and the
    per-band full-equality matrix. A pair is verified iff
    est >= threshold AND band_eq.any(axis=1); keeping this in ONE place
    keeps the two transports' pair sets identical."""
    eqs = sa == sb  # (npairs, num_perm)
    return eqs.mean(axis=1), eqs.reshape(len(sa), n_bands, rows_per_band).all(axis=2)


def _var_binary_from_matrix(mat: np.ndarray, width: int) -> pa.Array:
    """(n, width/4) contiguous uint32 matrix → variable-width binary
    array with uniform ``width``-byte values; one buffer copy."""
    n = mat.shape[0]
    offsets = pa.py_buffer((np.arange(n + 1, dtype=np.int32) * width).tobytes())
    data = pa.py_buffer(np.ascontiguousarray(mat).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, offsets, data])


def _var_sig_matrix(col, num_perm: int) -> np.ndarray:
    """Variable-binary column whose values are ALL ``num_perm*4`` bytes
    (enforced by construction) → zero-copy (n, num_perm) uint32 view."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    if n == 0:
        return np.empty((0, num_perm), np.uint32)
    off0 = np.frombuffer(col.buffers()[1], np.int32, count=1, offset=col.offset * 4)[0]
    return np.frombuffer(
        col.buffers()[2], dtype=np.uint32, count=n * num_perm, offset=int(off0)
    ).reshape(n, -1)


def jaccard_pairs_narrow(
    ds,
    threshold: float = 0.7,
    hasher: MinHasher | None = None,
    id_column: str = "doc_id",
    num_buckets: int | None = None,
):
    """Byte-lean variant of :func:`jaccard_pairs` for bandwidth-bound
    configurations — IDENTICAL output (pairs with estimated Jaccard ≥
    threshold and at least one fully-equal signature band), different
    transport.

    Byte budget per document (64 perms → W = 256 B uint32 signature,
    8 bands, ids/keys 8 B each):

    - wide (``jaccard_pairs``): the signature rides EVERY band replica —
      one exchange of 8 × (W + 24 B) ≈ 2.2 KB/doc. One barrier, but the
      shuffle and the per-bucket gathers are memory-bandwidth-bound
      (measured 0.32 single-box 4→16 scaling on the verify leg).
    - narrow (this): candidate explode moves 8 × (24 B + 64 B all-band
      key vector) ≈ 0.7 KB/doc — the key vector is what lets each LSH
      bucket apply the minimal-matching-band rule LOCALLY, so every
      candidate pair enters the attach exchanges exactly once — then
      each signature moves twice keyed by doc id (2 × (W + 25) ≈ 0.5
      KB/doc) and once per candidate PAIR (W + 25 each). Pair rows
      before their signature attaches carry a ZERO-byte variable-width
      sig, never padding.

    Total narrow ≈ 1.2 KB/doc + 0.3 KB/pair vs wide's 2.2 KB/doc: ~2×
    fewer bytes whenever pairs ≲ docs (the LSH regime). On clique-heavy
    corpora (pairs ≫ docs) the per-pair term dominates and wide wins;
    at toy scale wide's single barrier also wins on fixed cost.

    Why a second transport is kept (it runs ``minhash_dedup_narrow``
    and ``bench.py --dedup-only`` with ``GRAFT_DEDUP_MODE=narrow``):
    on a 4-CPU box, the size of the boxes this repo runs on, narrow
    wins by 2.2-3× (PERF.md "Round-5: LSH pair transport crossover";
    ``bench.py --dedup-only``, LSH-regime corpus, pairs ≈ 0.16-0.28 ×
    docs, seconds wide vs narrow):

    =====  ====  ========  ===========================
    docs   cpus  docs/cpu  faster
    =====  ====  ========  ===========================
    800k   16    50k       wide   (18.7 vs 23.3 s)
    2.4M   16    150k      wide   (64.4 vs 117.5 s)
    800k   4     200k      narrow (39.7 vs 18.0 s)
    2.4M   4     600k      narrow (243.3 vs 80.3 s)
    =====  ====  ========  ===========================

    Wide's 4-CPU leg degrades super-linearly with corpus size (39.7 →
    243.3 s for 3× docs: its 2.2 KB/doc exchange outgrows the object
    store and spills) while narrow stays linear (18.0 → 80.3 s).
    ``near_dedup`` always runs wide: its inputs are far below the
    crossover, which lay between 150k and 200k docs per CPU.
    """
    num_buckets = num_buckets or adaptive_buckets()
    hasher = hasher or MinHasher()
    num_perm = hasher.num_perm
    sig_width = num_perm * 4
    n_bands = hasher.bands
    rows_per_band = hasher.rows_per_band
    allk_width = n_bands * 8

    sigs = ds.map_batches(hasher, batch_format="pyarrow", batch_size=4096)
    # consumed twice (candidate explode + signature attach) — materialize
    # so the minhash pass runs once; blocks spill under pressure
    sigs = sigs.select_columns([id_column, "_sig"] + [f"band_{b}" for b in range(n_bands)])
    sigs = sigs.materialize()

    # --- exchange 1: band explode (ids + all-band key vector) -------------
    def explode_light(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        kmat = np.column_stack(
            [batch[f"band_{b}"].to_numpy(zero_copy_only=False) for b in range(n_bands)]
        ).astype(np.int64)
        keys = kmat.T.reshape(-1)  # band-major, matches np.tile(ids)
        return pa.table(
            {
                "_cb": pa.array(keys & (num_buckets - 1)),
                "band_key": pa.array(keys),
                id_column: pa.array(np.tile(ids, n_bands), pa.int64()),
                "allk": _fixed_binary(
                    np.tile(kmat, (n_bands, 1)).view(np.uint32), allk_width
                ),
            }
        )

    def candidates(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        n = group.num_rows
        if n < 2:
            return empty
        keys0 = group["band_key"].to_numpy(zero_copy_only=False)
        ids0 = group[id_column].to_numpy(zero_copy_only=False)
        allk = _sig_matrix(group["allk"], n, n_bands * 2, allk_width).view(np.int64)
        order = np.lexsort((ids0, keys0))
        keys, ids, allk = keys0[order], ids0[order], allk[order]
        ia, ib = _run_pairs(keys)
        if not len(ia):
            return empty
        # minimal-matching-band rule on the key vectors: the SAME pair
        # surfaces in every band whose keys collide — only the bucket
        # holding the FIRST such band emits it, so the pair enters the
        # attach exchanges exactly once with no global dedup pass
        cur_b = (keys[ia] >> 32).astype(np.int64)
        eqk = allk[ia] == allk[ib]  # (m, n_bands)
        keep = eqk.argmax(axis=1) == cur_b  # eqk[cur_b] is True by construction
        a, b = ids[ia][keep], ids[ib][keep]  # ids ascend within runs
        return pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})

    cand = (
        sigs.map_batches(explode_light, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(candidates, batch_format="pyarrow")
    )

    # --- tagged-union rows for the two signature-attach exchanges ---------
    # sig is VARIABLE-width binary: sig rows carry the real W bytes, pair
    # rows carry ZERO bytes until their signature attaches — padding-free
    def sig_rows(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False)
        n = len(ids)
        return pa.table(
            {
                "_b": hash_bucket(ids, num_buckets),
                "a": pa.array(ids, pa.int64()),
                "b": pa.array(np.zeros(n, np.int64)),
                "sig": t["_sig"].cast(pa.binary()),
                "is_sig": pa.array(np.ones(n, bool)),
            }
        )

    def _empty_binary(n: int) -> pa.Array:
        offsets = pa.py_buffer(np.zeros(n + 1, np.int32).tobytes())
        return pa.Array.from_buffers(pa.binary(), n, [None, offsets, pa.py_buffer(b"")])

    def pair_rows(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        n = len(a)
        return pa.table(
            {
                "_b": hash_bucket(a, num_buckets),
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "sig": _empty_binary(n),
                "is_sig": pa.array(np.zeros(n, bool)),
            }
        )

    def _split(group: pa.Table):
        mask = group["is_sig"]
        sig_t = group.filter(mask)
        pair_t = group.filter(pc.invert(mask))
        sid = sig_t["a"].to_numpy(zero_copy_only=False)
        smat = _var_sig_matrix(sig_t["sig"], num_perm)
        s_order = np.argsort(sid, kind="stable")
        return sid[s_order], smat[s_order], pair_t

    def attach_a(group: pa.Table) -> pa.Table:
        sid, smat, pair_t = _split(group)
        pa_ = pair_t["a"].to_numpy(zero_copy_only=False)
        pb = pair_t["b"].to_numpy(zero_copy_only=False)
        if not len(pa_):
            return pa.table(
                {
                    "_b": pa.array([], pa.int64()),
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.binary()),
                    "is_sig": pa.array([], pa.bool_()),
                }
            )
        sig_a = smat[np.searchsorted(sid, pa_)]
        return pa.table(
            {
                "_b": hash_bucket(pb, num_buckets),
                "a": pa.array(pa_, pa.int64()),
                "b": pa.array(pb, pa.int64()),
                "sig": _var_binary_from_matrix(sig_a, sig_width),
                "is_sig": pa.array(np.zeros(len(pa_), bool)),
            }
        )

    def attach_b_verify(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
        sid, smat, pair_t = _split(group)
        pa_ = pair_t["a"].to_numpy(zero_copy_only=False)
        pb = pair_t["b"].to_numpy(zero_copy_only=False)
        if not len(pa_) or not len(sid):
            return empty
        sig_a = _var_sig_matrix(pair_t["sig"], num_perm)
        sig_b = smat[np.searchsorted(sid, pb)]
        est, band_eq = _sig_pair_stats(sig_a, sig_b, n_bands, rows_per_band)
        keep = (est >= threshold) & band_eq.any(axis=1)
        return pa.table(
            {"id_a": pa.array(pa_[keep]), "id_b": pa.array(pb[keep]),
             "jaccard": pa.array(est[keep])}
        )

    # --- exchange 2: attach sig(id_a) --------------------------------------
    with_a = (
        sigs.map_batches(sig_rows, batch_format="pyarrow")
        .union(cand.map_batches(pair_rows, batch_format="pyarrow"))
        .groupby("_b")
        .map_groups(attach_a, batch_format="pyarrow")
    )
    # --- exchange 3: attach sig(id_b), verify ------------------------------
    return (
        sigs.map_batches(sig_rows, batch_format="pyarrow")
        .union(with_a)
        .groupby("_b")
        .map_groups(attach_b_verify, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def exact_jaccard_pairs(
    ds,
    threshold: float = 0.7,
    hasher: MinHasher | None = None,
    id_column: str = "doc_id",
    num_buckets: int | None = None,
):
    """Near-dup pairs with EXACT n-gram (shingle) Jaccard ≥ threshold.

    Same LSH banding as :func:`jaccard_pairs` generates the candidates
    (no all-pairs), but verification computes the TRUE Jaccard of the
    two documents' shingle-hash SETS (|A∩B| / |A∪B|) instead of the
    minhash estimate — the "n-gram Jaccard" dedup family, used when
    estimator noise at the threshold boundary is unacceptable. Costs:
    each exploded row carries the doc's sorted-unique shingle set
    (list<uint64>) instead of a fixed 512-byte signature, so transport
    grows with document length; candidate recall is still bounded by the
    banding (a pair no band catches is never verified — inherent to LSH).

    One big all-to-all (band-bucket groupby) + one small dedup shuffle
    over the verified pair set (pairs matched by several bands emit once).
    """
    hasher = hasher or MinHasher()
    num_buckets = num_buckets or adaptive_buckets()

    def explode_with_sets(batch: pa.Table) -> pa.Table:
        S, seg = hasher._shingle_hashes(batch["text"])
        sigs = hasher.signatures_from(S, seg)
        n = batch.num_rows
        seg_all = np.append(seg, len(S))
        # per-doc sorted-unique shingle sets as ONE flat buffer + offsets
        uniq_parts = [np.unique(S[seg_all[i] : seg_all[i + 1]]) for i in range(n)]
        lens = np.fromiter((len(u) for u in uniq_parts), dtype=np.int64, count=n)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        values = pa.array(
            np.concatenate(uniq_parts) if n else np.array([], np.uint64), type=pa.uint64()
        )
        sets = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)
        ids = batch[id_column]
        parts = []
        for b in range(hasher.bands):
            key = pa.array(hasher.band_keys(sigs, b))
            parts.append(
                pa.table(
                    {
                        "band_key": key,
                        "_b": pc.bit_wise_and(key, num_buckets - 1),
                        id_column: ids,
                        "_shingles": sets,
                    }
                )
            )
        return pa.concat_tables(parts)

    def verified(group: pa.Table) -> pa.Table:
        # Arrow-native group body (was pandas): the list<uint64> shingle
        # sets are read as ONE flat values buffer + offsets instead of
        # per-row numpy objects — the Arrow→pandas conversion of exactly
        # that column dominated the old path
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
        n = group.num_rows
        if n < 2:
            return empty
        keys = group["band_key"].to_numpy(zero_copy_only=False)
        ids = group[id_column].to_numpy(zero_copy_only=False)
        sh = group["_shingles"].combine_chunks()
        offs = sh.offsets.to_numpy().astype(np.int64)
        vals = sh.values.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, n))
        out_a, out_b, out_j = [], [], []
        for s, L in zip(starts[lens >= 2], lens[lens >= 2]):
            for x in range(int(L) - 1):
                ox = order[s + x]
                a = vals[offs[ox] : offs[ox + 1]]
                for y in range(x + 1, int(L)):
                    oy = order[s + y]
                    bset = vals[offs[oy] : offs[oy + 1]]
                    inter = np.intersect1d(a, bset, assume_unique=True).size
                    union = a.size + bset.size - inter
                    j = inter / union if union else 0.0
                    if j >= threshold:
                        out_a.append(int(ids[s + x]))
                        out_b.append(int(ids[s + y]))
                        out_j.append(j)
        if not out_a:
            return empty
        ia = np.asarray(out_a)
        ib = np.asarray(out_b)
        lo = np.minimum(ia, ib)
        hi = np.maximum(ia, ib)
        return pa.table(
            {"id_a": pa.array(lo), "id_b": pa.array(hi), "jaccard": pa.array(out_j)}
        )

    def dedupe_pairs(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        keep = np.empty(len(order), dtype=bool)
        keep[0:1] = True
        keep[1:] = (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1])
        return t.drop_columns(["_pb"]).take(pa.array(np.sort(order[keep])))

    def pair_bucket(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            k = (a * _R1) ^ (b * _R2)
        return t.append_column(
            "_pb", pa.array((k & np.uint64(num_buckets - 1)).astype(np.int64))
        )

    sigs = ds.map_batches(explode_with_sets, batch_format="pyarrow", batch_size=4096)
    pairs = sigs.groupby("_b").map_groups(verified, batch_format="pyarrow")
    # pairs matched by several bands appear once per matching band —
    # tiny second shuffle over the verified pair set dedupes them
    return (
        pairs.map_batches(pair_bucket, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(dedupe_pairs, batch_format="pyarrow")
    )


def near_dedup(
    ds,
    threshold: float = 0.7,
    hasher: MinHasher | None = None,
    id_column: str = "doc_id",
    max_driver_pairs: int = 2_000_000,
    keep_by: tuple[str, str] | None = None,
):
    """Near-duplicate removal: MinHash+LSH pairs → clusters → one
    survivor per cluster. Returns the surviving Dataset.

    Survivor policy: by default the min-id member. ``keep_by=(column,
    "max"|"min")`` keeps the best member by that score column instead
    (ties broken by min id) — the "keep the highest-quality page of the
    mirror set" rule of crawl curation.

    Clusters come from :func:`~commons_codec_ray.stages.graph.components_sharded`
    (min id per connected component of the pair graph). The pair count
    decides only how losers are removed: ≤ ``max_driver_pairs`` (the
    common case: pairs ≈ true near-dups ≪ corpus) the pairs come to the
    driver as one ``pa.Table``, are clustered there by a pool of one,
    and the losers are broadcast as a set; above the guard the pairs
    stay a Dataset, and losers are removed with a bucketed anti-join —
    nothing corpus-sized ever lands on the driver. With ``keep_by``,
    scores reach the small clusters table via one member-filtered scan
    (driver path) or a bucketed hash join (distributed path) — never
    the reverse.
    """
    import ray

    from commons_codec_ray.stages.graph import components_sharded

    if keep_by is not None:
        assert keep_by[1] in ("min", "max"), keep_by
    pairs_ds = jaccard_pairs(ds, threshold=threshold, hasher=hasher, id_column=id_column)
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return ds  # no pair, no loser, on either path
    if n_pairs <= max_driver_pairs:
        clusters = components_sharded(pa.concat_tables(ray.get(pairs_ds.to_arrow_refs())))
        if keep_by is None:
            losers = _non_min_members(clusters)
        else:
            losers = _driver_losers_by_score(ds, clusters.to_pandas(), id_column, keep_by)
        return _drop_ids(ds, losers, id_column)
    clusters_ds = components_sharded(pairs_ds).map_batches(
        lambda t: t.rename_columns(["doc_id", "cluster_id"]),
        batch_format="pyarrow",
    )
    if keep_by is None:
        losers_ds = clusters_ds.map_batches(
            lambda t: t.filter(
                pc.not_equal(t["doc_id"], t["cluster_id"])
            ).select(["doc_id"]),
            batch_format="pyarrow",
        )
    else:
        losers_ds = _distributed_losers_by_score(ds, clusters_ds, id_column, keep_by)
    return _anti_join(ds, losers_ds, id_column)


def _non_min_members(clusters: pa.Table) -> set:
    """Every clustered id that is not its cluster's min id: the losers
    of the default survivor policy."""
    node = clusters["node"].to_numpy()
    return set(node[node != clusters["cluster_id"].to_numpy()].tolist())


def _drop_ids(ds, ids: set, id_column: str):
    """``ds`` without the rows whose id is in ``ids``, a driver-side set
    broadcast to every batch."""
    if not ids:
        return ds
    id_arr = pa.array(sorted(ids), type=pa.int64())
    return ds.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t[id_column], value_set=id_arr))),
        batch_format="pyarrow",
    )


def _driver_losers_by_score(ds, clusters: pd.DataFrame, id_column: str, keep_by) -> set:
    """Driver-path keep-best: fetch (id, score) for CLUSTERED docs only
    (one broadcast-filtered scan; bounded by the pair guard), pick the
    best-scored member per cluster, losers are the rest."""
    col, direction = keep_by
    cl_map = clusters.set_index("node")["cluster_id"]
    if cl_map.empty:  # no pairs: the scan below would come back column-less
        return set()
    member_arr = pa.array(sorted(cl_map.index.tolist()), type=pa.int64())
    scores = ds.map_batches(
        lambda t: t.filter(pc.is_in(t[id_column], value_set=member_arr)).select(
            [id_column, col]
        ),
        batch_format="pyarrow",
    ).to_pandas()
    scores["cluster_id"] = scores[id_column].map(cl_map)
    scores = scores.sort_values(
        ["cluster_id", col, id_column],
        ascending=[True, direction == "min", True],
        kind="mergesort",
    )
    winners = set(scores.drop_duplicates("cluster_id", keep="first")[id_column])
    return set(cl_map.index) - winners


def _distributed_losers_by_score(ds, clusters_ds, id_column: str, keep_by):
    """Distributed keep-best: hash-join scores onto the clusters table
    (both sides bucketed on doc id — the clusters table is
    pairs-bounded, never corpus-sized), then one bucketed groupby on
    cluster id emits each cluster's non-winners. Whole clusters
    co-locate because the bucket key is cluster_id."""
    from commons_codec_ray.stages.joins import hash_join

    col, direction = keep_by
    score_ds = ds.map_batches(
        lambda t: t.select([id_column, col]), batch_format="pyarrow"
    )
    scored = hash_join(clusters_ds, score_ds, on=id_column)
    num_buckets = adaptive_buckets()

    def tag(t: pa.Table) -> pa.Table:
        keys = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_cb", hash_bucket(keys, num_buckets))

    ascending = direction == "min"

    def losers_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(
            ["cluster_id", col, id_column],
            ascending=[True, ascending, True],
            kind="mergesort",
        )
        is_winner = ~g["cluster_id"].duplicated(keep="first")
        return g.loc[~is_winner, [id_column]].rename(columns={id_column: "doc_id"})

    return (
        scored.map_batches(tag, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(losers_bucket, batch_format="pandas")
    )


def _anti_join(ds, losers_ds, id_column: str, num_buckets: int | None = None):
    """Remove rows whose id appears in ``losers_ds`` (column ``doc_id``)
    without driver materialization: bucket both sides by id hash, drop
    inside each bucket group. Loser rows are null-padded to the corpus
    schema so the union is schema-stable."""
    num_buckets = num_buckets or adaptive_buckets()
    try:
        corpus_schema = ds.schema().base_schema
    except Exception:
        # Ray 2.49's planner can't plan limit(1) over a union (schema()
        # does that internally); pull one streamed batch instead.
        corpus_schema = next(
            iter(ds.iter_batches(batch_size=1, batch_format="pyarrow"))
        ).schema

    def tag_corpus(t: pa.Table) -> pa.Table:
        b = hash_bucket(
            t[id_column].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False),
            num_buckets,
        )
        return t.append_column("_ab", b).append_column(
            "_loser", pa.array(np.zeros(t.num_rows, dtype=bool))
        )

    def tag_losers(t: pa.Table) -> pa.Table:
        cols = {}
        for f in corpus_schema:
            if f.name == id_column:
                cols[f.name] = t["doc_id"].combine_chunks().cast(f.type)
            else:
                cols[f.name] = pa.nulls(t.num_rows, f.type)
        out = pa.table(cols)
        b = hash_bucket(
            out[id_column].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False),
            num_buckets,
        )
        return out.append_column("_ab", b).append_column(
            "_loser", pa.array(np.ones(t.num_rows, dtype=bool))
        )

    def drop(group: pd.DataFrame) -> pd.DataFrame:
        bad = set(group.loc[group["_loser"], id_column])
        keep = group[~group["_loser"] & ~group[id_column].isin(bad)]
        return keep.drop(columns=["_ab", "_loser"])

    tagged = ds.map_batches(tag_corpus, batch_format="pyarrow").union(
        losers_ds.map_batches(tag_losers, batch_format="pyarrow")
    )
    return tagged.groupby("_ab").map_groups(drop, batch_format="pandas")


class SimHasher:
    """64-bit SimHash over token crc32-derived hashes; vectorized per batch."""

    def __init__(self, bits: int = 64, seed: int = 11):
        self.bits = bits
        rng = np.random.RandomState(seed)
        # one 64-bit mix per token is derived by splitmix-style re-hash
        self.salt = np.uint64(rng.randint(1, 2**63 - 1, dtype=np.int64))

    def simhash(self, text: str) -> int:
        toks = _TOKEN_RE.findall((text or "").lower())
        if not toks:
            return 0
        h = np.fromiter((zlib.crc32(t.encode()) for t in toks), dtype=np.uint64, count=len(toks))
        # expand 32-bit crc to 64 bits deterministically
        h = (h * np.uint64(0x9E3779B97F4A7C15) + self.salt) & np.uint64(0xFFFFFFFFFFFFFFFF)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        votes = (2 * bits - 1).sum(axis=0)
        return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = np.fromiter(
            (self.simhash(t) for t in batch["text"].to_pylist()),
            dtype=np.uint64,
            count=batch.num_rows,
        )
        return batch.append_column("simhash", pa.array(vals.astype(np.int64)))


def semdedup(
    ds,
    k: int = 4,
    iterations: int = 3,
    threshold: float = 0.35,
    id_column: str = "vec_id",
    column: str = "embedding",
    init: str = "low_ids",
    seed: int = 7,
):
    """SemDeDup-style semantic deduplication (public method: Abbas et
    al. 2023, arXiv:2303.09540 — cluster the embedding space, then
    prune near-duplicates WITHIN each cluster only): the sixth dedup
    family next to exact / MinHash / SimHash / n-gram Jaccard /
    global embedding-cosine (``q_embed_dedup``).

    Clustering turns the O(n²) all-pairs cosine problem into k
    independent O((n/k)²) problems. Engine shape:

    - centroids come from the exact fixed-point :func:`kmeans_lloyd`
      (no shuffle; kilobyte k×(dims+1) partials per batch);
    - the final assignment is ONE linear ``map_batches`` pass against
      the broadcast centroid matrix (``ray.put`` once, read per task);
    - the per-cluster prune is ONE cid-keyed exchange with a
      vectorized normalized-matmul cosine per group.

    At 100 TB scale k grows with the corpus so n/k stays worker-sized
    (the published configuration uses 50k clusters on LAION); the
    within-cluster all-pairs therefore stays bounded, and the single
    exchange is the only all-to-all. Keep rule (deterministic,
    order- and block-layout-invariant, matching ``q_embed_dedup``'s
    convention): a vector is dropped iff a smaller-id vector in the
    SAME cluster has cosine ≥ ``threshold`` — i.e. the SQL
    ``NOT EXISTS`` semantics, replayable by an oracle that unrolls the
    same integer k-means iterations.

    ``init="kmeans_par"`` swaps the deterministic low-id seeding for
    the k-means|| sweep (better cluster quality on adversarial
    layouts; gate with :func:`~...kmeans.inertia` instead of a
    bit-exact SQL replay) — the production path when k is scaled with
    the corpus (the published SemDeDup config uses 50k clusters).
    """
    import ray

    from commons_codec_ray.stages.kmeans import _quantize, kmeans_lloyd

    cent = kmeans_lloyd(
        ds,
        k=k,
        iterations=iterations,
        id_column=id_column,
        column=column,
        init=init,
        seed=seed,
    )
    cid = cent["cid"].to_numpy(zero_copy_only=False)
    dim = cent["dim"].to_numpy(zero_copy_only=False)
    k_eff = int(cid.max()) + 1
    dims = int(dim.max()) + 1
    cents = np.zeros((k_eff, dims), np.int64)
    cents[cid, dim] = cent["cval"].to_numpy(zero_copy_only=False)
    cref = ray.put(cents)

    def assign(t: pa.Table, _cref=cref) -> pa.Table:
        c = ray.get(_cref)
        emb = t[column]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        x = _quantize(np.stack(emb.to_numpy(zero_copy_only=False)))
        # exact int64 squared distances; first argmin → lowest cid on ties,
        # mirroring the oracle's ORDER BY d, cid
        d2 = (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return pa.table(
            {
                "cid": pa.array(d2.argmin(axis=1).astype(np.int64)),
                id_column: t[id_column].cast(pa.int64()),
                column: emb,
            }
        )

    def prune(group: pa.Table) -> pa.Table:
        ids = group[id_column].to_numpy(zero_copy_only=False)
        emb = group[column]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        m = np.stack(emb.to_numpy(zero_copy_only=False)).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        order = np.argsort(ids, kind="stable")
        m, ids_s = m[order], ids[order]
        # rows sorted by id → "some smaller-id neighbor ≥ threshold" is
        # exactly the strict lower triangle of the hit matrix
        drop = np.tril(m @ m.T >= threshold, k=-1).any(axis=1)
        keep = ids_s[~drop]
        return pa.table(
            {
                "cid": pa.array(
                    np.full(len(keep), int(group["cid"][0].as_py()), np.int64)
                ),
                id_column: pa.array(keep, pa.int64()),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cid")
        .map_groups(prune, batch_format="pyarrow")
    )
