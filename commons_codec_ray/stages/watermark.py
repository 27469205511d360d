"""Bounded-lateness (watermark) filtering for out-of-order streams.

Streaming systems admit late data only up to an *allowed lateness*
behind the high watermark — the running maximum sequence number (or
event time) observed so far in ARRIVAL order; anything older is
dropped (Flink/Beam semantics; the reference's single-threaded relay
never reorders, so its watermark is trivially the last row —
/root/reference/src/commons_codec/transform — while a distributed
ingest must reconstruct it).

The running maximum over arrival order is a prefix scan. Distributed
as a *segmented scan*, the classic two-phase decomposition:

1. Range-bucket rows by arrival key (contiguous buckets, so "all
   earlier buckets" is well defined). Two bucketing modes:
   ``linear`` splits the [key_lo, key_hi) span into equal widths —
   balanced when arrival keys are near-uniform, as they are for dense
   sequence numbers; ``quantile`` draws a bounded per-block sample of
   arrival keys in one cheap pass and cuts at empirical quantiles, so
   buckets stay balanced under ANY key distribution (bursty ingest,
   sparse timestamp keys). Bucket boundaries never change the result
   (tested) — only balance and parallelism.
2. A lightweight pre-pass computes max(seq) per bucket (one tiny
   ``groupby().aggregate(Max)``; kilobytes collected on the driver),
   the driver takes the EXCLUSIVE prefix max across buckets, and the
   per-bucket carry array (num_buckets int64s) is captured by the
   second pass.
3. One keyed exchange co-locates each bucket; inside a bucket the
   strict-prefix max is a vectorized ``np.maximum.accumulate`` over
   rows sorted by (arrival, seq), combined with the carried
   cross-bucket max.

The watermark for a row is defined over rows with STRICTLY SMALLER
(arrival, seq) key — not row position — which makes the result
independent of duplicate deliveries: a byte-identical duplicate shares
its original's key, contributes the same seq, and ``seq >= wm - lag``
can never be flipped by the row's own seq entering the prefix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Max

_NEG_INF = np.int64(np.iinfo(np.int64).min)


def _bucketize(arrival_col: str, key_lo: int, key_hi: int, num_buckets: int):
    span = max(int(key_hi) - int(key_lo), 1)

    def fn(t: pa.Table) -> pa.Table:
        a = t[arrival_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (a - np.int64(key_lo)) * np.int64(num_buckets) // np.int64(span)
        b = np.clip(b, 0, num_buckets - 1)
        return t.append_column("_wb", pa.array(b, pa.int64()))

    return fn


def _bucketize_cuts(arrival_col: str, cuts: np.ndarray):
    def fn(t: pa.Table) -> pa.Table:
        a = t[arrival_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.searchsorted(cuts, a, side="right")
        return t.append_column("_wb", pa.array(b.astype(np.int64), pa.int64()))

    return fn


def _quantile_cuts(
    src: rd.Dataset,
    arrival_col: str,
    num_buckets: int,
    per_block: int = 256,
    driver_cap: int = 1 << 20,
) -> np.ndarray:
    """Interior cut points at empirical arrival-key quantiles from ONE
    pass over ``src``: each block contributes at most ``per_block``
    evenly-spaced order statistics of its own keys (kilobytes per
    block), the driver pools and cuts. Equal per-block weight slightly
    biases boundaries when block sizes vary — fine for load balance,
    which is all boundaries affect. Ties collapse via np.unique, so
    heavily repeated keys yield fewer, wider buckets (never wrong)."""

    def samp(t: pa.Table) -> pa.Table:
        a = np.sort(t[arrival_col].to_numpy(zero_copy_only=False).astype(np.int64))
        if len(a) == 0:
            return pa.table({"_s": pa.array([], pa.int64())})
        k = min(len(a), per_block)
        idx = np.linspace(0, len(a) - 1, k).astype(np.int64)
        return pa.table({"_s": pa.array(a[idx], pa.int64())})

    s = np.sort(
        src.map_batches(samp, batch_format="pyarrow").to_pandas()["_s"].to_numpy(np.int64)
    )
    if len(s) == 0:
        return np.empty(0, np.int64)
    if len(s) > driver_cap:
        s = s[np.linspace(0, len(s) - 1, driver_cap).astype(np.int64)]
    cuts = s[np.linspace(0, len(s) - 1, num_buckets + 1).astype(np.int64)][1:-1]
    return np.unique(cuts)


def forward_fill(
    ds: rd.Dataset,
    *,
    order_col: str,
    tiebreak_col: str,
    value_col: str,
    out_col: str = "filled",
    num_buckets: Optional[int] = None,
    seq_source: Optional[rd.Dataset] = None,
) -> rd.Dataset:
    """Global last-observation-carried-forward over a TOTAL order —
    ``last_value(value IGNORE NULLS) OVER (ORDER BY order, tiebreak)``
    distributed as a segmented scan (same two-phase decomposition as
    :func:`bounded_lateness_filter`, different carried statistic):

    1. Range-bucket rows by ``order_col`` at sampled empirical
       quantiles (:func:`_quantile_cuts`; contiguous half-open ranges,
       so "all earlier buckets" is well defined and bucket order is key
       order).
    2. Pre-pass: each batch emits, per bucket it touches, the value at
       its lexicographically largest non-null ``(order, tiebreak)`` row
       — a few rows per block, kilobytes on the driver. The driver
       reduces per bucket and takes the EXCLUSIVE prefix: ``carry[b]``
       is the value of the last non-null observation in any bucket
       ``< b`` (or null when none exists).
    3. One keyed exchange co-locates each bucket; inside, the fill is a
       vectorized index trick over rows sorted by ``(order, tiebreak)``
       seeded with the carry.

    ``order_col`` and ``tiebreak_col`` must be int64-coercible and the
    pair must be unique per row (a timestamp + a unique id).
    ``value_col`` is a nullable integer observation column; rows before
    the first observation stay null. ``seq_source``: as in
    :func:`bounded_lateness_filter`, an optional column-pruned source
    for the sampling/pre-pass when ``ds`` is an expensive lazy pipeline.

    The reference's relay never reorders or fills
    (/root/reference/src/commons_codec/transform) — this is the
    distributed gap-repair stage a 100 TB ingest needs in front of it.
    """
    from commons_codec_ray.util import adaptive_buckets

    src = seq_source if seq_source is not None else ds
    if num_buckets is None:
        num_buckets = adaptive_buckets()
    cuts = _quantile_cuts(src, order_col, num_buckets)
    num_buckets = len(cuts) + 1
    bucketize = _bucketize_cuts(order_col, cuts)

    def partial(t: pa.Table) -> pa.Table:
        # drop nulls in Arrow: a nullable int64 column would come out of
        # to_numpy as float64 and round values at or beyond 2^53
        t2 = bucketize(t)
        t2 = t2.filter(pc.is_valid(t2[value_col]))
        if t2.num_rows == 0:
            empty = pa.array([], pa.int64())
            return pa.table({"_wb": empty, "_o": empty, "_t": empty, "_v": empty})
        o = t2[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        tb = t2[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t2["_wb"].to_numpy()
        vv = t2[value_col].to_numpy(zero_copy_only=False)
        idx = np.lexsort((tb, o, b))
        b_s = b[idx]
        last = np.nonzero(np.r_[b_s[1:] != b_s[:-1], True])[0]
        sel = idx[last]
        return pa.table(
            {
                "_wb": pa.array(b[sel], pa.int64()),
                "_o": pa.array(o[sel], pa.int64()),
                "_t": pa.array(tb[sel], pa.int64()),
                "_v": pa.array(vv[sel].astype(np.int64), pa.int64()),
            }
        )

    parts = src.map_batches(partial, batch_format="pyarrow").to_pandas()
    # per-bucket lexmax across block partials, then exclusive prefix carry
    bucket_val: dict[int, tuple[int, int, int]] = {}
    for b, o, tb, v in parts.itertuples(index=False):
        cur = bucket_val.get(int(b))
        if cur is None or (int(o), int(tb)) > (cur[0], cur[1]):
            bucket_val[int(b)] = (int(o), int(tb), int(v))
    carry_val = np.zeros(num_buckets, np.int64)
    carry_has = np.zeros(num_buckets, bool)
    run_v, run_has = 0, False
    for b in range(num_buckets):
        carry_val[b], carry_has[b] = run_v, run_has
        if b in bucket_val:
            run_v, run_has = bucket_val[b][2], True

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["_wb"].iloc[0])
        o = df[order_col].to_numpy(np.int64)
        tb = df[tiebreak_col].to_numpy(np.int64)
        order = np.lexsort((tb, o))
        v = df[value_col].to_numpy(object)[order]
        nn = pd.notna(v)
        n = len(v)
        idx = np.where(nn, np.arange(1, n + 1), 0)
        run = np.maximum.accumulate(idx)
        filled = np.empty(n, object)
        hit = run > 0
        filled[hit] = v[run[hit] - 1]
        filled[~hit] = int(carry_val[b]) if carry_has[b] else None
        out = np.empty(n, object)
        out[order] = filled
        res = df.drop(columns=["_wb", value_col]).copy()
        res[out_col] = pd.array(out, dtype="Int64")
        return res

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(fill, batch_format="pandas")
    )


def running_sum(
    ds: rd.Dataset,
    *,
    order_col: str,
    tiebreak_col: str,
    value_col: str,
    out_col: str = "running",
    num_buckets: Optional[int] = None,
    seq_source: Optional[rd.Dataset] = None,
) -> rd.Dataset:
    """Global running total over a TOTAL order —
    ``sum(value) OVER (ORDER BY order, tiebreak)`` as the third member
    of the segmented-scan family (:func:`bounded_lateness_filter`
    carries a prefix MAX, :func:`forward_fill` a last-observation; the
    carried monoid here is SUM):

    1. Quantile range-bucket on ``order_col`` (contiguous half-open
       ranges → bucket order is key order).
    2. Pre-pass: ONE tiny ``groupby().aggregate(Sum)`` of the value per
       bucket; the driver takes the EXCLUSIVE prefix sum as the
       per-bucket carry (num_buckets int64s).
    3. One keyed exchange co-locates each bucket; inside, the running
       total is ``np.cumsum`` over rows sorted by ``(order, tiebreak)``
       plus the carry.

    ``value_col`` must be int64 (exact-integer lanes only — a float
    running sum is order-dependent and not SQL-replayable). The
    ``(order, tiebreak)`` pair must be unique per row."""
    from ray.data.aggregate import Sum

    from commons_codec_ray.util import adaptive_buckets

    src = seq_source if seq_source is not None else ds
    if num_buckets is None:
        num_buckets = adaptive_buckets()
    cuts = _quantile_cuts(src, order_col, num_buckets)
    num_buckets = len(cuts) + 1
    bucketize = _bucketize_cuts(order_col, cuts)

    rows = (
        src.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .aggregate(Sum(value_col))
        .take_all()
    )
    bucket_sum = np.zeros(num_buckets, np.int64)
    for r in rows:
        bucket_sum[int(r["_wb"])] = np.int64(r[f"sum({value_col})"])
    carry = np.zeros(num_buckets, np.int64)
    if num_buckets > 1:
        carry[1:] = np.cumsum(bucket_sum[:-1])

    def scan_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["_wb"].iloc[0])
        o = df[order_col].to_numpy(np.int64)
        tb = df[tiebreak_col].to_numpy(np.int64)
        v = df[value_col].to_numpy(np.int64)
        order = np.lexsort((tb, o))
        run_sorted = np.cumsum(v[order]) + carry[b]
        run = np.empty(len(v), np.int64)
        run[order] = run_sorted
        out = df.drop(columns=["_wb"]).copy()
        out[out_col] = run
        return out

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(scan_bucket, batch_format="pandas")
    )


def bounded_lateness_filter(
    ds: rd.Dataset,
    *,
    arrival_col: str,
    seq_col: str,
    allowed_lag: int,
    key_lo: Optional[int] = None,
    key_hi: Optional[int] = None,
    seq_source: Optional[rd.Dataset] = None,
    num_buckets: Optional[int] = None,
    emit: str = "kept",
    bucketing: str = "linear",
) -> rd.Dataset:
    """Keep rows with ``seq >= high_watermark - allowed_lag``.

    ``emit='dropped'`` inverts the filter and returns the REJECTED rows
    instead — the observability side (what did the watermark refuse?).

    ``high_watermark`` for a row is max(seq) over all rows strictly
    earlier in arrival order (ordered by ``(arrival_col, seq_col)``).
    The first-arriving row has no watermark and is always kept.

    ``seq_source``: optional cheap Dataset with the SAME
    (arrival_col, seq_col) values, used for the bucket-max pre-pass.
    Pass a column-pruned source read when ``ds`` is an expensive lazy
    pipeline — consuming ``ds`` twice would re-execute its upstream
    stages (Ray Datasets recompute, they don't cache). Defaults to
    ``ds`` itself.

    ``bucketing='linear'`` (default, for dense sequence-number keys)
    needs ``key_lo``/``key_hi`` — the arrival-key range, half-open,
    from source metadata (e.g. parquet row counts — no extra pass).
    ``bucketing='quantile'`` instead cuts at sampled empirical
    quantiles of the arrival key (one cheap pass over ``seq_source``;
    see :func:`_quantile_cuts`) and stays balanced under bursty or
    sparse key distributions where linear widths collapse into a few
    hot buckets.

    ``num_buckets`` defaults to ``adaptive_buckets(key_hi - key_lo)``
    (the arrival-key span is ~the row count for dense sequence
    numbers; for quantile mode the CPU floor alone applies), so
    per-bucket frames stay flat and parallelism scales with the
    cluster instead of a fixed constant.
    """
    from commons_codec_ray.util import adaptive_buckets

    src = seq_source if seq_source is not None else ds
    if bucketing == "linear":
        if key_lo is None or key_hi is None:
            raise ValueError("linear bucketing requires key_lo and key_hi")
        if num_buckets is None:
            num_buckets = adaptive_buckets(max(int(key_hi) - int(key_lo), 0))
        bucketize = _bucketize(arrival_col, key_lo, key_hi, num_buckets)
    elif bucketing == "quantile":
        if num_buckets is None:
            num_buckets = adaptive_buckets()
        cuts = _quantile_cuts(src, arrival_col, num_buckets)
        num_buckets = len(cuts) + 1
        bucketize = _bucketize_cuts(arrival_col, cuts)
    else:
        raise ValueError(f"bucketing must be 'linear' or 'quantile', got {bucketing!r}")
    pre = src.map_batches(bucketize, batch_format="pyarrow")
    rows = pre.groupby("_wb").aggregate(Max(seq_col)).take_all()
    bucket_max = np.full(num_buckets, _NEG_INF, np.int64)
    for r in rows:
        bucket_max[int(r["_wb"])] = np.int64(r[f"max({seq_col})"])
    # exclusive prefix max: carry[b] = max seq over buckets < b
    carry = np.full(num_buckets, _NEG_INF, np.int64)
    if num_buckets > 1:
        carry[1:] = np.maximum.accumulate(bucket_max[:-1])

    if emit not in ("kept", "dropped"):
        raise ValueError(f"emit must be 'kept' or 'dropped', got {emit!r}")
    want_dropped = emit == "dropped"
    lag = int(allowed_lag)

    def filter_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["_wb"].iloc[0])
        arr = df[arrival_col].to_numpy(np.int64)
        seq = df[seq_col].to_numpy(np.int64)
        order = np.lexsort((seq, arr))
        a_s, s_s = arr[order], seq[order]
        run = np.maximum.accumulate(s_s)
        n = len(s_s)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = (a_s[1:] != a_s[:-1]) | (s_s[1:] != s_s[:-1])
        start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        wm_in = np.where(start > 0, run[np.maximum(start - 1, 0)], _NEG_INF)
        wm = np.maximum(wm_in, carry[b])
        # seq + lag >= wm (never wm - lag: that underflows at -inf)
        keep_sorted = (wm == _NEG_INF) | (s_s + np.int64(lag) >= wm)
        keep = np.empty(n, bool)
        keep[order] = keep_sorted
        if want_dropped:
            keep = ~keep
        return df[keep].drop(columns=["_wb"])

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(filter_bucket, batch_format="pandas")
    )


def sequence_gaps(
    ds: rd.Dataset,
    *,
    id_col: str,
    num_buckets: Optional[int] = None,
    seq_source: Optional[rd.Dataset] = None,
) -> rd.Dataset:
    """Missing-range detection over a global integer sequence — the
    gaps half of SQL's gaps-and-islands, i.e. the ``lead() OVER
    (ORDER BY id)`` audit a CDC ingest runs on its LSN/offset column to
    prove no change was dropped. One output row per hole:
    ``(gap_after, next_present, n_missing)`` with ``n_missing =
    next_present − gap_after − 1 > 0``.

    Fourth member of the segmented-scan family, and the first with a
    BACKWARD carry (:func:`bounded_lateness_filter` carries a prefix
    max, :func:`forward_fill` a last observation, :func:`running_sum` a
    prefix sum — all forward):

    1. Quantile range-bucket on ``id_col`` (contiguous half-open
       ranges → bucket order is id order).
    2. Pre-pass: ONE tiny ``groupby().aggregate(Min)`` per bucket; the
       driver takes the EXCLUSIVE SUFFIX min — ``carry[b]`` is the
       first id present in any bucket ``> b`` (the cross-block "lead"
       seed; None for the global tail).
    3. One keyed exchange co-locates each bucket; inside, gaps fall out
       of ``np.diff`` over the sorted (deduped) ids, the bucket's last
       id pairing with the carry.

    Ids must be int64-coercible; duplicates are tolerated (collapsed —
    a sequence column should be unique, but an at-least-once feed may
    replay rows)."""
    from ray.data.aggregate import Min

    from commons_codec_ray.util import adaptive_buckets

    src = seq_source if seq_source is not None else ds
    if num_buckets is None:
        num_buckets = adaptive_buckets()
    cuts = _quantile_cuts(src, id_col, num_buckets)
    num_buckets = len(cuts) + 1
    bucketize = _bucketize_cuts(id_col, cuts)

    rows = (
        src.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .aggregate(Min(id_col))
        .take_all()
    )
    bucket_min: dict[int, int] = {
        int(r["_wb"]): int(r[f"min({id_col})"]) for r in rows
    }
    # exclusive suffix min: first id present strictly after bucket b
    carry_next = np.zeros(num_buckets, np.int64)
    carry_has = np.zeros(num_buckets, bool)
    run_v, run_has = 0, False
    for b in range(num_buckets - 1, -1, -1):
        carry_next[b], carry_has[b] = run_v, run_has
        if b in bucket_min:
            run_v, run_has = bucket_min[b], True

    def scan_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["_wb"].iloc[0])
        ids = np.unique(df[id_col].to_numpy(np.int64))
        nxt = np.empty(len(ids), np.int64)
        has = np.ones(len(ids), bool)
        nxt[:-1] = ids[1:]
        if carry_has[b]:
            nxt[-1] = carry_next[b]
        else:
            has[-1] = False
        miss = nxt - ids - 1
        sel = has & (miss > 0)
        return pd.DataFrame(
            {
                "gap_after": ids[sel],
                "next_present": nxt[sel],
                "n_missing": miss[sel],
            }
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(scan_bucket, batch_format="pandas")
    )


def sequence_islands(
    ds: rd.Dataset,
    *,
    id_col: str,
    num_buckets: Optional[int] = None,
    seq_source: Optional[rd.Dataset] = None,
) -> rd.Dataset:
    """Maximal consecutive runs of a global integer sequence — the
    ISLANDS half of SQL's gaps-and-islands (:func:`sequence_gaps` is
    the gaps half): one row per run, ``(start_id, end_id, n_ids)``.

    The distributed wrinkle is that a run can CROSS range-bucket
    boundaries, so per-bucket runs aren't final. Shape:

    1. Quantile range-bucket on ``id_col`` (contiguous half-open
       ranges → bucket order is id order), ONE keyed exchange.
    2. Per bucket, runs fall out of ``np.diff`` over the sorted
       deduped ids. INTERIOR runs (separated from both bucket edges
       by a gap inside the bucket) are final and stay distributed;
       each bucket's FIRST and LAST run are emitted as tagged
       boundary fragments (≤ 2 rows per bucket).
    3. The runs table is materialized ONCE (far smaller than the
       input; both consumers below would otherwise re-execute the
       scan), the kilobyte fragment set is collected and stitched on
       the driver (merge chains where ``next.start == prev.end + 1``
       — a run spanning k buckets folds k fragments), and the result
       is the interior stream unioned with the stitched fragments.

    Ids must be int64-coercible; duplicates collapse."""
    from commons_codec_ray.util import adaptive_buckets

    src = seq_source if seq_source is not None else ds
    if num_buckets is None:
        num_buckets = adaptive_buckets()
    cuts = _quantile_cuts(src, id_col, num_buckets)
    bucketize = _bucketize_cuts(id_col, cuts)

    def runs_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(df[id_col].to_numpy(np.int64))
        brk = np.flatnonzero(np.diff(ids) > 1)
        starts = np.concatenate([[0], brk + 1])
        ends = np.concatenate([brk, [len(ids) - 1]])
        n = len(starts)
        frag = np.zeros(n, dtype=bool)
        frag[0] = frag[-1] = True  # may continue in a neighbor bucket
        return pd.DataFrame(
            {
                "start_id": ids[starts],
                "end_id": ids[ends],
                "frag": frag,
            }
        )

    runs = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_wb")
        .map_groups(runs_bucket, batch_format="pandas")
        .materialize()
    )

    frags = (
        runs.map_batches(
            lambda t: t.filter(t["frag"]), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("start_id")
    )
    stitched_start: list[int] = []
    stitched_end: list[int] = []
    for s, e in zip(frags["start_id"].to_numpy(np.int64), frags["end_id"].to_numpy(np.int64)):
        if stitched_end and s == stitched_end[-1] + 1:
            stitched_end[-1] = int(e)
        else:
            stitched_start.append(int(s))
            stitched_end.append(int(e))
    sa = np.asarray(stitched_start, np.int64)
    ea = np.asarray(stitched_end, np.int64)
    stitched = rd.from_arrow(
        pa.table(
            {
                "start_id": pa.array(sa),
                "end_id": pa.array(ea),
                "n_ids": pa.array(ea - sa + 1),
            }
        )
    )

    def interior(t: pa.Table) -> pa.Table:
        f = t.filter(pc.invert(t["frag"]))
        s = f["start_id"].to_numpy(zero_copy_only=False)
        e = f["end_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "start_id": pa.array(s),
                "end_id": pa.array(e),
                "n_ids": pa.array(e - s + 1),
            }
        )

    return runs.map_batches(interior, batch_format="pyarrow").union(stitched)
