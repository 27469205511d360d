"""Per-key top-N (group capping) — the "at most N documents per domain"
operator every pretraining pipeline needs.

Scale shape: ONE shuffle on a coarse hash bucket of the key (never on
the raw — possibly string — key), then a single vectorized pass per
bucket: sort by (key, order desc, tiebreak), find key runs, rank =
position − run start, keep rank < n. No per-key UDF calls, no window
function materializing global row numbers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from commons_codec_ray.util import adaptive_buckets


def _bucketize_by_key(key: str, num_buckets: int):
    """map_batches fn appending ``_gb`` = siphash(key) & (B-1); handles
    string keys (pandas' C siphash), shared by both grouped operators."""

    def _b(t: pa.Table) -> pa.Table:
        keys = t[key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        h = pd.util.hash_array(keys.to_numpy(zero_copy_only=False))
        return t.append_column(
            "_gb", pa.array((h & np.uint64(num_buckets - 1)).astype(np.int64))
        )

    return _b


def top_n_per_key(
    ds,
    key: str,
    order_by: str,
    n: int,
    tiebreak: str,
    ascending: bool = False,
    num_buckets: int | None = None,
):
    """Keep the top ``n`` rows per ``key`` ordered by ``order_by``
    (descending by default), ties broken by ``tiebreak`` ascending —
    the deterministic-boundary contract (mirror any SQL oracle with
    ``ORDER BY order_by DESC, tiebreak``).

    String keys are hashed with pandas' C siphash for the bucket column;
    the full key value still decides run boundaries inside the bucket.
    """
    num_buckets = num_buckets or adaptive_buckets()

    def cap_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(
            [key, order_by, tiebreak],
            ascending=[True, ascending, True],
            kind="mergesort",
        )
        keys_np = g[key].to_numpy()
        m = len(g)
        if m == 0:
            return df.drop(columns=["_gb"])
        new_key = np.empty(m, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys_np[1:] != keys_np[:-1]
        run_start = np.maximum.accumulate(np.where(new_key, np.arange(m), 0))
        rank = np.arange(m) - run_start
        return g[rank < n].drop(columns=["_gb"])

    return ds.map_batches(
        _bucketize_by_key(key, num_buckets), batch_format="pyarrow"
    ).groupby("_gb").map_groups(cap_bucket, batch_format="pandas")


def quantile_per_key(
    ds,
    key: str,
    column: str,
    q: float = 0.5,
    out_name: str | None = None,
    num_buckets: int | None = None,
):
    """Per-key discrete quantile (``quantile_disc`` semantics: the
    element of rank ``max(1, ceil(q·count))`` within each key) — one
    hash-bucket shuffle, then a single vectorized pass per bucket: sort
    by (key, value), find key runs, index each run at its rank. No
    per-key UDF calls.

    Assumes one key's rows fit a bucket group (same partitioning
    contract as every bucketed groupby here); keys are never split
    across buckets so ranks are exact.
    """
    num_buckets = num_buckets or adaptive_buckets()
    out_name = out_name or f"q{q}"

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values([key, column], kind="mergesort")
        m = len(g)
        if m == 0:
            return pd.DataFrame({key: df[key], out_name: df[column]}).iloc[:0]
        keys_np = g[key].to_numpy()
        new_key = np.empty(m, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys_np[1:] != keys_np[:-1]
        starts = np.flatnonzero(new_key)
        counts = np.diff(np.append(starts, m))
        ranks = np.maximum(1, np.ceil(q * counts).astype(np.int64))
        idx = starts + ranks - 1
        return pd.DataFrame(
            {key: keys_np[starts], out_name: g[column].to_numpy()[idx]}
        )

    return ds.map_batches(
        _bucketize_by_key(key, num_buckets), batch_format="pyarrow"
    ).groupby("_gb").map_groups(pick, batch_format="pandas")


def mad_per_key(
    ds,
    key: str,
    column: str,
    k_num: int = 3,
    num_buckets: int | None = None,
):
    """Per-key robust outlier summary via the median absolute deviation
    — ``(key, n, med2, mad4, n_outliers)`` where ``med2 = 2·median(x)``
    and ``mad4 = 4·MAD = 2·median(|2x − med2|)`` are EXACT integers
    (doubled/quadrupled so the even-count "average the two middles"
    case never leaves the integers), and a row is an outlier iff

        |x − median| > k_num · MAD   ⟺   2·|2x − med2| > k_num · mad4

    — the scale-free Hampel test (Hampel 1974; the robust replacement
    for z-score outlier flags, immune to the outliers inflating the
    sigma they are tested against, cf. the exact 2-sigma lane in
    ``q_outliers``). SQL replays it as ``2*median(x)`` /
    ``2*median(abs(2x − med2))`` — exact in a DOUBLE for |x| < 2^51.

    ``column`` must be int64-coercible, with |x| < 2^62 and each key's
    spread ``max(x) − min(x)`` at most ``(2^63 − 1) // (4·max(|k_num|,
    1))``: then ``2x``, ``med2``, ``mad4`` and both sides of the outlier
    test fit int64. A bucket past either bound raises ``OverflowError``
    instead of wrapping. One hash-bucket exchange, then
    a single vectorized pass per bucket (two sorted-run indexings, no
    per-key UDF calls); same one-key-fits-one-bucket contract as
    :func:`quantile_per_key`.
    """
    num_buckets = num_buckets or adaptive_buckets()

    def mad_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values([key, column], kind="mergesort")
        m = len(g)
        if m == 0:
            return pd.DataFrame(
                {
                    key: df[key].iloc[:0],
                    "n": np.empty(0, np.int64),
                    "med2": np.empty(0, np.int64),
                    "mad4": np.empty(0, np.int64),
                    "n_outliers": np.empty(0, np.int64),
                }
            )
        keys_np = g[key].to_numpy()
        x = g[column].to_numpy(np.int64)
        new_key = np.empty(m, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys_np[1:] != keys_np[:-1]
        starts = np.flatnonzero(new_key)
        counts = np.diff(np.append(starts, m))
        # x is sorted within each key: its first and last are min and max
        if max(-int(x.min()), int(x.max())) >= 1 << 62:
            raise OverflowError(f"mad_per_key: a {column} value outside ±2^62 wraps 2·x in int64")
        spread = int((x[starts + counts - 1] - x[starts]).max())
        if 4 * max(abs(k_num), 1) * spread >= 1 << 63:
            raise OverflowError(
                f"mad_per_key: a key's {column} spread {spread} overflows mad4 in int64"
            )
        med2 = x[starts + (counts - 1) // 2] + x[starts + counts // 2]
        run = np.repeat(np.arange(len(starts)), counts)
        dev2 = np.abs(2 * x - med2[run])
        dev2_sorted = dev2[np.lexsort((dev2, run))]
        mad4 = (
            dev2_sorted[starts + (counts - 1) // 2]
            + dev2_sorted[starts + counts // 2]
        )
        outlier = (2 * dev2 > k_num * mad4[run]).astype(np.int64)
        n_out = np.add.reduceat(outlier, starts)
        return pd.DataFrame(
            {
                key: keys_np[starts],
                "n": counts.astype(np.int64),
                "med2": med2,
                "mad4": mad4,
                "n_outliers": n_out,
            }
        )

    return ds.map_batches(
        _bucketize_by_key(key, num_buckets), batch_format="pyarrow"
    ).groupby("_gb").map_groups(mad_bucket, batch_format="pandas")
