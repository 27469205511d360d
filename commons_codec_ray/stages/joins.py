"""Distributed join operators Ray Data lacks natively.

As-of join (the streaming/timeseries workhorse: for each left row, the
latest right row with the same key and time ≤ left time) as a
composition of map_batches + coarse-bucket groupby — the pattern the
task spec prescribes for operators the Dataset API can't express
directly. Partitioning assumption: rows co-locate by ``hash(by) %
num_buckets``, so per-key time series never span buckets; per-bucket
work is a single vectorized ``pandas.merge_asof``.

Scale shape: one shuffle of (left ∪ right) on the bucket key; bucket
count bounds parallelism and per-group memory (grow with input). All
rows of one key land in one bucket, so one hot key's matches are joined
by one group.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from commons_codec_ray.util import adaptive_buckets, hash_bucket


def _pandas_null_dtype(arrow_type: pa.DataType | None) -> str:
    """Nullable pandas dtype matching an arrow type, so the no-right-rows
    branch produces blocks schema-consistent with matched buckets."""
    if arrow_type is None:
        return "object"
    if pa.types.is_integer(arrow_type):
        return "Int64"
    if pa.types.is_floating(arrow_type):
        return "float64"
    if pa.types.is_timestamp(arrow_type):
        return "datetime64[us]"
    return "object"


def _union_types(left_ds, right_ds) -> dict[str, pa.DataType]:
    types: dict[str, pa.DataType] = {}
    for f in right_ds.schema().base_schema:
        types[f.name] = f.type
    for f in left_ds.schema().base_schema:
        types[f.name] = f.type
    return types


def _key_bucket(t: pa.Table, by: list[str], num_buckets: int) -> pa.Array:
    """Bucket ids for a (possibly composite, possibly non-integer) join
    key. Single int64 keys take the splitmix fast path; everything else
    goes through pandas' C siphash (fixed key ⇒ deterministic across
    processes and runs), column-combined — so joins work on string and
    multi-column keys with the same co-location contract."""
    if len(by) == 1 and pa.types.is_integer(t[by[0]].type):
        keys = t[by[0]].to_numpy(zero_copy_only=False).astype(np.int64)
        return hash_bucket(keys, num_buckets)
    h = pd.util.hash_pandas_object(
        t.select(by).to_pandas(), index=False
    ).to_numpy()
    return pa.array((h & np.uint64(num_buckets - 1)).astype(np.int64))


def _sides(t: pa.Table, left_cols: list[str], right_cols: list[str]):
    """One bucket of a :func:`_tagged_union` as (left rows, right rows)
    pandas frames. The split is made in Arrow, before ``to_pandas``: the
    union null-pads each side's own columns on the other side's rows,
    and pandas would turn such an int64 column into float64 (ids above
    2^53 then lose precision)."""
    is_r = t["_right"]
    return (
        t.filter(pc.invert(is_r)).select(left_cols).to_pandas(),
        t.filter(is_r).select(right_cols).to_pandas(),
    )


def _tagged_union(left_ds, right_ds, all_cols, types, by, num_buckets):
    """Shared join scaffolding: tag each side with its bucket (_jb =
    hash(key) & (num_buckets-1)) and side (_right), null-pad to the union column
    set with the REAL arrow types (float64 padding would degrade int
    columns), and union into one schema-stable Dataset. ``by`` may be a
    column name or a list of names (composite key)."""
    by_cols = [by] if isinstance(by, str) else list(by)

    def pad(is_right: bool):
        def _p(t: pa.Table) -> pa.Table:
            t = t.append_column("_jb", _key_bucket(t, by_cols, num_buckets))
            t = t.append_column(
                "_right", pa.array(np.full(t.num_rows, is_right, dtype=bool))
            )
            for c in all_cols:
                if c not in t.column_names:
                    t = t.append_column(c, pa.nulls(t.num_rows, types[c]))
            return t.select([*all_cols, "_jb", "_right"])

        return _p

    return left_ds.map_batches(pad(False), batch_format="pyarrow").union(
        right_ds.map_batches(pad(True), batch_format="pyarrow")
    )


def asof_join(
    left_ds,
    right_ds,
    on: str = "ts",
    by: str = "user_id",
    right_columns: list[str] | None = None,
    suffix: str = "_right",
    num_buckets: int | None = None,
):
    """For each left row: columns of the LATEST right row with the same
    ``by`` key and ``right.on <= left.on`` (backward as-of, exact matches
    allowed) — nulls when no right row qualifies.

    Both sides are tagged and bucketed by ``hash(by)``, shuffled ONCE,
    and joined per bucket with ``pandas.merge_asof`` (vectorized
    two-pointer after an O(n log n) sort). Right rows are deduped to one
    per (by, on) — keep max of the first right column — so ties are
    deterministic (mirror any SQL oracle with the same QUALIFY dedupe).
    """
    # inputs are often mid-pipeline Datasets where count() would execute
    # the upstream — so the default scales with CLUSTER size (8x CPUs
    # floor in adaptive_buckets); pass num_buckets explicitly when a
    # cheap row count is known
    num_buckets = num_buckets or adaptive_buckets()
    right_columns = right_columns or [c for c in right_ds.schema().names if c not in (on, by)]
    left_cols = left_ds.schema().names

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        l, r = _sides(t, left_cols, [by, on, *right_columns])
        l = l.sort_values([on, by], kind="mergesort")
        if len(r):
            # deterministic tie-break: keep ONE WHOLE right row per
            # (by, on) — drop_duplicates is row-atomic, unlike
            # groupby().last() which takes each column's last NON-NULL
            # value independently and can stitch together a row that
            # never existed
            r = (
                r.sort_values([by, on, *right_columns], kind="mergesort")
                .drop_duplicates(subset=[by, on], keep="last")
                .sort_values([on, by], kind="mergesort")
            )
            merged = pd.merge_asof(
                l, r, on=on, by=by, direction="backward", suffixes=("", suffix)
            )
        else:
            merged = l.copy()
            for c in right_columns:
                out_name = c if c not in l.columns else c + suffix
                merged[out_name] = pd.Series(
                    [None] * len(merged), dtype=_pandas_null_dtype(types.get(c)),
                    index=merged.index,
                )
        return merged

    all_cols = list(dict.fromkeys([*left_cols, by, on, *right_columns]))
    types = _union_types(left_ds, right_ds)
    tagged = _tagged_union(left_ds, right_ds, all_cols, types, by, num_buckets)
    return tagged.groupby("_jb").map_groups(join_bucket, batch_format="pyarrow")


def hash_join(
    left_ds,
    right_ds,
    on: str | list[str],
    how: str = "inner",
    right_columns: list[str] | None = None,
    suffix: str = "_right",
    num_buckets: int | None = None,
):
    """Shuffled large×large equi-join (inner or left) — the join shape
    broadcast joins can't cover: BOTH sides are partitioned on
    ``hash(on) % num_buckets`` in ONE tagged-union shuffle, then each
    bucket is joined with a vectorized ``pandas.merge``. Neither side is
    materialized on the driver or broadcast; per-bucket memory is
    |bucket_left| + |bucket_right| + |matches in bucket|, bounded by the
    adaptive bucket count (grows with input / cluster CPUs).

    Many-to-many keys multiply within their bucket only. One hot key's
    matches all land in one bucket, joined by one group.

    Right non-key columns are cast to NULLABLE pandas dtypes before the
    merge so ``how="left"`` misses don't degrade int64 columns to
    float64 (NaN coercion) — the classic pandas silent-precision trap.
    """
    assert how in ("inner", "left", "outer"), how
    on_cols = [on] if isinstance(on, str) else list(on)
    num_buckets = num_buckets or adaptive_buckets()
    left_cols = left_ds.schema().names
    right_columns = right_columns or [
        c for c in right_ds.schema().names if c not in on_cols
    ]
    types = _union_types(left_ds, right_ds)
    all_cols = list(dict.fromkeys([*left_cols, *on_cols, *right_columns]))
    right_dtypes = {c: _pandas_null_dtype(types.get(c)) for c in right_columns}
    # full outer: unmatched RIGHT rows null-pad the left columns, so those
    # need nullable dtypes too (same int64→float64 trap, mirrored)
    left_dtypes = (
        {c: _pandas_null_dtype(types.get(c)) for c in left_cols if c not in on_cols}
        if how == "outer"
        else {}
    )

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        l, r = _sides(t, left_cols, [*on_cols, *right_columns])
        l, r = l.astype(left_dtypes), r.astype(right_dtypes)
        return l.merge(r, on=on_cols, how=how, suffixes=("", suffix))

    tagged = _tagged_union(left_ds, right_ds, all_cols, types, on, num_buckets)
    return tagged.groupby("_jb").map_groups(join_bucket, batch_format="pyarrow")


def range_join_agg(
    left_ds,
    right_ds,
    on: str = "ts",
    by: str = "user_id",
    value: str | None = None,
    window_us: int = 600_000_000,
    num_buckets: int | None = None,
):
    """Banded range join + aggregate: for each left row, COUNT (and SUM
    of ``value``) of right rows with the same ``by`` key and ``right.on``
    in ``[left.on - window, left.on]`` (both ends inclusive).

    Same partitioning contract as :func:`asof_join` (one shuffle on
    ``hash(by) % num_buckets``); inside a bucket the band is computed
    with ONE ``searchsorted`` over a per-key-offset composite int64 key
    (key ranges of different ``by`` values are separated by more than
    the window, so a band can never cross keys) + prefix sums — O(n log
    n) per bucket, no per-key loop, never materializing the O(n·matches)
    pair blowup that a generic range join produces.
    """

    num_buckets = num_buckets or adaptive_buckets()  # cluster-scaled default, see asof_join
    left_cols = left_ds.schema().names
    types = _union_types(left_ds, right_ds)
    right_extra = [value] if value else []
    all_cols = list(dict.fromkeys([*left_cols, by, on, *right_extra]))

    def band_bucket(t: pa.Table) -> pd.DataFrame:
        l, r = _sides(t, left_cols, [by, on, *right_extra])
        l = l.sort_values([by, on], kind="mergesort")
        r = r.sort_values([by, on], kind="mergesort")
        keys_by = np.concatenate([l[by].to_numpy(dtype="int64"), r[by].to_numpy(dtype="int64")])
        ts = np.concatenate(
            [s[on].to_numpy().astype("datetime64[us]").astype(np.int64) for s in (l, r)]
        )
        uniq, uidx = np.unique(keys_by, return_inverse=True)
        first_ts = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(first_ts, uidx, ts)
        off = ts - first_ts[uidx]
        span = int(off.max()) + int(window_us) + 2
        n_keys = len(uniq)
        # int64-safe bound: loud failure beats silently-wrong band counts
        assert n_keys * span < (1 << 63), (
            f"composite range-join key overflows int64: {n_keys} keys x "
            f"span {span} us — raise num_buckets or shrink the time extent"
        )
        key = uidx * np.int64(span) + off
        lk, rk = key[: len(l)], key[len(l):]
        hi = np.searchsorted(rk, lk, side="right")
        lo = np.searchsorted(rk, lk - np.int64(window_us), side="left")
        out = l.copy()
        out["n_in_range"] = (hi - lo).astype("int64")
        if value:
            rv = r[value].to_numpy(dtype="float64")
            csum = np.concatenate([[0.0], np.cumsum(rv)])
            out["sum_in_range"] = csum[hi] - csum[lo]
        return out

    tagged = _tagged_union(left_ds, right_ds, all_cols, types, by, num_buckets)
    return tagged.groupby("_jb").map_groups(band_bucket, batch_format="pyarrow")


def snapshot_diff(
    old_ds,
    new_ds,
    keys: list[str],
    compare: list[str],
    num_buckets: int | None = None,
):
    """Reverse CDC (engine-added): derive a row-level change feed by
    DIFFING two consistent snapshots — keys only in ``new_ds`` →
    ``insert`` (new image), only in ``old_ds`` → ``delete`` (before
    image), in both with any ``compare`` column differing (null-safe) →
    ``update`` (new image); identical rows are dropped.  The operator
    that backfills a change feed when the event log was never captured
    (e.g. lake epoch N vs N+1).

    Scale shape: one shuffle — both snapshots tagged with
    ``hash(keys) % num_buckets`` and unioned, then a single vectorized
    outer merge + column compare per bucket.  Keys never span buckets,
    so the diff is exact.
    """
    nb = num_buckets or adaptive_buckets()

    def tag(is_new: bool):
        def _t(t: pa.Table) -> pa.Table:
            t = t.append_column("_jb", _key_bucket(t, keys, nb))
            return t.append_column(
                "_new", pa.array(np.full(t.num_rows, is_new, dtype=bool))
            )

        return _t

    both = old_ds.map_batches(tag(False), batch_format="pyarrow").union(
        new_ds.map_batches(tag(True), batch_format="pyarrow")
    )

    def _nullable(dt) -> str:
        return ("U" if dt.kind == "u" else "") + "Int" + str(dt.itemsize * 8)

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        old = df.loc[~df["_new"], keys + compare].copy()
        new = df.loc[df["_new"], keys + compare].copy()
        # the outer merge introduces missing values on one side for
        # inserts/deletes; plain int columns would silently upcast to
        # float64 (lossy above 2^53). Move integer compare columns to
        # pandas nullable Int* for the merge and restore the exact
        # original dtype on the never-null output below.
        int_dtypes = {c: old[c].dtype for c in compare if old[c].dtype.kind in "iu"}
        for c, dt in int_dtypes.items():
            old[c] = old[c].astype(_nullable(dt))
            new[c] = new[c].astype(_nullable(dt))
        m = old.merge(new, on=keys, how="outer", suffixes=("_o", "_n"), indicator=True)
        is_ins = (m["_merge"] == "right_only").to_numpy()
        is_del = (m["_merge"] == "left_only").to_numpy()
        changed = np.zeros(len(m), dtype=bool)
        for c in compare:
            a, b = m[f"{c}_o"], m[f"{c}_n"]
            eq = (a == b) | (a.isna() & b.isna())
            # nullable compare yields pd.NA when exactly one side is
            # missing — that's a change, so NA counts as not-equal
            changed |= ~eq.fillna(False).to_numpy(dtype=bool)
        keep = is_ins | is_del | changed
        m = m.loc[keep]
        is_del = is_del[keep]
        is_ins = is_ins[keep]
        out = {
            "change": np.select(
                [is_ins, is_del], ["insert", "delete"], default="update"
            )
        }
        for k in keys:
            out[k] = m[k]
        for c in compare:
            vals = m[f"{c}_n"].where(~is_del, m[f"{c}_o"])
            if c in int_dtypes:
                vals = vals.astype(int_dtypes[c])
            out[c] = vals
        return pd.DataFrame(out)

    return both.groupby("_jb").map_groups(diff, batch_format="pandas")
