"""Last-writer-wins apply kernels, run by the applier pool
(:mod:`commons_codec_ray.stages.actor_applier`) and the lake's reads.

Semantics (SURVEY.md §2.6, derived from the reference):

- UPSERT is a FULL-ROW overwrite — ``MODIFY`` writes the whole new image
  (reference transform/dynamodb.py:198-205); ``update``/``replace`` set the
  whole document (transform/mongodb.py:324-329).
- Resolution is last-writer-wins on ``(conv_id, turn_idx) → max(lsn)``;
  duplicate deliveries (same lsn, identical payload) collapse to one row —
  the distributed analog of the reference's ``ON CONFLICT DO NOTHING``
  idempotence (transform/dynamodb.py:186-195).
- DELETE with the max lsn removes the key.

LWW is an associative, commutative reduce, so it runs in three layers:
  1. within-slice combine in each decode task, before its hash split,
  2. per-partition reduce in the applier that owns the ``partition_id``,
  3. merge against the partition's base state (base rows participate with
     their stored ``_lsn``), making epoch re-application a no-op.

All kernels are numpy/Arrow vectorized — no Python loop over rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from commons_codec_ray.schemas import OP_DELETE, OP_SCHEMA_CHANGE, OP_UPSERT, TRANSCRIPT_SCHEMA

# internal lake column holding the winning op's lsn per row
LSN_COLUMN = "_lsn"

_OP_COLUMNS = ["op", "conv_id", "turn_idx", "role", "text", "tool", "ts", "lsn"]


def _lww_take_indices(tbl: pa.Table) -> np.ndarray:
    """Indices of the max-lsn row per (table_name?, conv_id, turn_idx), stable.

    ``table_name`` participates in the key whenever the column is present:
    the within-batch combine and the actor pool's rolling pre-reduce both
    run BEFORE the per-table split, so a multi-table stream with
    numerically-colliding PKs must not let one table's op shadow
    another's.
    """
    if tbl.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    conv = tbl["conv_id"].combine_chunks().dictionary_encode()
    codes = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = tbl["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    lsn = tbl["lsn"].to_numpy(zero_copy_only=False).astype(np.int64)
    if "table_name" in tbl.column_names:
        tab = tbl["table_name"].combine_chunks()
        if not pa.types.is_dictionary(tab.type):
            tab = tab.dictionary_encode()
        tab_codes = tab.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        if tab.dictionary and len(tab.dictionary) > 1:
            order = np.lexsort((lsn, turn, codes, tab_codes))
            g = tab_codes[order]
            c = codes[order]
            t = turn[order]
            last = np.empty(len(order), dtype=bool)
            last[-1] = True
            last[:-1] = (g[1:] != g[:-1]) | (c[1:] != c[:-1]) | (t[1:] != t[:-1])
            return order[last]
    order = np.lexsort((lsn, turn, codes))
    c = codes[order]
    t = turn[order]
    last = np.empty(len(order), dtype=bool)
    if len(order):
        last[-1] = True
        last[:-1] = (c[1:] != c[:-1]) | (t[1:] != t[:-1])
    return order[last]


def lww_reduce(tbl: pa.Table) -> pa.Table:
    """Reduce an op table (UPSERT/DELETE rows only) to one row per key."""
    if tbl.num_rows == 0:
        return tbl
    return tbl.take(pa.array(_lww_take_indices(tbl)))


def lww_combine_batch(ops: pa.Table) -> pa.Table:
    """Within-batch partial LWW; SCHEMA/DEAD rows pass through untouched."""
    if ops.num_rows == 0:
        return ops
    special_mask = pc.greater_equal(ops["op"], OP_SCHEMA_CHANGE)
    if pc.any(special_mask).as_py():
        special = ops.filter(special_mask)
        data = ops.filter(pc.invert(special_mask))
        return pa.concat_tables([lww_reduce(data), special])
    return lww_reduce(ops)


def materialize_aux_columns(ops: pa.Table, extra_columns: list[tuple[str, pa.DataType]]) -> pa.Table:
    """Pull schema-evolved columns out of the ``aux`` JSON spill.

    The decoder routes fields it doesn't know statically into ``aux``
    (the reference's untyped bucket, model.py:171-175). When the
    registry later declares such a field a real column (create-table
    control event, transform/aws_dms.py:140-144), the applier
    materializes it. Only rows with non-null aux pay the JSON parse —
    the rare path by construction.
    """
    import json as _json

    if not extra_columns or ops.num_rows == 0:
        return ops
    aux = ops["aux"].to_pylist()
    wanted = [name for name, _ in extra_columns if name not in ops.column_names]
    if not wanted:
        return ops
    parsed: list[dict | None] = [None] * len(aux)
    for i, a in enumerate(aux):
        if a:
            try:
                parsed[i] = _json.loads(a)
            except ValueError:
                parsed[i] = None
    out = ops
    types = dict(extra_columns)
    for name in wanted:
        vals = [(p.get(name) if p else None) for p in parsed]
        if pa.types.is_string(types[name]):
            # OBJECT/MAP columns resolve to string: a re-parsed JSON value
            # is stored as its canonical JSON text
            vals = [
                _json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                for v in vals
            ]
        out = out.append_column(name, pa.array(vals).cast(types[name]))
    return out


def base_as_ops(base: pa.Table) -> pa.Table:
    """Lift a lake partition (transcript cols + _lsn) into op-record form."""
    n = base.num_rows
    cols = {
        "op": pa.array(np.full(n, OP_UPSERT, dtype=np.int8)),
        "conv_id": base["conv_id"],
        "turn_idx": base["turn_idx"],
        "role": base["role"],
        "text": base["text"],
        "tool": base["tool"],
        "ts": base["ts"],
        "lsn": base[LSN_COLUMN] if LSN_COLUMN in base.column_names else pa.array(np.full(n, -1, dtype=np.int64)),
    }
    extras = [c for c in base.column_names if c not in cols and c != LSN_COLUMN]
    tbl = pa.table(cols)
    for c in extras:
        tbl = tbl.append_column(c, base[c])
    return tbl


def apply_ops_to_base(
    base: pa.Table | None,
    ops: pa.Table,
    extra_columns: list[tuple[str, pa.DataType]] | None = None,
) -> pa.Table:
    """Merge decoded ops into a partition's base state → new state.

    Returns transcript columns (+ any schema-evolved extra columns) +
    ``_lsn``. Deterministic given (base, full op set), so re-running a
    failed epoch rewrites identical output (the exactly-once property
    lives in the commit protocol, not here).
    """
    if extra_columns:
        ops = materialize_aux_columns(ops, extra_columns)
    extra_names = [name for name, _ in (extra_columns or [])]
    keep = [c for c in _OP_COLUMNS if c in ops.column_names] + [
        c for c in extra_names if c in ops.column_names
    ]
    ops = ops.select(keep)
    parts = [ops]
    if base is not None and base.num_rows:
        parts.append(base_as_ops(base))
    merged = pa.concat_tables(parts, promote_options="permissive")
    reduced = lww_reduce(merged)
    alive = reduced.filter(pc.equal(reduced["op"], OP_UPSERT))
    cols = {
        "conv_id": alive["conv_id"].cast(pa.string()),
        "turn_idx": alive["turn_idx"].cast(pa.int32()),
        "role": alive["role"].cast(pa.string()),
        "text": alive["text"].cast(pa.string()),
        "tool": alive["tool"].cast(pa.string()),
        "ts": alive["ts"].cast(pa.timestamp("us")),
        LSN_COLUMN: alive["lsn"].cast(pa.int64()),
    }
    out = pa.table(cols)
    types = dict(extra_columns or [])
    for name in extra_names:
        if name in alive.column_names:
            out = out.append_column(name, alive[name].cast(types[name]))
        else:
            out = out.append_column(name, pa.nulls(out.num_rows, types[name]))
    return out


def epoch_delta(
    ops: pa.Table, extra_columns: list[tuple[str, pa.DataType]] | None = None
) -> pa.Table:
    """LWW-reduced epoch ops in DELTA-file layout: ``op`` (incl. DELETE
    tombstones) + transcript columns + schema-evolved extras + ``_lsn``.
    The delta sink writes these instead of rewriting the whole partition
    (merge-on-read).

    Extra columns are MATERIALIZED out of the ``aux`` spill here: a delta
    file must carry everything needed to reconstruct partition state
    (eviction / restart replays from files), so dropping evolved columns
    would make lake contents depend on eviction timing."""
    if extra_columns:
        ops = materialize_aux_columns(ops, extra_columns)
    extra_names = [n for n, _ in (extra_columns or []) if n in ops.column_names]
    keep = [c for c in _OP_COLUMNS if c in ops.column_names] + extra_names
    red = lww_reduce(ops.select(keep))
    cols = {
        "op": red["op"].cast(pa.int8()),
        "conv_id": red["conv_id"].cast(pa.string()),
        "turn_idx": red["turn_idx"].cast(pa.int32()),
        "role": red["role"].cast(pa.string()),
        "text": red["text"].cast(pa.string()),
        "tool": red["tool"].cast(pa.string()),
        "ts": red["ts"].cast(pa.timestamp("us")),
        LSN_COLUMN: red["lsn"].cast(pa.int64()),
    }
    out = pa.table(cols)
    types = dict(extra_columns or [])
    for c in extra_names:
        out = out.append_column(c, red[c].cast(types[c]))
    return out


def _delta_as_ops(delta: pa.Table) -> pa.Table:
    cols = {"op": delta["op"]}
    for c in delta.column_names:
        if c in ("op",):
            continue
        cols["lsn" if c == LSN_COLUMN else c] = delta[c]
    return pa.table(cols)


def merge_base_with_deltas(
    base: pa.Table | None,
    deltas: list[pa.Table],
    extra_columns: list[tuple[str, pa.DataType]] | None = None,
) -> pa.Table:
    """Merge-on-read / compaction kernel: base state + delta files (with
    tombstones) → current partition state, via the same LWW reduce."""
    parts = [_delta_as_ops(d) for d in deltas if d.num_rows]
    if base is not None and base.num_rows:
        parts.append(base_as_ops(base))
    if not parts:
        return TRANSCRIPT_SCHEMA.empty_table().append_column(
            LSN_COLUMN, pa.array([], pa.int64())
        )
    merged = pa.concat_tables(parts, promote_options="permissive")
    reduced = lww_reduce(merged)
    alive = reduced.filter(pc.equal(reduced["op"], OP_UPSERT))
    cols = {
        "conv_id": alive["conv_id"].cast(pa.string()),
        "turn_idx": alive["turn_idx"].cast(pa.int32()),
        "role": alive["role"].cast(pa.string()),
        "text": alive["text"].cast(pa.string()),
        "tool": alive["tool"].cast(pa.string()),
        "ts": alive["ts"].cast(pa.timestamp("us")),
        LSN_COLUMN: alive["lsn"].cast(pa.int64()),
    }
    out = pa.table(cols)
    types = dict(extra_columns or [])
    for name, typ in types.items():
        if name in alive.column_names:
            out = out.append_column(name, alive[name].cast(typ))
        else:
            out = out.append_column(name, pa.nulls(out.num_rows, typ))
    return out


def change_feed(
    base: pa.Table | None,
    ops: pa.Table,
    extra_columns: list[tuple[str, pa.DataType]] | None = None,
) -> pa.Table:
    """Row-level change feed for one epoch's ops against the partition's
    base state — the CDC OUTPUT stream (Debezium-style downstream feed):

    - ``insert``: UPSERT winner for a key absent from base (new image)
    - ``update``: UPSERT winner with lsn > base row's lsn (new image)
    - ``delete``: DELETE winner for a present key (BEFORE image — what
      downstream consumers need to retract)
    - stale ops (lsn ≤ base lsn) and deletes of absent keys emit nothing,
      so re-applying a committed epoch yields an EMPTY feed (idempotent).

    Deterministic given (base, ops); one vectorized pandas merge, no row
    loop. Downstream incremental view maintenance consumes this feed:
    +new-image contribution on insert, −old +new on update, −old on
    delete — verified in tests against full recomputation.
    """
    import pandas as pd

    if extra_columns:
        ops = materialize_aux_columns(ops, extra_columns)
    extra_names = [n for n, _ in (extra_columns or []) if n in ops.column_names]
    image_cols = ["role", "text", "tool", "ts", *extra_names]
    keep = [c for c in _OP_COLUMNS if c in ops.column_names] + extra_names
    red = lww_reduce(ops.select(keep)).to_pandas()
    empty = pa.table(
        {
            "change": pa.array([], pa.string()),
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
            "lsn": pa.array([], pa.int64()),
        }
    )
    if red.empty:
        return empty
    if base is not None and base.num_rows:
        b = base.to_pandas()
        bcols = ["conv_id", "turn_idx", LSN_COLUMN] + [
            c for c in image_cols if c in b.columns
        ]
        b = b[bcols].copy()
        # nullable Int64, NOT float64: a left merge would otherwise route
        # base lsns through float64 (NaN for missing keys) and lose
        # precision above 2^53 — enough to break replay idempotency for
        # 64-bit CDC LSNs (e.g. WAL positions)
        b[LSN_COLUMN] = b[LSN_COLUMN].astype("Int64")
        m = red.merge(
            b, on=["conv_id", "turn_idx"], how="left", suffixes=("", "__old")
        )
        in_base = m[LSN_COLUMN].notna()
        base_lsn = m[LSN_COLUMN].fillna(-(1 << 62)).astype("int64")
    else:
        m = red.copy()
        in_base = pd.Series(False, index=m.index)
        base_lsn = pd.Series(-(1 << 62), index=m.index, dtype="int64")
    wins = m["lsn"].astype("int64") > base_lsn
    is_up = m["op"] == OP_UPSERT
    kind = np.where(
        is_up & ~in_base, "insert", np.where(is_up, "update", "delete")
    )
    emit = wins & (is_up | in_base)
    m = m[emit]
    kind = kind[emit.to_numpy()]
    # delete rows carry the BEFORE image
    is_del = kind == "delete"
    out = {"change": kind, "conv_id": m["conv_id"].to_numpy(), "turn_idx": m["turn_idx"].to_numpy()}
    for c in image_cols:
        old_c = f"{c}__old" if f"{c}__old" in m.columns else (c if c in m.columns else None)
        new_vals = m[c].to_numpy() if c in m.columns else np.full(len(m), None)
        if old_c is not None and is_del.any():
            vals = np.where(is_del, m[old_c].to_numpy(), new_vals)
        else:
            vals = new_vals
        out[c] = vals
    out["lsn"] = m["lsn"].to_numpy(dtype="int64")
    df = pd.DataFrame(out).sort_values(["conv_id", "turn_idx"], kind="mergesort")
    tbl = pa.table(
        {
            "change": pa.array(df["change"].to_numpy(), pa.string()),
            "conv_id": pa.array(df["conv_id"].to_numpy(), pa.string()),
            "turn_idx": pa.array(df["turn_idx"].to_numpy()).cast(pa.int32()),
            "role": pa.array(df["role"].to_numpy()).cast(pa.string()),
            "text": pa.array(df["text"].to_numpy()).cast(pa.string()),
            "tool": pa.array(df["tool"].to_numpy()).cast(pa.string()),
            "ts": pa.array(df["ts"].to_numpy()).cast(pa.timestamp("us")),
            "lsn": pa.array(df["lsn"].to_numpy(), pa.int64()),
        }
    )
    types = dict(extra_columns or [])
    for c in extra_names:
        tbl = tbl.append_column(c, pa.array(df[c].to_numpy()).cast(types[c]))
    return tbl


def apply_ops_universal(base: pa.Table | None, ops: pa.Table) -> pa.Table:
    """LWW apply for the UNIVERSAL layout: typed key columns + full-doc
    ``data`` JSON + ``aux`` (the reference's 3-column pk/data/aux target,
    transform/aws_dms.py:249-347). Full-doc overwrite per key."""
    keep = ["op", "conv_id", "turn_idx", "data", "aux", "lsn"]
    ops = ops.select([c for c in keep if c in ops.column_names])
    parts = [ops]
    if base is not None and base.num_rows:
        n = base.num_rows
        parts.append(
            pa.table(
                {
                    "op": pa.array(np.full(n, OP_UPSERT, dtype=np.int8)),
                    "conv_id": base["conv_id"],
                    "turn_idx": base["turn_idx"],
                    "data": base["data"],
                    "aux": base["aux"] if "aux" in base.column_names else pa.nulls(n, pa.string()),
                    "lsn": base[LSN_COLUMN],
                }
            )
        )
    merged = pa.concat_tables(parts, promote_options="permissive")
    reduced = lww_reduce(merged)
    alive = reduced.filter(pc.equal(reduced["op"], OP_UPSERT))
    return pa.table(
        {
            "conv_id": alive["conv_id"].cast(pa.string()),
            "turn_idx": alive["turn_idx"].cast(pa.int32()),
            "data": alive["data"].cast(pa.string()),
            "aux": alive["aux"].cast(pa.string()),
            LSN_COLUMN: alive["lsn"].cast(pa.int64()),
        }
    )


def final_state(out: pa.Table, with_lsn: bool = False) -> pa.Table:
    if with_lsn or LSN_COLUMN not in out.column_names:
        return out
    return out.drop_columns([LSN_COLUMN])


PARTIAL_COLUMNS = ("role", "text", "tool", "ts")


def apply_ops_partial(df):
    """PARTIAL-update merge apply (engine-added extension of the
    UNIVERSAL layout's column-subset updates, reference
    transform/aws_dms.py:308-327 set-clause): each upsert op carries
    only the columns its ``has_<col>`` flag marks present — the
    patch-image shape real Debezium/DMS deployments ship.  Per key,
    in lsn order:

    - the LAST delete tombstones everything before it;
    - the row exists iff any upsert survives the tombstone;
    - each column takes its value from the LATEST surviving upsert that
      CARRIED the column — a present-but-NULL column legitimately nulls
      the field (which is why the oracle must not use ``max_by``:
      DuckDB's ignores NULL values).

    Pandas-vectorized per bucket (groupby max / idxmax — C paths, no
    per-key Python); one conv-bucketed exchange."""
    import pandas as pd

    keys = ["conv_id", "turn_idx"]
    dels = df[df["op"] == OP_DELETE]
    dl = dels.groupby(keys)["lsn"].max().rename("_dl")
    ups = df[df["op"] == OP_UPSERT].join(dl, on=keys)
    live = ups[ups["_dl"].isna() | (ups["lsn"] > ups["_dl"])]
    out = live[keys].drop_duplicates().set_index(keys)
    for c in PARTIAL_COLUMNS:
        sub = live[live[f"has_{c}"]]
        if len(sub):
            idx = sub.groupby(keys)["lsn"].idxmax()
            picked = sub.loc[idx].set_index(keys)[c]
        else:
            picked = pd.Series(dtype=live[c].dtype)
        out[c] = picked
    return out.reset_index()
