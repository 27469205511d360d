"""Transcript-native training-data prep operators.

The engine's payload is multi-turn conversation transcripts
``(conv_id, turn_idx, role, text, tool, ts)`` — the BASELINE.json
input-table hint.  The operators here consume the FINAL lake state (what
``cdc_replay`` produces) and turn it into the artifacts an LLM training
pipeline actually ships: supervised context→target pairs, a
conversation-level dedup pass, per-conversation validation stats, and
corpus-level role-transition counts.

For the driver queries the final state is derived from the deterministic
events→ops mapping (:func:`commons_codec_ray.envelopes.logical_ops_from_events`)
so the DuckDB oracle can compute the identical input independently (the
same CTE as ``_CDC_REPLAY_SQL``); a production run would point the same
operators at the committed lake Parquet instead.

Scale shape shared by the whole family:

- bucket on ``splitmix(user_id)`` (``conv_id = 'c-'||user_id`` is a
  bijection, so bucketing the int avoids a string shuffle key),
- within-batch LWW combine BEFORE the shuffle (duplicate deliveries and
  superseded versions never cross the wire),
- ONE ``groupby(_b).map_groups`` whose UDF is vectorized across the
  whole bucket (stable sort + ``drop_duplicates`` + boundary masks —
  never a per-key pandas group apply).

The only per-conversation Python loops are SFT context assembly and
fingerprint md5 — both build per-conversation output STRINGS, so a
Python-level join over ≤40 turns is the work itself, not overhead
(same measured-and-documented stance as MinHash shingling, PERF.md).
"""

from __future__ import annotations

import hashlib
from itertools import accumulate

import numpy as np
import pandas as pd
import pyarrow as pa

from commons_codec_ray.envelopes import logical_ops_from_events
from commons_codec_ray.util import hash_bucket

#: payload columns a caller may ask :func:`ops_from_events` to carry
PAYLOAD_COLUMNS = ("role", "text", "tool", "ts")


def ops_from_events(
    batch: pa.Table, num_buckets: int, columns: tuple[str, ...] = PAYLOAD_COLUMNS
) -> pa.Table:
    """events batch → bucketed LWW op rows (vectorized, combined).

    Emits ``(_b, conv_id, turn_idx, op, lsn, *columns)`` with a
    within-batch LWW combine already applied: for every (conv, turn)
    key only the max-``lsn`` row leaves the batch, so the shuffle
    carries one row per key per batch instead of one per delivery.
    Only the payload columns a query needs ride the shuffle.
    """
    m = logical_ops_from_events(batch)
    n = len(m["lsn"])
    cols: dict[str, pa.Array] = {
        "_b": hash_bucket(
            batch["user_id"].to_numpy(zero_copy_only=False), num_buckets
        ),
        "conv_id": pa.array(m["conv_id"], pa.string()),
        "turn_idx": pa.array(m["turn_idx"], pa.int32()),
        "op": pa.array(np.where(m["is_delete"], 0, 1).astype(np.int8)),
        "lsn": pa.array(m["lsn"], pa.int64()),
    }
    for c in columns:
        if c == "ts":
            cols["ts"] = pa.array(m["ts_us"], pa.int64()).cast(pa.timestamp("us"))
        else:
            cols[c] = pa.array(m[c], pa.string())
    t = pa.table(cols)
    if n <= 1:
        return t
    # within-batch LWW combine: stable argsort on (conv, turn, lsn),
    # keep the last row of each (conv, turn) run
    order = np.lexsort((m["lsn"], m["turn_idx"], m["conv_id"]))
    conv_s = m["conv_id"][order]
    turn_s = m["turn_idx"][order]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = (conv_s[1:] != conv_s[:-1]) | (turn_s[1:] != turn_s[:-1])
    return t.take(pa.array(order[last]))


def lww_finalize(df: pd.DataFrame) -> pd.DataFrame:
    """Per-bucket LWW finalize: max-lsn version per (conv, turn), deletes
    dropped, output sorted by (conv_id, turn_idx). Fully vectorized
    (stable mergesort + keep-last drop_duplicates)."""
    df = df.sort_values(["conv_id", "turn_idx", "lsn"], kind="mergesort")
    df = df.drop_duplicates(["conv_id", "turn_idx"], keep="last")
    return df[df["op"].to_numpy() == 1]


def _conv_boundaries(conv: np.ndarray) -> np.ndarray:
    """Start offsets of each conversation run in a (conv, turn)-sorted
    array, with a closing sentinel: ``starts[i]:starts[i+1]`` slices
    conversation i."""
    if len(conv) == 0:
        return np.zeros(1, dtype=np.int64)
    new = np.empty(len(conv), dtype=bool)
    new[0] = True
    new[1:] = conv[1:] != conv[:-1]
    return np.append(np.flatnonzero(new), len(conv)).astype(np.int64)


# ---------------------------------------------------------------------------
# SFT context→target pair extraction
# ---------------------------------------------------------------------------

SFT_SEP = "\n"


def sft_pairs_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One bucket → (conv_id, turn_idx, context, target) rows for every
    turn with at least one predecessor: ``context`` is the ordered
    ``role: text`` concatenation of all prior surviving turns — the
    canonical supervised-fine-tuning sample layout."""
    df = lww_finalize(df)
    if df.empty:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "turn_idx": pd.Series([], dtype="int32"),
                "context": pd.Series([], dtype="object"),
                "target": pd.Series([], dtype="object"),
            }
        )
    conv = df["conv_id"].to_numpy()
    turn = df["turn_idx"].to_numpy()
    text = df["text"].to_numpy()
    # vectorized line rendering; the per-conv prefix accumulation below
    # builds the output strings themselves (the work, not overhead)
    lines = (df["role"] + ": " + df["text"]).to_numpy()
    starts = _conv_boundaries(conv)
    out_conv: list[str] = []
    out_turn: list[np.ndarray] = []
    out_ctx: list[str] = []
    out_tgt: list[str] = []
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        if hi - lo < 2:
            continue
        prefixes = list(accumulate(lines[lo : hi - 1], lambda a, b: a + SFT_SEP + b))
        out_conv.extend([conv[lo]] * (hi - lo - 1))
        out_turn.append(turn[lo + 1 : hi])
        out_ctx.extend(prefixes)
        out_tgt.extend(text[lo + 1 : hi])
    return pd.DataFrame(
        {
            "conv_id": np.asarray(out_conv, dtype=object),
            "turn_idx": np.concatenate(out_turn) if out_turn else np.array([], np.int32),
            "context": np.asarray(out_ctx, dtype=object),
            "target": np.asarray(out_tgt, dtype=object),
        }
    )


# ---------------------------------------------------------------------------
# Conversation-level exact dedup
# ---------------------------------------------------------------------------

FP_FIELD_SEP = "|"
FP_TURN_SEP = "\x1f"


def conv_fingerprints_bucket(df: pd.DataFrame, clone_mod: int | None = None) -> pd.DataFrame:
    """One bucket → one (conv_id, fp) row per conversation, where ``fp``
    is the md5 hex of the ordered ``role|text`` turn concatenation — the
    whole-conversation content identity used for corpus-level dedup.

    ``clone_mod`` (test/driver-query hook): additionally re-fingerprints
    conversations whose ``user_id % clone_mod == 0`` under the shadow id
    ``dup-<user_id>`` — planting exact duplicates so the dedup pass has
    real work whose survivors an oracle can predict. The clone rides the
    REAL code path (same concat + hash), not a copied fingerprint.
    """
    df = lww_finalize(df)
    if df.empty:
        return pd.DataFrame(
            {"conv_id": pd.Series([], dtype="object"), "fp": pd.Series([], dtype="object")}
        )
    conv = df["conv_id"].to_numpy()
    pieces = (df["role"] + FP_FIELD_SEP + df["text"]).to_numpy()
    starts = _conv_boundaries(conv)
    ids: list[str] = []
    fps: list[str] = []
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        payload = FP_TURN_SEP.join(pieces[lo:hi]).encode()
        fp = hashlib.md5(payload).hexdigest()
        cid = conv[lo]
        ids.append(cid)
        fps.append(fp)
        if clone_mod is not None and int(cid[2:]) % clone_mod == 0:
            ids.append("dup-" + cid[2:])
            fps.append(hashlib.md5(payload).hexdigest())
    return pd.DataFrame({"conv_id": np.asarray(ids, dtype=object), "fp": np.asarray(fps, dtype=object)})


def conv_dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Fingerprint-bucket reduce: per fp keep the min conv_id (survivor)
    and the copy count. Exact — buckets are derived from the fp itself,
    so all copies of a fingerprint meet in one bucket."""
    g = df.groupby("fp", sort=False)["conv_id"]
    out = g.agg(["min", "size"]).reset_index()
    return pd.DataFrame(
        {
            "conv_id": out["min"].to_numpy(),
            "n_copies": out["size"].to_numpy(dtype=np.int64),
        }
    )


def fp_bucket_column(fp: pd.Series, num_buckets: int) -> pa.Array:
    """Bucket fingerprints by their leading 16 hex chars (uint64) through
    the same splitmix bucketing as every other coarse-bucket operator."""
    pref = np.array(
        [int(s[:16], 16) for s in fp.to_numpy()], dtype=np.uint64
    )
    return hash_bucket(pref, num_buckets)


# ---------------------------------------------------------------------------
# Per-conversation validation stats
# ---------------------------------------------------------------------------


def conv_stats_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One bucket → per-conversation validation stats: turn count,
    tool-call count, adjacent same-role repeats (alternation breaks),
    first/last event time. All pandas C-level groupby aggregation."""
    df = lww_finalize(df)
    if df.empty:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "n_turns": pd.Series([], dtype="int64"),
                "n_tool": pd.Series([], dtype="int64"),
                "n_role_repeats": pd.Series([], dtype="int64"),
                "first_ts": pd.Series([], dtype="datetime64[us]"),
                "last_ts": pd.Series([], dtype="datetime64[us]"),
            }
        )
    conv = df["conv_id"].to_numpy()
    role = df["role"].to_numpy()
    same = np.zeros(len(df), dtype=np.int64)
    if len(df) > 1:
        same[1:] = (conv[1:] == conv[:-1]) & (role[1:] == role[:-1])
    out = (
        pd.DataFrame(
            {
                "conv_id": conv,
                "tool_hit": df["tool"].notna().to_numpy(),
                "repeat": same,
                "ts": df["ts"].to_numpy(),
            }
        )
        .groupby("conv_id", sort=False)
        .agg(
            n_turns=("repeat", "size"),
            n_tool=("tool_hit", "sum"),
            n_role_repeats=("repeat", "sum"),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
        )
        .reset_index()
    )
    out["n_turns"] = out["n_turns"].astype(np.int64)
    out["n_tool"] = out["n_tool"].astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# Corpus-level role-transition counts
# ---------------------------------------------------------------------------

_TRANS_SEP = "\x1f"


def role_transitions_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One bucket → partial (prev_role, role) bigram counts over the
    turn order of every conversation — the corpus-level conversation-flow
    profile (and the partial input to ONE tiny global groupby-sum)."""
    df = lww_finalize(df)
    if len(df) < 2:
        return pd.DataFrame(
            {"pair": pd.Series([], dtype="object"), "n": pd.Series([], dtype="int64")}
        )
    conv = df["conv_id"].to_numpy()
    role = df["role"].to_numpy()
    adj = conv[1:] == conv[:-1]
    pairs = pd.Series(
        np.char.add(np.char.add(role[:-1][adj].astype(str), _TRANS_SEP), role[1:][adj].astype(str))
    )
    vc = pairs.value_counts()
    return pd.DataFrame({"pair": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(dtype=np.int64)})


def split_transition_pairs(t: pa.Table) -> pa.Table:
    """(pair, n) partial-sum rows → (prev_role, role, n)."""
    import pyarrow.compute as pc

    parts = pc.split_pattern(t["pair"], _TRANS_SEP)
    return pa.table(
        {
            "prev_role": pc.list_element(parts, 0),
            "role": pc.list_element(parts, 1),
            "n": t["n"].cast(pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Sequence packing (training-sample assembly under a length budget)
# ---------------------------------------------------------------------------

PACK_BUDGET = 24  # characters; a real run would use tokenizer token counts


def pack_sequences_bucket(df: pd.DataFrame, budget: int = PACK_BUDGET) -> pd.DataFrame:
    """One bucket → (conv_id, turn_idx, chunk) rows: each conversation's
    surviving turns are greedily packed into contiguous chunks whose
    cumulative text length stays within ``budget`` — the
    sequence-packing step that turns transcripts into fixed-budget
    training samples. A turn longer than the budget occupies its own
    chunk. Greedy reset-cumsum is inherently sequential per
    conversation, so the inner loop is per-turn Python over ≤40 turns;
    everything around it (LWW finalize, length computation, output
    assembly) is vectorized."""
    df = lww_finalize(df)
    if df.empty:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "turn_idx": pd.Series([], dtype="int32"),
                "chunk": pd.Series([], dtype="int64"),
            }
        )
    conv = df["conv_id"].to_numpy()
    lengths = df["text"].str.len().to_numpy()
    starts = _conv_boundaries(conv)
    chunk = np.empty(len(df), dtype=np.int64)
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        acc = 0
        c = 0
        for j in range(lo, hi):
            if j == lo:
                acc = lengths[j]
            elif acc + lengths[j] > budget:
                c += 1
                acc = lengths[j]
            else:
                acc += lengths[j]
            chunk[j] = c
    return pd.DataFrame(
        {
            "conv_id": conv,
            "turn_idx": df["turn_idx"].to_numpy(),
            "chunk": chunk,
        }
    )
