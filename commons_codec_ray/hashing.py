"""Stable, process-independent hashing for partition assignment.

Partitioning must be identical across processes, Python versions and
cluster sizes (Python's builtin ``hash`` is salted per process — never
use it). We use crc32 over the utf-8 key bytes, which numpy cannot
vectorize, so the hot kernel goes through pandas ``.map`` over a
(usually small) set of *unique* conv_ids per batch: hash each distinct
key once, then broadcast.

The partition count ``P`` is FIXED (default 64) independent of cluster
size, so the partition → file layout of the lake is identical whether
the job runs on N or 4N workers (SURVEY.md §7.4 "stable partition→file
layout across cluster sizes"); choose P ≥ 8× max workers for balance.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

DEFAULT_NUM_PARTITIONS = 64


def shuffle_keys_for(
    tables: pa.ChunkedArray | pa.Array, partition_ids: pa.ChunkedArray | pa.Array
) -> pa.Array:
    """Single int64 exchange key packing (table, partition):
    ``(crc32(table) & 0x7FFFFFFF) << 32 | partition_id``.

    Shuffling on a packed int instead of a (string, int) pair keeps the
    sort-based exchange integer-only (a string sort key measurably slows
    the 2M-row shuffle). crc collisions between table names are handled
    by the applier (it splits a group by actual table name), so they
    cost locality, never correctness.
    """
    if isinstance(tables, pa.ChunkedArray):
        tables = tables.combine_chunks()
    d = tables if pa.types.is_dictionary(tables.type) else tables.dictionary_encode()
    lut = np.array(
        [
            (zlib.crc32(t.encode("utf-8")) & 0x7FFFFFFF) if t is not None else 0
            for t in d.dictionary.to_pylist()
        ],
        dtype=np.int64,
    )
    idx = d.indices.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    if isinstance(partition_ids, pa.ChunkedArray):
        partition_ids = partition_ids.combine_chunks()
    pid = partition_ids.to_numpy(zero_copy_only=False).astype(np.int64)
    if len(lut) == 0:
        return pa.array(pid)
    return pa.array((lut[idx] << 32) | pid)


def partition_ids_for(conv_ids: pa.ChunkedArray | pa.Array, num_partitions: int) -> pa.Array:
    """Vectorized-ish partition id for a string column.

    Dictionary-encodes the column (cheap in Arrow), hashes only the
    distinct values, then takes by index — O(uniques) Python work per
    batch instead of O(rows).
    """
    if isinstance(conv_ids, pa.ChunkedArray):
        conv_ids = conv_ids.combine_chunks()
    dict_arr = conv_ids.dictionary_encode()
    uniques = dict_arr.dictionary.to_pylist()
    lut = np.array(
        [zlib.crc32(u.encode("utf-8")) % num_partitions if u is not None else 0 for u in uniques],
        dtype=np.int32,
    )
    # null entries (e.g. dead-letter rows with no key) → partition 0,
    # explicitly: fill_null(0) alone would route nulls to uniques[0]'s
    # partition, an arbitrary batch-composition-dependent target.
    null_mask = dict_arr.indices.is_null().to_numpy(zero_copy_only=False)
    indices = dict_arr.indices.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(lut) == 0:
        return pa.array(np.zeros(len(indices), dtype=np.int32))
    out = lut[indices]
    if null_mask.any():
        out = np.where(null_mask, np.int32(0), out)
    return pa.array(out, type=pa.int32())
