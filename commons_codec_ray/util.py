"""Small shared utilities."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def pool_size(requested: int) -> int:
    """Clamp an actor-pool size to the cluster, leaving at least one
    CPU slot free: a pool that reserves every slot starves the upstream
    read/map tasks and the pipeline DEADLOCKS (observed at num_cpus=4
    with concurrency=4). The graph shard pools reserve no CPU but keep
    this clamp as their spawned size; below :data:`DRIVER_POOL_ROWS`
    they default to one shard in the driver instead (:func:`sized_pool`)."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:  # noqa: BLE001
        cpus = 8
    return max(1, min(requested, cpus - 1))


# Rows below which a pool's default size is ONE, and a pool of one runs
# in the driver (:class:`InDriver`) instead of in fresh worker processes.
# Measured with tools/placement_crossover.py (PERF.md "Driver placement
# crossover", median of 3, shared 4-vCPU VM): replaying 102k envelope
# rows takes 0.35 s with the applier in the driver and 0.69 s with two
# applier actors at 2 Ray CPUs;
# the actors catch up at ~340k rows on 2 CPUs and ~2M rows on 4 (1.02M
# rows: 2.87 vs 2.64 s at 2 CPUs, 1.72 vs 1.80 s at 4). pagerank on 800k
# edges (~0.96M setup rows) takes 0.90 s in the driver and 0.95 s on two
# shards, on 2M edges 2.65 vs 1.76 s; sssp stays faster in the driver
# through 2M edges. At one million, neither side loses more than ~10 %
# at any measured point.
DRIVER_POOL_ROWS = 1_000_000


def sized_pool(requested: int | None, rows: int, spawned: int) -> int:
    """Size of an actor pool that will hold ``rows`` rows: ``requested``
    when given, else 1 below :data:`DRIVER_POOL_ROWS`, else ``spawned``.
    A pool of one is run in the driver process."""
    if requested:
        return requested
    return 1 if rows < DRIVER_POOL_ROWS else spawned


class InDriver:
    """An actor-shaped handle on a plain object in the driver process.

    ``h.method.remote(*args)`` and ``h.method.options(num_returns=n)
    .remote(*args)`` resolve ``ObjectRef`` arguments as Ray does for an
    actor, call the method at once and return ``ray.put`` refs of its
    result(s), so code written against an actor pool runs unchanged on a
    pool of one, with no process to spawn or kill. A failing call raises
    from ``remote`` itself, not from a later ``ray.get``."""

    def __init__(self, obj):
        self._obj = obj

    def __getattr__(self, name: str) -> "_InDriverMethod":
        return _InDriverMethod(getattr(self._obj, name))


class _InDriverMethod:
    def __init__(self, fn, num_returns: int = 1):
        self._fn = fn
        self._num_returns = num_returns

    def options(self, num_returns: int = 1) -> "_InDriverMethod":
        return _InDriverMethod(self._fn, num_returns)

    def remote(self, *args):
        import ray

        refs = [i for i, a in enumerate(args) if isinstance(a, ray.ObjectRef)]
        if refs:
            args = list(args)
            for i, value in zip(refs, ray.get([args[i] for i in refs])):
                args[i] = value
        out = self._fn(*args)
        if self._num_returns == 1:
            return ray.put(out)
        return [ray.put(o) for o in out]


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def adaptive_buckets(
    n_rows: int | None = None,
    *,
    rows_per_bucket: int = 100_000,
    min_buckets: int = 256,
    max_buckets: int = 1 << 20,
) -> int:
    """Power-of-two coarse-bucket count for bucketed groupby operators
    (windows, joins, dedup, anti-join).

    Buckets bound both parallelism (num_buckets groups run at once) and
    per-group memory (≈ input / num_buckets lands in one pandas group),
    so a fixed constant is wrong at 1000× the data. Two inputs drive it:

    - ``n_rows`` (pass it when a metadata-cheap ``ds.count()`` exists,
      e.g. straight off ``read_parquet``): one bucket per
      ``rows_per_bucket`` rows keeps per-group frames flat as data grows.
    - the cluster's CPU count (always applied as a floor of 8× CPUs): on
      a 256-node cluster the floor alone lifts bucket counts into the
      tens of thousands, so no stage is capped below the core count.

    Deterministic given (n_rows, cluster size); the RESULT of a bucketed
    operator never depends on the bucket count — only its parallelism and
    peak memory do (tested: 4096-bucket runs are byte-identical).
    """
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:  # noqa: BLE001
        cpus = 8
    target = max(min_buckets, 8 * cpus)
    if n_rows and n_rows > 0:
        target = max(target, n_rows // rows_per_bucket + 1)
    target = min(max_buckets, target)
    return 1 << int(target - 1).bit_length()


def hash_bucket(keys, num_buckets: int) -> pa.Array:
    """Bucket an int64 key array as ``splitmix(key) & (num_buckets-1)``
    (``num_buckets`` must be a power of two; use
    :func:`adaptive_buckets`).

    Mixing first makes the bucket distribution independent of the key
    distribution — raw low bits (``user_id & 255``) skew catastrophically
    for real-world allocators (all-even ids, shard-strided ids), mixed
    bits do not. Returns a pyarrow int64 array.
    """
    k = np.asarray(keys)
    if k.dtype.kind not in "iu":
        raise TypeError(f"hash_bucket requires an integer key array (got {k.dtype})")
    k = k.astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (k + _GAMMA) * _GAMMA
        h ^= h >> np.uint64(31)
        h = h * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(29)
    return pa.array((h & np.uint64(num_buckets - 1)).astype(np.int64))


def duck_rint(values):
    """``np.rint`` drop-in that rounds half AWAY from zero.

    Matches DuckDB ``round(DOUBLE)`` exactly: ``np.rint`` is
    round-half-to-even (banker's), so the two diverge whenever the
    value lands exactly on .5 in IEEE double (e.g. ``1.125 * 100 ==
    112.5`` exactly: rint → 112, DuckDB round → 113). Every
    integer-cents lane (``round(value * 100)`` oracles) must use this
    instead of ``np.rint`` or the oracle hash compare breaks on
    boundary inputs. Returns float64, same contract as ``np.rint``.
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.copysign(np.floor(np.abs(arr) + 0.5), arr)


def duckdb_round(values, ndigits: int):
    """Round like DuckDB's ``round(x, n)`` for DOUBLE, bit-exactly.

    DuckDB computes ``std::round(x * 10^n) / 10^n`` (half away from
    zero). Reproducing the same multiply→round→divide sequence yields
    the identical IEEE double, so oracle comparisons that hash raw float
    bytes match. (pyarrow's ``pc.round`` uses a different algorithm and
    can differ by one ulp — enough to fail a byte-level compare.)
    """
    arr = values
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = arr.to_numpy(zero_copy_only=False)
    arr = np.asarray(arr, dtype=np.float64)
    p = float(10**ndigits)
    with np.errstate(invalid="ignore"):
        out = np.copysign(np.floor(np.abs(arr * p) + 0.5), arr) / p
    out = np.where(np.isnan(arr), np.nan, out)
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        return pa.array(out, type=pa.float64())
    return out
